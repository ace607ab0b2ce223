"""Tests for ``repro.serve`` — basecalling-as-a-service.

The load-bearing property is the **determinism contract**: a served
basecall must be bitwise-identical to the offline ``deploy()`` +
``basecall_signal`` result for the same read, seed, and bundle —
independent of request order, batching, concurrency, and cache state.
Everything else here (protocol validation, fairness, backpressure,
drain ordering) exists so that contract survives a hostile network.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

import numpy as np
import pytest

from repro.basecaller import BonitoModel
from repro.basecaller.decode import basecall_signal
from repro.core import deploy
from repro.core.nonidealities import get_bundle
from repro.nn import is_grad_enabled, no_grad
from repro.observability import get_metrics
from repro.runtime import ResultCache
from repro.serve import (
    BasecallEngine,
    BasecallServer,
    CoalescingBatcher,
    EngineConfig,
    PendingRead,
    ProtocolError,
    ProtocolLimits,
    ServeClient,
    ServeClientError,
    ServeConfig,
    encode_bases,
    error_response,
    parse_request,
)
from repro.serve.cli import DEMO_CONFIG, build_parser
from repro.serve.protocol import check_total_samples

RNG = np.random.default_rng(1234)
#: Deterministic workload shared by identity tests.
SIGNALS = [RNG.normal(size=n).astype(np.float64)
           for n in (96, 160, 192, 128, 224, 96, 144, 176)]


def offline_basecall(signal: np.ndarray,
                     config: EngineConfig | None = None) -> str:
    """The reference: a fresh offline deployment's first basecall."""
    config = config or EngineConfig()
    model = BonitoModel(DEMO_CONFIG)
    model.eval()
    deploy(model, get_bundle(config.bundle),
           crossbar_size=config.crossbar_size,
           write_variation=config.write_variation,
           use_wrv=config.use_wrv, seed=config.seed)
    codes = basecall_signal(model, signal, beam_width=config.beam_width)
    return encode_bases(codes)


@pytest.fixture(scope="module")
def offline_refs():
    return [offline_basecall(signal) for signal in SIGNALS]


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_parse_basecall(self):
        request = parse_request(
            b'{"op":"basecall","id":"r1","signal":[1.0,2.5,-3]}')
        assert request.op == "basecall"
        assert request.read_id == "r1"
        np.testing.assert_array_equal(request.signal, [1.0, 2.5, -3.0])

    def test_parse_chunk_carries_last_flag(self):
        request = parse_request(
            b'{"op":"chunk","id":"r1","signal":[1],"last":true}')
        assert request.op == "chunk" and request.last is True
        request = parse_request(b'{"op":"chunk","id":"r1","signal":[1]}')
        assert request.last is False

    def test_parse_control_ops_need_no_id(self):
        assert parse_request(b'{"op":"ping"}').op == "ping"
        assert parse_request(b'{"op":"metrics"}').op == "metrics"

    @pytest.mark.parametrize("line,code", [
        (b"not json", "malformed"),
        (b'[1,2,3]', "malformed"),
        (b'{"op":"frobnicate"}', "malformed"),
        (b'{"op":"basecall","signal":[1]}', "malformed"),       # no id
        (b'{"op":"basecall","id":"","signal":[1]}', "malformed"),
        (b'{"op":"basecall","id":"r","signal":"abc"}', "malformed"),
        (b'{"op":"basecall","id":"r","signal":[1,"x"]}', "malformed"),
        (b'{"op":"basecall","id":"r","signal":[1,null]}', "malformed"),
        (b'{"op":"basecall","id":"r","signal":[NaN]}', "malformed"),
        (b'{"op":"chunk","id":"r","signal":[1],"last":1}', "malformed"),
        (b'\xff\xfe{"op":"ping"}', "malformed"),
    ])
    def test_rejects_malformed(self, line, code):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(line)
        assert excinfo.value.code == code

    def test_oversized_signal_and_line(self):
        limits = ProtocolLimits(max_signal_samples=4, max_line_bytes=64)
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(
                b'{"op":"basecall","id":"r","signal":[1,2,3,4,5]}', limits)
        assert excinfo.value.code == "oversized"
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(b'{"op":"basecall","id":"r","signal":['
                          + b"1," * 40 + b"1]}", limits)
        assert excinfo.value.code == "oversized"

    def test_read_id_length_bound(self):
        limits = ProtocolLimits(max_id_chars=8)
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(json.dumps(
                {"op": "basecall", "id": "x" * 9, "signal": [1]}), limits)
        assert excinfo.value.code == "malformed"

    def test_check_total_samples(self):
        limits = ProtocolLimits(max_signal_samples=10)
        check_total_samples(10, "r", limits)
        with pytest.raises(ProtocolError) as excinfo:
            check_total_samples(11, "r", limits)
        assert excinfo.value.code == "oversized"

    def test_encode_bases(self):
        assert encode_bases(np.array([0, 1, 2, 3, 0])) == "ACGTA"
        assert encode_bases(np.array([], dtype=np.int8)) == ""

    def test_error_response_validates_code(self):
        response = error_response("r1", "timeout", "too slow")
        assert response["status"] == "error"
        assert response["error"]["code"] == "timeout"
        with pytest.raises(ValueError):
            error_response("r1", "nonsense", "boom")

    def test_protocol_error_to_response(self):
        exc = ProtocolError("empty_read", "nothing there", read_id="r9")
        response = exc.to_response()
        assert response == {"id": "r9", "status": "error",
                            "error": {"code": "empty_read",
                                      "message": "nothing there"}}
        with pytest.raises(ValueError):
            ProtocolError("bogus", "nope")


# ----------------------------------------------------------------------
# Batcher (DRR fairness, bounds, cancellation)
# ----------------------------------------------------------------------
def _pending(client: str, read: str, cost: int,
             loop: asyncio.AbstractEventLoop) -> PendingRead:
    return PendingRead(client_id=client, read_id=read,
                       signal=np.zeros(cost), future=loop.create_future(),
                       enqueued_perf=0.0)


class TestBatcher:
    def test_drr_interleaves_equal_cost_clients(self):
        async def scenario():
            batcher = CoalescingBatcher(max_batch_reads=8,
                                        quantum_samples=100)
            loop = asyncio.get_running_loop()
            for i in range(3):
                await batcher.put(_pending("a", f"a{i}", 100, loop))
            for i in range(3):
                await batcher.put(_pending("b", f"b{i}", 100, loop))
            return [p.read_id for p in batcher.take_batch()]

        order = asyncio.run(scenario())
        # One quantum per visit -> strict alternation, arrival order
        # within each client.
        assert order == ["a0", "b0", "a1", "b1", "a2", "b2"]

    def test_large_read_is_delayed_not_starved(self):
        async def scenario():
            batcher = CoalescingBatcher(max_batch_reads=8,
                                        quantum_samples=100)
            loop = asyncio.get_running_loop()
            await batcher.put(_pending("big", "huge", 1000, loop))
            for i in range(2):
                await batcher.put(_pending("small", f"s{i}", 50, loop))
            first = [p.read_id for p in batcher.take_batch()]
            second = [p.read_id for p in batcher.take_batch()]
            return first, second

        first, second = asyncio.run(scenario())
        # The cheap reads go out while the big one banks credit...
        assert first == ["s0", "s1"]
        # ...and the big one dispatches on the next batch, not never.
        assert second == ["huge"]

    def test_sample_budget_bounds_batch(self):
        async def scenario():
            batcher = CoalescingBatcher(max_batch_reads=8,
                                        max_batch_samples=250,
                                        quantum_samples=1000)
            loop = asyncio.get_running_loop()
            for i in range(4):
                await batcher.put(_pending("a", f"a{i}", 100, loop))
            return ([p.read_id for p in batcher.take_batch()],
                    [p.read_id for p in batcher.take_batch()])

        first, second = asyncio.run(scenario())
        assert first == ["a0", "a1"]          # 300 would exceed 250
        assert second == ["a2", "a3"]

    def test_put_blocks_at_capacity_until_dispatch(self):
        async def scenario():
            batcher = CoalescingBatcher(max_pending_reads=2,
                                        max_batch_reads=1)
            loop = asyncio.get_running_loop()
            await batcher.put(_pending("a", "a0", 1, loop))
            await batcher.put(_pending("a", "a1", 1, loop))
            blocked = asyncio.ensure_future(
                batcher.put(_pending("a", "a2", 1, loop)))
            await asyncio.sleep(0.01)
            assert not blocked.done()          # bound hit: producer waits
            taken = batcher.take_batch()
            await asyncio.wait_for(blocked, timeout=1.0)
            return [p.read_id for p in taken], batcher.pending

        taken, pending = asyncio.run(scenario())
        assert taken == ["a0"]
        assert pending == 2                    # a1 + the unblocked a2

    def test_cancelled_reads_are_pruned_silently(self):
        async def scenario():
            batcher = CoalescingBatcher()
            loop = asyncio.get_running_loop()
            keep = _pending("b", "keep", 1, loop)
            for i in range(3):
                await batcher.put(_pending("a", f"a{i}", 1, loop))
            await batcher.put(keep)
            assert batcher.cancel_client("a") == 3
            assert batcher.cancel_client("ghost") == 0
            return [p.read_id for p in batcher.take_batch()]

        assert asyncio.run(scenario()) == ["keep"]


# ----------------------------------------------------------------------
# Engine: determinism contract + cache
# ----------------------------------------------------------------------
class TestEngine:
    @pytest.fixture(scope="class")
    def engine(self):
        return BasecallEngine(BonitoModel(DEMO_CONFIG))

    def test_bitwise_identity_with_offline_deploy(self, engine,
                                                  offline_refs):
        result = engine.basecall(SIGNALS[0])
        assert result.bases == offline_refs[0]
        assert result.cached is False
        assert result.frames == len(SIGNALS[0]) // 2

    def test_rng_epoch_makes_order_irrelevant(self, engine, offline_refs):
        # Serve b, a, a, b in a weird order: every answer must equal the
        # fresh-deployment reference regardless of what ran before.
        sequence = [1, 0, 0, 1, 2, 1]
        for index in sequence:
            assert engine.basecall(SIGNALS[index]).bases == \
                offline_refs[index]

    def test_engines_are_interchangeable(self, engine, offline_refs):
        other = BasecallEngine(BonitoModel(DEMO_CONFIG))
        assert other.basecall(SIGNALS[3]).bases == \
            engine.basecall(SIGNALS[3]).bases == offline_refs[3]

    def test_rejects_empty_and_2d_signals(self, engine):
        with pytest.raises(ValueError):
            engine.basecall(np.empty(0))
        with pytest.raises(ValueError):
            engine.basecall(np.zeros((2, 8)))

    def test_cache_short_circuits_duplicates(self, tmp_path, offline_refs):
        cache = ResultCache(tmp_path / "serve-cache")
        engine = BasecallEngine(BonitoModel(DEMO_CONFIG), cache=cache)
        first = engine.basecall(SIGNALS[2])
        second = engine.basecall(SIGNALS[2])
        assert first.cached is False and second.cached is True
        assert first.bases == second.bases == offline_refs[2]
        assert first.frames == second.frames
        # A freshly built engine on the same design point hits the same
        # entries — the key is content-addressed, not instance-bound.
        warm = BasecallEngine(BonitoModel(DEMO_CONFIG), cache=cache)
        assert warm.basecall(SIGNALS[2]).cached is True

    def test_cache_key_separates_design_points(self, tmp_path):
        cache = ResultCache(tmp_path / "serve-cache")
        a = BasecallEngine(BonitoModel(DEMO_CONFIG), cache=cache)
        b = BasecallEngine(BonitoModel(DEMO_CONFIG),
                           EngineConfig(seed=9), cache=cache)
        assert a.cache_key(SIGNALS[0]) != b.cache_key(SIGNALS[0])
        a.basecall(SIGNALS[0])
        assert b.basecall(SIGNALS[0]).cached is False


# ----------------------------------------------------------------------
# Shared-model concurrency (satellite: concurrent-safety audit)
# ----------------------------------------------------------------------
class TestSharedModelConcurrency:
    def test_rng_snapshot_restore_roundtrip(self):
        model = BonitoModel(DEMO_CONFIG)
        model.eval()
        deployed = deploy(model, get_bundle("write_only"), seed=0)
        snapshot = deployed.rng_snapshot()
        first = encode_bases(basecall_signal(model, SIGNALS[0]))
        deployed.rng_restore(snapshot)
        replay = encode_bases(basecall_signal(model, SIGNALS[0]))
        assert replay == first

    def test_rng_restore_rejects_wrong_shape(self):
        model = BonitoModel(DEMO_CONFIG)
        model.eval()
        deployed = deploy(model, get_bundle("write_only"), seed=0)
        with pytest.raises(ValueError):
            deployed.rng_restore(deployed.rng_snapshot()[:-1])

    def test_locked_shared_model_concurrent_equals_serial(self,
                                                          offline_refs):
        """One DeployedModel shared by threads under its lock: every
        thread's answer is bitwise the serial (and offline) one."""
        model = BonitoModel(DEMO_CONFIG)
        model.eval()
        deployed = deploy(model, get_bundle("write_only"), seed=0)
        epoch = deployed.rng_snapshot()

        results: dict[int, str] = {}
        errors: list[Exception] = []

        def worker(index: int) -> None:
            try:
                with deployed.lock:
                    deployed.rng_restore(epoch)
                    codes = basecall_signal(model, SIGNALS[index])
                results[index] = encode_bases(codes)
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(len(SIGNALS))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert results == {i: offline_refs[i] for i in range(len(SIGNALS))}

    def test_no_grad_is_thread_local(self):
        observed: dict[str, bool] = {}
        entered = threading.Event()
        release = threading.Event()

        def inside() -> None:
            with no_grad():
                entered.set()
                release.wait(timeout=5)
                observed["inside"] = is_grad_enabled()

        def outside() -> None:
            entered.wait(timeout=5)
            observed["outside"] = is_grad_enabled()
            release.set()

        threads = [threading.Thread(target=inside),
                   threading.Thread(target=outside)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # One thread's no_grad must not leak into another's autograd.
        assert observed == {"inside": False, "outside": True}


# ----------------------------------------------------------------------
# Server integration
# ----------------------------------------------------------------------
class Harness:
    """A BasecallServer on its own event-loop thread, for sync tests."""

    def __init__(self, engine_config: EngineConfig | None = None,
                 serve_config: ServeConfig | None = None,
                 cache: ResultCache | None = None):
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever,
                                       daemon=True)
        self.thread.start()
        self.server = BasecallServer(BonitoModel(DEMO_CONFIG),
                                     engine_config, serve_config,
                                     cache=cache)
        self.run(self.server.start(), timeout=300)
        self.port = self.server.port
        self._closed = False

    def run(self, coro, timeout: float = 60):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(
            timeout)

    def call(self, fn, timeout: float = 30):
        """Run a sync callable on the loop thread (safe state access)."""
        async def wrapped():
            return fn()
        return self.run(wrapped(), timeout=timeout)

    def client(self, timeout: float = 60) -> ServeClient:
        return ServeClient("127.0.0.1", self.port, timeout=timeout)

    def close(self, drain: bool = True) -> None:
        if self._closed:
            return
        self._closed = True
        self.run(self.server.shutdown(drain=drain), timeout=120)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        self.loop.close()


@pytest.fixture(scope="class")
def harness():
    server = Harness(serve_config=ServeConfig(workers=2))
    yield server
    server.close()


class TestServerIntegration:
    def test_roundtrip_bitwise_identity(self, harness, offline_refs):
        with harness.client() as client:
            for index in (2, 0, 1, 0):
                response = client.basecall(f"r{index}", SIGNALS[index])
                assert response["status"] == "ok"
                assert response["bases"] == offline_refs[index]
                assert response["latency_ms"] >= response["compute_ms"] >= 0

    def test_chunked_equals_whole_read(self, harness):
        with harness.client() as client:
            whole = client.basecall("whole", SIGNALS[4])
            client.submit_chunked("pieces", SIGNALS[4], chunk_samples=64)
            chunked = client.recv()
        assert chunked["status"] == "ok"
        assert chunked["bases"] == whole["bases"]
        assert chunked["frames"] == whole["frames"]

    def test_eight_concurrent_clients_bitwise_identity(self, harness,
                                                       offline_refs):
        """The acceptance bar: >= 8 concurrent clients, every response
        bitwise-identical to the offline reference — concurrency and
        cross-request batching must not perturb a single output."""
        results: dict[tuple[int, int], str] = {}
        errors: list[Exception] = []

        def client_worker(worker: int) -> None:
            try:
                with harness.client() as client:
                    # Each client sends every signal, pipelined, so
                    # batches mix clients and duplicate reads.
                    for index in range(len(SIGNALS)):
                        client.submit(f"w{worker}-r{index}",
                                      SIGNALS[index])
                    for index in range(len(SIGNALS)):
                        response = client.recv()
                        assert response["status"] == "ok", response
                        results[(worker, index)] = response["bases"]
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=client_worker, args=(w,))
                   for w in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert not errors
        assert len(results) == 8 * len(SIGNALS)
        for (worker, index), bases in results.items():
            assert bases == offline_refs[index], (worker, index)

    def test_responses_keep_submission_order(self, harness):
        with harness.client() as client:
            for index in range(6):
                client.submit(f"ordered-{index}", SIGNALS[index % 3])
            received = [client.recv()["id"] for _ in range(6)]
        assert received == [f"ordered-{index}" for index in range(6)]

    def test_ping_and_metrics_ops(self, harness):
        with harness.client() as client:
            assert client.ping()["op"] == "pong"
            client.basecall("metrics-probe", SIGNALS[0])
            text = client.metrics()
        assert "# TYPE swordfish_serve_requests_total counter" in text
        assert "# TYPE swordfish_serve_latency_ms summary" in text
        assert 'swordfish_serve_latency_ms{quantile="0.5"}' in text
        assert "swordfish_serve_batch_occupancy" in text

    def test_malformed_line_keeps_connection_alive(self, harness):
        with harness.client() as client:
            client._sock.sendall(b"this is not json\n")
            response = client.recv()
            assert response["status"] == "error"
            assert response["error"]["code"] == "malformed"
            follow_up = client.basecall("after-garbage", SIGNALS[0])
        assert follow_up["status"] == "ok"

    def test_zero_length_read_is_structured_error(self, harness):
        with harness.client() as client:
            response = client.basecall("empty", np.empty(0))
            assert response["error"]["code"] == "empty_read"
            # Chunked assembly of nothing hits the same check.
            client.submit_chunked("empty-chunks", np.empty(0))
            response = client.recv()
        assert response["error"]["code"] == "empty_read"

    def test_unknown_op_is_structured_error(self, harness):
        with harness.client() as client:
            client.send({"op": "frobnicate", "id": "x"})
            response = client.recv()
        assert response["error"]["code"] == "malformed"

    def test_disconnect_mid_stream_leaves_server_healthy(self, harness,
                                                         offline_refs):
        rude = harness.client()
        for index in range(len(SIGNALS)):
            rude.submit(f"doomed-{index}", SIGNALS[index])
        rude.abort()
        # The server cancels the doomed work and keeps serving others.
        with harness.client() as client:
            response = client.basecall("survivor", SIGNALS[1])
        assert response["status"] == "ok"
        assert response["bases"] == offline_refs[1]


class TestOversizedRequests:
    @pytest.fixture(scope="class")
    def small_harness(self):
        config = ServeConfig(
            workers=1,
            limits=ProtocolLimits(max_signal_samples=64,
                                  max_line_bytes=4096))
        server = Harness(serve_config=config)
        yield server
        server.close()

    def test_oversized_signal_structured_error(self, small_harness):
        with small_harness.client() as client:
            response = client.basecall("big", np.zeros(65))
            assert response["status"] == "error"
            assert response["error"]["code"] == "oversized"
            # The connection survives a rejected request.
            ok = client.basecall("small", SIGNALS[0][:48])
        assert ok["status"] == "ok"

    def test_chunk_assembly_enforces_total_bound(self, small_harness):
        with small_harness.client() as client:
            client.submit_chunked("slow-boil", np.zeros(100),
                                  chunk_samples=40)
            response = client.recv()
            assert response["error"]["code"] == "oversized"
            ok = client.basecall("after", SIGNALS[0][:48])
        assert ok["status"] == "ok"

    def test_oversized_line_answers_then_hangs_up(self, small_harness):
        client = small_harness.client()
        try:
            client._sock.sendall(b"x" * 8192 + b"\n")
            response = client.recv()
            assert response["error"]["code"] == "oversized"
            with pytest.raises(ServeClientError):
                client.recv()                  # framing lost: EOF
        finally:
            client.close()


class TestBackpressureAndTimeouts:
    def test_slow_consumer_is_bounded_by_inflight_cap(self):
        config = ServeConfig(workers=1, max_client_inflight=1,
                             max_pending_reads=4)
        server = Harness(serve_config=config)
        try:
            with server.client() as client:
                for index in range(5):
                    client.submit(f"bp-{index}", SIGNALS[index % 2])
                # With a cap of one in-flight read per client, the
                # reader must not run ahead: at any instant at most one
                # of this client's reads is queued or computing.
                for _ in range(10):
                    assert server.call(
                        lambda: server.server.batcher.pending) <= 1
                    time.sleep(0.01)
                received = [client.recv() for _ in range(5)]
            assert [r["id"] for r in received] == \
                [f"bp-{index}" for index in range(5)]
            assert all(r["status"] == "ok" for r in received)
        finally:
            server.close()

    def test_request_timeout_returns_structured_error(self):
        config = ServeConfig(workers=1, request_timeout_s=0.2)
        server = Harness(serve_config=config)
        try:
            def slow_wrap():
                for engine in list(server.server._engines.queue):
                    original = engine.basecall_batch

                    def sleepy(signals, _original=original):
                        time.sleep(1.0)
                        return _original(signals)

                    engine.basecall_batch = sleepy
            server.call(slow_wrap)
            with server.client() as client:
                response = client.basecall("tardy", SIGNALS[0])
            assert response["status"] == "error"
            assert response["error"]["code"] == "timeout"
        finally:
            server.close()


class TestGracefulDrain:
    def test_drain_flushes_accepted_work_in_order(self, offline_refs):
        server = Harness(serve_config=ServeConfig(workers=2))
        baseline = server.call(
            lambda: get_metrics().counter("serve.requests").value)
        client = server.client()
        try:
            for index in range(5):
                client.submit(f"drain-{index}", SIGNALS[index])
            # Wait until the server has *accepted* all five...
            deadline = time.time() + 30
            while server.call(
                    lambda: get_metrics().counter(
                        "serve.requests").value) < baseline + 5:
                assert time.time() < deadline
                time.sleep(0.01)
            # ...then start draining and race in one more request.
            server.call(lambda: setattr(server.server, "_draining", True))
            client.submit("too-late", SIGNALS[0])
            server.close(drain=True)

            # Every accepted read completes, in submission order, with
            # the exact offline bases; the late one gets a structured
            # draining error; then EOF.
            for index in range(5):
                response = client.recv()
                assert response["id"] == f"drain-{index}"
                assert response["status"] == "ok"
                assert response["bases"] == offline_refs[index]
            late = client.recv()
            assert late["error"]["code"] == "draining"
            with pytest.raises(ServeClientError):
                client.recv()
            # And the listener is gone.
            with pytest.raises(ServeClientError):
                ServeClient("127.0.0.1", server.port, timeout=2)
        finally:
            client.close()
            server.close()


class TestServedCache:
    def test_duplicate_reads_short_circuit_bitwise(self, tmp_path,
                                                   offline_refs):
        cache = ResultCache(tmp_path / "served-cache")
        server = Harness(serve_config=ServeConfig(workers=2), cache=cache)
        try:
            with server.client() as client:
                cold = client.basecall("dup", SIGNALS[5])
                warm = client.basecall("dup-again", SIGNALS[5])
            assert cold["cached"] is False
            assert warm["cached"] is True
            assert cold["bases"] == warm["bases"] == offline_refs[5]
        finally:
            server.close()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_parser_demo_defaults(self):
        args = build_parser().parse_args(["--demo"])
        assert args.demo is True
        assert args.port == 0
        assert args.bundle == "write_only"

    def test_parser_requires_a_model_source(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
        capsys.readouterr()

    def test_checkpoint_roundtrip_builds_identical_model(self, tmp_path):
        from repro.nn.serialize import save_checkpoint
        from repro.serve.cli import build_model

        model = BonitoModel(DEMO_CONFIG)
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        args = build_parser().parse_args(
            ["--checkpoint", str(path), "--conv-channels", "8,16",
             "--lstm-hidden", "16", "--num-lstm-layers", "2",
             "--model-seed", "7"])
        loaded = build_model(args)
        for key, value in model.state_dict().items():
            np.testing.assert_array_equal(loaded.state_dict()[key], value)


# ----------------------------------------------------------------------
# ServeClient bounded retry
# ----------------------------------------------------------------------

class _ScriptedServer:
    """Minimal NDJSON server whose behavior is scripted per connection.

    Behaviors, consumed in accept order (the last one repeats):

    - ``"ok"``       — answer every request with ``{"status": "ok"}``.
    - ``"draining"`` — answer every request with the server's drain
      refusal (the exact shape ``BasecallServer`` emits).
    - ``"reset"``    — read the request line, then hard-close the
      connection (RST via ``SO_LINGER 0``): a mid-request reset.  The
      request is read first so the RST cannot race the client's
      ``connect()``.
    - ``"other"``    — answer with a non-retryable error response.
    """

    def __init__(self, behaviors: list[str]):
        import socket

        self.behaviors = list(behaviors)
        self.connections = 0
        self.requests: list[dict] = []
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        self.port = self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            index = min(self.connections, len(self.behaviors) - 1)
            behavior = self.behaviors[index]
            self.connections += 1
            threading.Thread(target=self._handle, args=(conn, behavior),
                             daemon=True).start()

    def _handle(self, conn, behavior: str) -> None:
        import socket
        import struct

        try:
            if behavior == "reset":
                with conn.makefile("rb") as fh:
                    fh.readline()
                conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                struct.pack("ii", 1, 0))
                return
            fh = conn.makefile("rb")
            for line in fh:
                request = json.loads(line)
                self.requests.append(request)
                if behavior == "draining":
                    reply = error_response(request.get("id"), "draining",
                                           "server is shutting down")
                elif behavior == "other":
                    reply = error_response(request.get("id"), "malformed",
                                           "bad request")
                else:
                    reply = {"status": "ok", "op": request.get("op"),
                             "id": request.get("id")}
                conn.sendall((json.dumps(reply) + "\n").encode("ascii"))
        except (OSError, ValueError):
            pass
        finally:
            conn.close()

    def close(self) -> None:
        self._listener.close()


class TestServeClientRetry:
    """Satellite: bounded, deterministic retry in :class:`ServeClient`."""

    def _client(self, server: _ScriptedServer, retries: int = 0,
                backoff: float = 0.0) -> ServeClient:
        return ServeClient("127.0.0.1", server.port, timeout=5.0,
                           retries=retries, retry_backoff=backoff)

    def test_retries_through_draining_then_succeeds(self):
        server = _ScriptedServer(["draining", "ok"])
        try:
            with self._client(server, retries=2) as client:
                response = client.ping()
            assert response["status"] == "ok"
            # The draining refusal forced a reconnect: two connections,
            # one request served on each.
            assert server.connections == 2
        finally:
            server.close()

    def test_retries_through_connection_reset_then_succeeds(self):
        server = _ScriptedServer(["reset", "reset", "ok"])
        try:
            with self._client(server, retries=3) as client:
                response = client.ping()
            assert response["status"] == "ok"
            assert server.connections == 3
        finally:
            server.close()

    def test_backoff_schedule_is_deterministic(self):
        server = _ScriptedServer(["reset", "reset", "ok"])
        try:
            sleeps: list[float] = []
            import repro.serve.client as client_mod
            original = client_mod.time.sleep

            class _Clock:
                def __getattr__(self, name):
                    return getattr(time, name)

                @staticmethod
                def sleep(delay):
                    sleeps.append(delay)
                    original(0)

            client_mod.time, saved = _Clock(), client_mod.time
            try:
                with self._client(server, retries=3,
                                  backoff=0.25) as client:
                    assert client.ping()["status"] == "ok"
            finally:
                client_mod.time = saved
            # retry n sleeps retry_backoff * 2**(n-1): 0.25, 0.5, ...
            assert sleeps == [0.25, 0.5]
        finally:
            server.close()

    def test_zero_retries_returns_draining_response_untouched(self):
        server = _ScriptedServer(["draining"])
        try:
            with self._client(server, retries=0) as client:
                response = client.ping()
            assert response["status"] == "error"
            assert response["error"]["code"] == "draining"
            assert server.connections == 1
        finally:
            server.close()

    def test_zero_retries_raises_fast_on_reset(self):
        server = _ScriptedServer(["reset"])
        try:
            client = self._client(server, retries=0)
            with pytest.raises(ServeClientError,
                               match=r"after 1 attempt\(s\)"):
                client.ping()
            client.abort()
        finally:
            server.close()

    @staticmethod
    def _reset_first_connect(monkeypatch):
        """Fail the next ``create_connection`` once with a reset; record
        every connect attempt and every backoff sleep."""
        import socket
        import types

        import repro.serve.client as client_mod

        connect = socket.create_connection
        attempts: list[tuple] = []
        sleeps: list[float] = []

        def reset_once(*args, **kwargs):
            attempts.append(args)
            if len(attempts) == 1:
                raise ConnectionResetError("reset during connect")
            return connect(*args, **kwargs)

        monkeypatch.setattr(client_mod.socket, "create_connection",
                            reset_once)
        monkeypatch.setattr(client_mod, "time",
                            types.SimpleNamespace(sleep=sleeps.append))
        return attempts, sleeps

    def test_first_connect_retries_on_reset(self, monkeypatch):
        server = _ScriptedServer(["ok"])
        try:
            attempts, sleeps = self._reset_first_connect(monkeypatch)
            with self._client(server, retries=1, backoff=0.25) as client:
                assert client.ping()["status"] == "ok"
            assert len(attempts) == 2
            assert sleeps == [0.25]
            assert server.connections == 1
        finally:
            server.close()

    def test_zero_retries_first_connect_raises_at_once(self, monkeypatch):
        server = _ScriptedServer(["ok"])
        try:
            attempts, sleeps = self._reset_first_connect(monkeypatch)
            with pytest.raises(ServeClientError, match="cannot connect"):
                self._client(server, retries=0, backoff=0.25)
            assert len(attempts) == 1
            assert sleeps == []
        finally:
            server.close()

    def test_exhausted_retries_raise_with_attempt_count(self):
        server = _ScriptedServer(["reset"])
        try:
            client = self._client(server, retries=2)
            with pytest.raises(ServeClientError,
                               match=r"after 3 attempt\(s\)"):
                client.ping()
            client.abort()
            assert server.connections == 3
        finally:
            server.close()

    def test_non_draining_errors_are_not_retried(self):
        server = _ScriptedServer(["other", "ok"])
        try:
            with self._client(server, retries=3) as client:
                response = client.ping()
            assert response["status"] == "error"
            assert response["error"]["code"] == "malformed"
            # No retry happened: one connection, one request.
            assert server.connections == 1
            assert len(server.requests) == 1
        finally:
            server.close()

    def test_retry_against_real_draining_server(self, harness):
        """A client with retries rides out a server drain refusal.

        ``ping`` is answered inline even while draining, so this uses a
        real read submission — the op the refusal actually guards.
        """
        harness.call(lambda: setattr(harness.server, "_draining", True))
        try:
            client = harness.client()
            client.retries = 3
            client.retry_backoff = 0.15

            def undrain():
                time.sleep(0.1)
                harness.call(
                    lambda: setattr(harness.server, "_draining", False))

            helper = threading.Thread(target=undrain)
            helper.start()
            try:
                response = client.basecall("retry-read", SIGNALS[0])
            finally:
                helper.join()
                client.close()
            assert response["status"] == "ok"
            assert response["id"] == "retry-read"
        finally:
            harness.call(
                lambda: setattr(harness.server, "_draining", False))
