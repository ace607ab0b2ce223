"""The three benchmark workloads.

``sweep_fig08`` and ``offline_256_combined`` run in this process, as a
cycle of fixed blocks of reads: block ``k`` always holds the same reads
and gives the same outputs, so blocks are run again until the run has
lasted ``--seconds``.  ``serve_open_64`` drives a ``python -m
repro.serve`` process with an open-loop arrival schedule.
"""

from __future__ import annotations

import contextlib
import os
import selectors
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro.basecaller.decode as decode
import repro.basecaller.evaluate as evaluate
import repro.core as core
import repro.experiments.fig08_nonidealities as fig08
from repro.basecaller import (BonitoConfig, BonitoModel, default_model,
                              evaluate_accuracy)
from repro.core import get_bundle
from repro.experiments.common import DATASETS
from repro.genomics import read_accuracy
from repro.nn import QuantizedModel, get_quant_config, load_checkpoint
from repro.observability import ENV_TRACE, trace_span
from repro.reliability import DivergenceError
from repro.runtime import SweepError, SweepRunner
from repro.serve import ServeClient, ServeClientError

from layers import (ROOT_SPAN, LayerWraps, layer_metrics, load_events,
                    parse_prometheus, patched, serve_metrics, tracing)
from support import (CheckFailed, bases, codes, digest, held_out_reads,
                     peak_rss_mb, quantile, require)

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3

#: Identity floor for the undeployed baseline on the sweep's reads.
BASELINE_FLOOR_PCT = 80.0

#: Latency charged to a read that failed or never came back, in ms; it
#: misses every latency limit.
FAILED_LATENCY_MS = 60_000.0

#: Seed of the order in which the served workload sends its length
#: ranks (see ``_schedule``).
ARRIVAL_TRACE_SEED = 20231028


@dataclass
class Outcome:
    """One workload run: metrics plus operations attempted and failed."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    notes: list[str] = field(default_factory=list)


def timed(owner: object, attr: str, sink: list):
    """Append ``(seconds, result)`` of every call of ``owner.attr``."""
    def make(original):
        def wrapped(*args, **kwargs):
            started = time.perf_counter()
            result = original(*args, **kwargs)
            sink.append((time.perf_counter() - started, result))
            return result
        return wrapped
    return patched(owner, attr, make)


def latency_metrics(latencies_s: list[float]) -> dict[str, float]:
    return {"read_latency_p50_ms": quantile(latencies_s, 0.50) * 1e3,
            "read_latency_p95_ms": quantile(latencies_s, 0.95) * 1e3}


def identity_pct(reads: list, called: dict[str, str]) -> float:
    """Mean identity of the called reads against their ground truth."""
    return 100.0 * float(np.mean([read_accuracy(codes(called[r.read_id]),
                                                r.bases)
                                  for r in reads if r.read_id in called]))


def reversed_calls(original):
    """A basecaller whose output is corrupted (for the self-test)."""
    return lambda *args, **kwargs: original(*args, **kwargs)[::-1]


def spoil(outputs: dict[str, str]) -> None:
    """Corrupt one output in place (for the self-test)."""
    key = min(outputs)
    outputs[key] = outputs[key][::-1] + "A"


# ----------------------------------------------------------------------
# In-process workloads: a cycle of fixed blocks
# ----------------------------------------------------------------------
@dataclass
class Block:
    """One block's outputs (``{key: called bases or result row}``)."""

    outputs: dict[str, str]
    reads: int
    latencies_s: list[float]
    attempted: int
    failed: int


class BlockWorkload:
    """Measure and trace loops shared by the in-process workloads."""

    def __init__(self, seed: int, per_dataset: int, blocks: int,
                 corrupt: str | None = None):
        self.seed = seed
        self.per_dataset = per_dataset
        self.blocks = blocks
        self.corrupt = corrupt

    def setup(self) -> None:
        raise NotImplementedError

    def run_block(self, index: int) -> Block:
        raise NotImplementedError

    def accuracy_pct(self, outputs: list[dict[str, str]]) -> float:
        raise NotImplementedError

    def check(self) -> None:
        """Output checks that run after the timed region."""

    def deployments(self) -> list:
        """Models the set-up deployed, which the traced run reuses."""
        return []

    def measure(self, seconds: float) -> Outcome:
        self.setup()
        rates, latencies, first = [], [], {}
        outcome = Outcome({}, 0, 0)
        started = time.perf_counter()
        k = 0
        while k < self.blocks or time.perf_counter() - started < seconds:
            index = k % self.blocks
            t0 = time.perf_counter()
            block = self.run_block(index)
            rates.append(block.reads / (time.perf_counter() - t0))
            latencies += block.latencies_s
            outcome.attempted += block.attempted
            outcome.failed += block.failed
            if index in first:
                require(digest(block.outputs) == digest(first[index]),
                        f"block {index} gave different outputs when rerun")
            else:
                first[index] = block.outputs
            k += 1
        self.check()
        outcome.metrics = {
            "reads_per_s": statistics.median(rates),
            **latency_metrics(latencies),
            "accuracy_pct": self.accuracy_pct(
                [first[i] for i in range(self.blocks)]),
            "peak_rss_mb": peak_rss_mb(),
        }
        outcome.notes.append(
            f"{k} blocks; {len(latencies)} read latencies; reads/s per block "
            f"{[round(r, 2) for r in rates]}")
        return outcome

    def trace(self, trace_path: Path) -> Outcome:
        """Untraced, then traced, runs of block 0: compared and attributed."""
        self.setup()
        self.run_block(0)  # warm-up: workspaces, allocator, caches
        t0 = time.perf_counter()
        untraced = self.run_block(0)
        untraced_s = time.perf_counter() - t0
        with tracing(trace_path), LayerWraps() as wraps:
            for deployed in self.deployments():
                wraps.wrap_banks(deployed)
            t0 = time.perf_counter()
            with trace_span(ROOT_SPAN):
                traced = self.run_block(0)
            traced_s = time.perf_counter() - t0
        if self.corrupt == "traced_untraced":
            spoil(traced.outputs)
        require(digest(traced.outputs) == digest(untraced.outputs),
                "the traced run gave different outputs than the untraced run")
        self.check()
        metrics = layer_metrics(load_events(trace_path))
        metrics.update(serve_metrics({}, {}))  # no server: all zero
        metrics["observability.trace_overhead"] = traced_s / untraced_s
        return Outcome(metrics, traced.attempted, traced.failed)


class _RecordingRunner(SweepRunner):
    """Serial, uncached runner that keeps the last ``SweepResult``."""

    result = None

    def run(self, plan):
        self.result = super().run(plan)
        return self.result


class SweepFig08(BlockWorkload):
    """The Fig. 8 grid through ``fig08_nonidealities.run``: 4 datasets ×
    5 bundles at 64×64 and 10% write variation, one run per cell."""

    def setup(self) -> None:
        default_model()  # loads the weights into the registry
        n = self.per_dataset
        self.block_reads = []
        for k in range(self.blocks):
            reads = held_out_reads(self.seed, k, DATASETS, n)
            self.block_reads.append({name: reads[i * n:(i + 1) * n]
                                     for i, name in enumerate(DATASETS)})
        self.failed_jobs = 0

    def run_block(self, index: int) -> Block:
        reads = self.block_reads[index]
        runner = _RecordingRunner(workers=1, retries=0)
        latencies: list = []
        rows = []
        with timed(evaluate, "basecall_read", latencies), \
                patched(fig08, "evaluation_reads",
                        lambda _: lambda name, num_reads: reads[name]):
            try:
                rows = fig08.run(crossbar_size=64, write_variation=0.10,
                                 num_reads=self.per_dataset, num_runs=1,
                                 runner=runner).rows
            except SweepError:
                pass  # counted below from the runner's outcomes
        outcomes = runner.result.outcomes
        failed = sum(not o.ok for o in outcomes)
        if self.corrupt == "sweep_jobs":
            failed += 1
        self.failed_jobs += failed
        return Block(outputs={f"{r['dataset']}/{r['bundle']}":
                              repr(r["accuracy"]) for r in rows},
                     reads=len(latencies),
                     latencies_s=[s for s, _ in latencies],
                     attempted=len(outcomes), failed=failed)

    def accuracy_pct(self, outputs: list[dict[str, str]]) -> float:
        return float(np.mean([float(v) for block in outputs
                              for v in block.values()]))

    def check(self) -> None:
        require(self.failed_jobs == 0,
                f"{self.failed_jobs} sweep job(s) were not ok")
        reads = [r for block in self.block_reads
                 for group in block.values() for r in group]
        corrupt = self.corrupt == "baseline_floor"
        with (patched(evaluate, "basecall_read", reversed_calls) if corrupt
              else contextlib.nullcontext()):
            identity = evaluate_accuracy(default_model(), reads).mean_percent
        require(identity >= BASELINE_FLOOR_PCT,
                f"undeployed baseline identity {identity:.2f}% is below "
                f"the {BASELINE_FLOOR_PCT}% floor")


class Offline256Combined(BlockWorkload):
    """``basecall_reads`` over held-out D3+D4 reads on the ``combined``
    bundle at 256×256.  Every block starts from the deployment's RNG
    epoch, so a block always gives the same bases."""

    def setup(self) -> None:
        self.model = default_model()
        QuantizedModel(self.model, get_quant_config("FPP 16-16"))
        self.block_reads = [held_out_reads(self.seed, k, ("D3", "D4"),
                                           self.per_dataset)
                            for k in range(self.blocks)]
        self.deployed = core.deploy(self.model, get_bundle("combined"),
                                    crossbar_size=256, write_variation=0.10,
                                    seed=7000)
        self.epoch = self.deployed.rng_snapshot()

    def deployments(self) -> list:
        return [self.deployed]

    def run_block(self, index: int) -> Block:
        reads = self.block_reads[index]
        self.deployed.rng_restore(self.epoch)
        groups: list = []
        try:
            with timed(decode, "basecall_signals", groups):
                calls = decode.basecall_reads(self.model, reads)
        except DivergenceError:
            return Block({}, 0, [], len(reads), len(reads))
        return Block(outputs={r.read_id: bases(c)
                              for r, c in zip(reads, calls)},
                     reads=len(reads),
                     latencies_s=[s for s, stack in groups for _ in stack],
                     attempted=len(reads), failed=0)

    def accuracy_pct(self, outputs: list[dict[str, str]]) -> float:
        called = {k: v for block in outputs for k, v in block.items()}
        return identity_pct([r for reads in self.block_reads for r in reads],
                            called)


# ----------------------------------------------------------------------
# Served workload
# ----------------------------------------------------------------------
#: Server worker threads.  The server's default is 2, but on a 2-core
#: machine two workers contend for the interpreter lock: each read's
#: compute took 40% longer and its p95 varied 20-30% from run to run,
#: against 8% with one worker.
SERVE_WORKERS = 1


class ServerProcess:
    """A ``python -m repro.serve`` process on the baseline checkpoint,
    at the server's default design point (``write_only``, 64×64)."""

    def __init__(self, root: Path, checkpoint: Path,
                 trace_path: Path | None = None):
        config = BonitoConfig()
        args = ["--checkpoint", str(checkpoint),
                "--conv-channels", ",".join(map(str, config.conv_channels)),
                "--lstm-hidden", str(config.lstm_hidden),
                "--num-lstm-layers", str(config.num_lstm_layers),
                "--model-seed", str(config.seed),
                "--workers", str(SERVE_WORKERS),
                "--port", "0", "--request-timeout", "30"]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        if trace_path is None:
            cmd = [sys.executable, "-m", "repro.serve", *args]
        else:
            env[ENV_TRACE] = str(trace_path)
            cmd = [sys.executable,
                   str(Path(__file__).with_name("serve_traced.py")), *args]
        started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                                     text=True)
        try:
            self.port = self._wait_listening(started + 120)
        except BaseException:
            self.stop()
            raise
        self.start_s = time.perf_counter() - started

    def _wait_listening(self, deadline: float) -> int:
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            while (left := deadline - time.perf_counter()) > 0:
                if not selector.select(timeout=left):
                    break
                line = self.proc.stdout.readline()
                if not line:
                    break
                if " listening on " in line:
                    address = line.split(" listening on ")[1].split()[0]
                    return int(address.rsplit(":", 1)[1])
        raise RuntimeError("repro.serve did not report listening")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM line in /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class ServeOpen64:
    """Open-loop arrivals at a fixed rate against ``repro.serve``."""

    CONNECTIONS = 2
    SAMPLE = 4      # served reads re-basecalled offline (served ≡ offline)
    WARM_UP = 4     # unmeasured reads before the schedule starts

    def __init__(self, root: Path, checkpoint: Path, seed: int,
                 per_dataset: int, rate: float, replay: int,
                 corrupt: str | None = None):
        self.root = root
        self.checkpoint = checkpoint
        self.rate = rate
        self.replay = replay
        self.corrupt = corrupt
        self.reads = held_out_reads(seed, 0, ("D1", "D2"), per_dataset)

    def _schedule(self, seconds: float) -> tuple[list[float], list[int]]:
        """Arrival offsets and the pool index sent at each.

        Arrivals come at a constant rate, ``rate × seconds`` of them,
        each naming a length rank in the pool, in shuffled rounds over
        the ranks.  The shuffle is drawn from a constant seed; ``seed``
        decides which read holds each rank, and the length quantiles,
        and so the work each arrival brings, are the same for every
        seed.  With Poisson arrivals the p95 latency spread 17-29%
        across seeds: the tail was the few reads that met a burst, and
        whether two of them shared a server batch turned on a few
        milliseconds.  At a constant rate, queueing comes from long
        reads alone.
        """
        count = max(int(round(self.rate * seconds)), 1)
        shuffle = np.random.default_rng(ARRIVAL_TRACE_SEED)
        rounds = -(-count // len(self.reads))
        ranks = np.concatenate([shuffle.permutation(len(self.reads))
                                for _ in range(rounds)])[:count]
        by_length = np.argsort([r.signal.size for r in self.reads],
                               kind="stable")
        due = (np.arange(count) + 0.5) / self.rate
        return due.tolist(), by_length[ranks].tolist()

    def _open_loop(self, port: int, seconds: float) -> dict:
        """One sender on the schedule; one receiver per connection."""
        due, picks = self._schedule(seconds)
        n = len(due)
        done: list = [None] * n   # (receive time, response)
        sent = [0.0] * n
        clients = [ServeClient("127.0.0.1", port, timeout=45)
                   for _ in range(self.CONNECTIONS)]

        def receive(conn: int) -> None:
            for i in range(conn, n, self.CONNECTIONS):
                try:
                    response = clients[conn].recv()
                except ServeClientError:
                    return
                done[i] = (time.perf_counter(), response)

        receivers = [threading.Thread(target=receive, args=(c,))
                     for c in range(self.CONNECTIONS)]
        for thread in receivers:
            thread.start()
        start = time.perf_counter() + 0.05
        try:
            for i in range(n):
                wait = start + due[i] - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                sent[i] = time.perf_counter()
                try:
                    clients[i % self.CONNECTIONS].submit(
                        f"r{i}", self.reads[picks[i]].signal)
                except ServeClientError:
                    break  # the reads never sent count as failed
            deadline = time.perf_counter() + 45
            for thread in receivers:
                thread.join(timeout=max(deadline - time.perf_counter(), 0))
        finally:
            for client in clients:
                client.close()
            for thread in receivers:
                thread.join()

        latencies, served, failed = [], {}, 0
        for i, entry in enumerate(done):
            if (entry is None or entry[1].get("status") != "ok"
                    or entry[1].get("id") != f"r{i}"):
                failed += 1
                latencies.append(FAILED_LATENCY_MS / 1e3)
                continue
            latencies.append(entry[0] - (start + due[i]))
            read_id = self.reads[picks[i]].read_id
            if served.setdefault(read_id, entry[1]["bases"]) \
                    != entry[1]["bases"]:
                raise CheckFailed(f"read {read_id} was served two "
                                  f"different basecalls")
        finished = [entry[0] for entry in done if entry is not None]
        wall = (max(finished) if finished else time.perf_counter()) - start
        late_ms = [(sent[i] - (start + due[i])) * 1e3
                   for i in range(n) if sent[i]] or [0.0]
        return {"attempted": n, "failed": failed, "latencies": latencies,
                "served": served, "reads_per_s": (n - failed) / wall,
                "late_p50_ms": quantile(late_ms, 0.5),
                "late_max_ms": max(late_ms)}

    def _replay(self, port: int) -> tuple[float, dict[str, str]]:
        """Closed loop: one read at a time over one connection."""
        outputs, wall = {}, 0.0
        with ServeClient("127.0.0.1", port, timeout=45) as client:
            for read in self.reads[:self.replay]:
                started = time.perf_counter()
                response = client.basecall(read.read_id, read.signal)
                wall += time.perf_counter() - started
                require(response.get("status") == "ok",
                        f"replayed read {read.read_id} failed: {response}")
                outputs[read.read_id] = response["bases"]
        return wall, outputs

    def _warm_up(self, port: int) -> None:
        with ServeClient("127.0.0.1", port, timeout=45) as client:
            for read in self.reads[:self.WARM_UP]:
                client.basecall("warm-up", read.signal)

    def _check_served_offline(self, served: dict[str, str]) -> None:
        """Served reads must equal ``basecall_signal`` on a fresh deploy."""
        by_id = {r.read_id: r for r in self.reads}
        config = BonitoConfig()
        for read_id in sorted(served)[:self.SAMPLE]:
            model = BonitoModel(config)
            load_checkpoint(model, self.checkpoint)
            model.eval()
            core.deploy(model, get_bundle("write_only"), crossbar_size=64,
                        write_variation=0.10, seed=0)
            call = decode.basecall_signal
            if self.corrupt == "served_offline":
                call = reversed_calls(call)
            offline = bases(call(model, by_id[read_id].signal))
            require(offline == served[read_id],
                    f"served basecall of {read_id} differs from offline "
                    f"basecall_signal on a fresh deploy")

    def measure(self, seconds: float) -> Outcome:
        setups, server = [], None
        try:
            for _ in range(SETUP_REPS):
                if server is not None:
                    server.stop()
                server = ServerProcess(self.root, self.checkpoint)
                setups.append(server.start_s)
            self._warm_up(server.port)
            run = self._open_loop(server.port, seconds)
            rss = server.peak_rss_mb()
        finally:
            if server is not None:
                server.stop()
        self._check_served_offline(run["served"])
        metrics = {
            "setup_s": statistics.median(setups),
            "reads_per_s": run["reads_per_s"],
            **latency_metrics(run["latencies"]),
            "accuracy_pct": identity_pct(self.reads, run["served"]),
            "peak_rss_mb": rss,
        }
        notes = [f"{run['attempted']} reads at {self.rate}/s over "
                 f"{self.CONNECTIONS} connections; generator late p50 "
                 f"{run['late_p50_ms']:.2f} ms, max "
                 f"{run['late_max_ms']:.2f} ms; setups "
                 f"{[round(s, 3) for s in setups]} s"]
        return Outcome(metrics, run["attempted"], run["failed"], notes)

    def trace(self, trace_path: Path, seconds: float) -> Outcome:
        """Untraced open loop for the ``serve.*`` scrape, then the same
        reads replayed on an untraced and on a traced server."""
        server = ServerProcess(self.root, self.checkpoint)
        try:
            self._warm_up(server.port)
            with ServeClient("127.0.0.1", server.port) as client:
                before = parse_prometheus(client.metrics())
                run = self._open_loop(server.port, seconds)
                after = parse_prometheus(client.metrics())
            untraced_s, untraced = self._replay(server.port)
        finally:
            server.stop()
        server = ServerProcess(self.root, self.checkpoint, trace_path)
        try:
            traced_s, traced = self._replay(server.port)
        finally:
            server.stop()
        events = load_events(trace_path)
        if self.corrupt == "traced_untraced":
            spoil(traced)
        require(digest(traced) == digest(untraced),
                "the traced server gave different outputs than the "
                "untraced one")
        self._check_served_offline(run["served"])
        metrics = layer_metrics(events)
        metrics.update(serve_metrics(before, after))
        # Replayed requests are sequential, so the server's batch spans
        # never overlap: what they leave of the client's wall is the
        # protocol, event loop and hand-off no layer span covers.
        batch_s = sum(e["dur_s"] for e in events if e["name"] == "serve.batch")
        metrics["observability.unattributed_share"] = 1.0 - batch_s / traced_s
        metrics["observability.trace_overhead"] = traced_s / untraced_s
        return Outcome(metrics, run["attempted"] + 2 * self.replay,
                       run["failed"])
