"""Tests for ``repro.runtime`` — jobs, cache, executor, telemetry, CLI.

Job targets used by the worker-pool tests live at module level so a
worker process can resolve them by dotted name
(``"tests.test_runtime:..."``).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core import EnhanceConfig, SwordfishConfig
from repro.crossbar import ENV_BACKEND, BackendResolutionError
from repro.runtime import (
    CircuitOpenError,
    Job,
    JsonlSink,
    ResultCache,
    SweepError,
    SweepPlan,
    SweepRunner,
    Telemetry,
    canonical_json,
    job_key,
    resolve_target,
)
from tests.conftest import TINY_CONFIG

FAST_ENHANCE = EnhanceConfig(retrain_epochs=1, online_epochs=1,
                             num_chunks=24)


# ----------------------------------------------------------------------
# Worker-resolvable job targets
# ----------------------------------------------------------------------
def _square(x: int) -> int:
    return x * x


def _echo(x, vmm_backend=None):
    """Sweep job target; the backend kwarg only shapes the cache key."""
    return x


def _simulate(seed: int) -> dict:
    """Deterministic seeded computation (stand-in for a design point)."""
    import numpy as np
    rng = np.random.default_rng(seed)
    values = rng.normal(size=256)
    return {"seed": seed, "mean": float(values.mean()),
            "norm": float(np.linalg.norm(values))}


def _sleepy(seconds: float) -> float:
    time.sleep(seconds)
    return seconds


def _flaky(marker: str):
    """Fails on the first attempt, succeeds once the marker exists."""
    path = Path(marker)
    if path.exists():
        return "recovered"
    path.touch()
    raise RuntimeError("transient failure (first attempt)")


def _suicide() -> None:
    os.kill(os.getpid(), signal.SIGKILL)


def _unpicklable():
    return lambda x: x


def _always_fails(x: int) -> None:
    raise RuntimeError(f"doomed design point {x}")


# ----------------------------------------------------------------------
# Job / plan / target resolution
# ----------------------------------------------------------------------
class TestJob:
    def test_resolve_and_execute(self):
        job = Job(fn="tests.test_runtime:_square", kwargs={"x": 7})
        assert job.resolve() is _square
        assert job.execute() == 49
        assert job.tag == "_square"

    def test_bad_target_specs(self):
        with pytest.raises(ValueError):
            resolve_target("no_colon_here")
        with pytest.raises(AttributeError):
            resolve_target("tests.test_runtime:_missing")
        with pytest.raises(TypeError):
            resolve_target("tests.test_runtime:FAST_ENHANCE")

    def test_plan_from_configs(self):
        configs = [SwordfishConfig(seed=s, model=TINY_CONFIG,
                                   enhance=FAST_ENHANCE) for s in (0, 1)]
        plan = SweepPlan.from_configs("demo", configs, metric="accuracy")
        assert len(plan) == 2
        assert plan.jobs[0].fn == "repro.runtime.job:run_swordfish_config"
        assert plan.jobs[0].kwargs["metric"] == "accuracy"
        # Tags come from the config content hash, so they differ by seed.
        assert plan.jobs[0].tag != plan.jobs[1].tag
        rebuilt = SwordfishConfig.from_dict(plan.jobs[0].kwargs["config"])
        assert rebuilt == configs[0]


class TestConfigSerialization:
    def test_round_trip(self):
        config = SwordfishConfig(
            quantization="FPP 8-8", crossbar_size=256,
            write_variation=0.2, bundle="combined", technique="rsa_kd",
            datasets=("D2", "D3"), reads_per_dataset=4, seed=11,
            model=TINY_CONFIG, enhance=FAST_ENHANCE,
        )
        data = config.to_dict()
        # The payload must survive JSON (the runtime ships it to
        # workers and hashes it for cache keys).
        data = json.loads(json.dumps(data))
        assert SwordfishConfig.from_dict(data) == config

    def test_cache_key_stable_and_sensitive(self):
        a = SwordfishConfig(model=TINY_CONFIG, enhance=FAST_ENHANCE)
        b = SwordfishConfig(model=TINY_CONFIG, enhance=FAST_ENHANCE)
        assert a.cache_key() == b.cache_key()
        c = SwordfishConfig(model=TINY_CONFIG, enhance=FAST_ENHANCE,
                            seed=99)
        assert c.cache_key() != a.cache_key()
        assert a.cache_key().startswith("swordfish_fpp16_16_x64_")

    def test_cache_key_ignores_backend(self):
        assert (SwordfishConfig(vmm_backend="loop").cache_key()
                == SwordfishConfig(vmm_backend="batched").cache_key())


class TestBackendKeys:
    """The two VMM backends are bitwise-identical, so naming one never
    splits the result cache; a garbage name still fails at key time."""

    def _key(self, monkeypatch, env=None, **kwargs):
        if env is None:
            monkeypatch.delenv(ENV_BACKEND, raising=False)
        else:
            monkeypatch.setenv(ENV_BACKEND, env)
        return job_key(Job(fn="tests.test_runtime:_echo", kwargs=kwargs),
                       salt="t")

    def test_exact_backends_share_one_key(self, monkeypatch):
        default = self._key(monkeypatch, x=1)
        assert self._key(monkeypatch, x=1, vmm_backend="loop") == default
        assert self._key(monkeypatch, x=1, vmm_backend="batched") == default
        assert self._key(monkeypatch, env="loop", x=1) == default

    def test_nested_config_backend_is_normalized(self, monkeypatch):
        monkeypatch.delenv(ENV_BACKEND, raising=False)
        base = SwordfishConfig()
        keys = {job_key(Job(fn="f", kwargs={"config": cfg}), salt="t")
                for cfg in (base, replace(base, vmm_backend="loop"),
                            replace(base, vmm_backend="batched"))}
        assert len(keys) == 1

    def test_env_garbage_fails_at_key_time(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND, "garbage")
        with pytest.raises(BackendResolutionError):
            job_key(Job(fn="f", kwargs={"x": 1}), salt="t")

    def test_exact_backend_sweeps_share_entries(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENV_BACKEND, raising=False)
        cache = ResultCache(tmp_path / "cache")

        def run(backend):
            plan = SweepPlan(f"sweep_{backend}", [
                Job(fn="tests.test_runtime:_echo",
                    kwargs={"x": i, "vmm_backend": backend})
                for i in range(4)
            ])
            return SweepRunner(workers=1, cache=cache, salt="t").run(plan)

        assert run("batched").summary["cache_hits"] == 0
        assert run("loop").summary["cache_hits"] == 4


# ----------------------------------------------------------------------
# Cache
# ----------------------------------------------------------------------
class TestResultCache:
    def test_canonical_json_is_order_insensitive(self):
        assert (canonical_json({"b": 1, "a": (1, 2)})
                == canonical_json({"a": [1, 2], "b": 1}))
        assert canonical_json({"e": FAST_ENHANCE}) == canonical_json(
            {"e": dict(FAST_ENHANCE.__dict__)})

    def test_job_key_salt_and_kwargs_sensitivity(self):
        job = Job(fn="tests.test_runtime:_square", kwargs={"x": 1})
        same = Job(fn="tests.test_runtime:_square", kwargs={"x": 1})
        other = Job(fn="tests.test_runtime:_square", kwargs={"x": 2})
        assert job_key(job, "s1") == job_key(same, "s1")
        assert job_key(job, "s1") != job_key(other, "s1")
        assert job_key(job, "s1") != job_key(job, "s2")
        pinned = Job(fn="tests.test_runtime:_square", kwargs={"x": 1},
                     key="explicit")
        assert job_key(pinned, "s1") == "explicit"

    def test_put_get_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ab" + "0" * 62, {"value": [1.5, 2.5]})
        assert ("ab" + "0" * 62) in cache
        assert cache.get("ab" + "0" * 62) == {"value": [1.5, 2.5]}
        assert len(cache) == 1
        assert cache.clear() == 1
        with pytest.raises(KeyError):
            cache.get("ab" + "0" * 62)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cd" + "1" * 62
        cache.put(key, 42)
        cache.path_for(key).write_bytes(b"not a pickle")
        hit, value = cache.lookup(key)
        assert not hit and value is None

    def test_concurrent_same_key_writes_from_two_processes(self, tmp_path):
        """Two processes hammering put()+lookup() on the same key (the
        shared-cache-dir distributed-worker scenario) must never
        produce a miss, a wrong value, or a quarantined entry."""
        key = "ee" + "3" * 62
        script = (
            "import sys\n"
            "from repro.runtime import ResultCache\n"
            "cache = ResultCache(sys.argv[1])\n"
            "value = {'rows': [1.5, 2.5], 'label': 'shared'}\n"
            "for _ in range(60):\n"
            "    cache.put(%r, value)\n"
            "    hit, got = cache.lookup(%r)\n"
            "    assert hit, 'concurrent lookup missed'\n"
            "    assert got == value, got\n"
            "assert cache.quarantined == 0\n" % (key, key))
        env = dict(os.environ)
        repo_root = Path(__file__).resolve().parents[1]
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(repo_root / "src"),
                        env.get("PYTHONPATH", "")) if p)
        procs = [subprocess.Popen([sys.executable, "-c", script,
                                   str(tmp_path)],
                                  env=env, stderr=subprocess.PIPE)
                 for _ in range(2)]
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err.decode()
        cache = ResultCache(tmp_path)
        assert cache.get(key) == {"rows": [1.5, 2.5], "label": "shared"}
        assert cache.quarantined == 0
        assert not list(cache.quarantine_dir.glob("*.bad"))


# ----------------------------------------------------------------------
# Executor: serial, cache hits, retries, failures
# ----------------------------------------------------------------------
def _plan(n: int = 6) -> SweepPlan:
    return SweepPlan("squares", [
        Job(fn="tests.test_runtime:_square", kwargs={"x": i},
            tag=f"sq/{i}") for i in range(n)
    ])


class TestSerialExecution:
    def test_results_keep_plan_order(self):
        result = SweepRunner(workers=1).run(_plan())
        assert result.ok
        assert result.values == [0, 1, 4, 9, 16, 25]
        assert all(o.attempts == 1 and not o.cache_hit
                   for o in result.outcomes)

    def test_second_run_is_all_cache_hits(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        first = SweepRunner(workers=1, cache=cache,
                            salt="t").run(_plan())
        assert first.summary["cache_hits"] == 0
        assert first.summary["cache_misses"] == 6

        log = tmp_path / "run2.jsonl"
        second = SweepRunner(workers=1, cache=cache, salt="t",
                             telemetry_path=log).run(_plan())
        # 100% cache hits on the second run, same values.
        assert second.summary["cache_hits"] == 6
        assert second.summary["cache_misses"] == 0
        assert second.values == first.values
        assert all(o.cache_hit for o in second.outcomes)

        # The telemetry JSONL records every job with cache and timing.
        events = [json.loads(line) for line in log.read_text().splitlines()]
        finishes = [e for e in events if e["event"] == "finish"]
        assert len(finishes) == 6
        for event in finishes:
            assert event["cache"] == "hit"
            assert event["status"] == "ok"
            assert "wall_s" in event and "job" in event and "key" in event
        assert events[-1]["event"] == "summary"
        assert events[-1]["cache_hits"] == 6

    def test_cross_figure_sharing(self, tmp_path):
        """A second plan reusing a first plan's jobs hits its cache."""
        cache = ResultCache(tmp_path)
        SweepRunner(cache=cache, salt="t").run(_plan(4))
        other = SweepPlan("other-figure", [
            Job(fn="tests.test_runtime:_square", kwargs={"x": 2}),
            Job(fn="tests.test_runtime:_square", kwargs={"x": 99}),
        ])
        result = SweepRunner(cache=cache, salt="t").run(other)
        assert result.summary["cache_hits"] == 1
        assert result.summary["cache_misses"] == 1
        assert result.values == [4, 9801]

    def test_retry_then_success(self, tmp_path):
        events = []
        telemetry = Telemetry()
        telemetry.subscribe(events.append)
        job = Job(fn="tests.test_runtime:_flaky",
                  kwargs={"marker": str(tmp_path / "marker")})
        result = SweepRunner(workers=1, retries=2, backoff=0.0,
                             telemetry=telemetry).run(SweepPlan("f", [job]))
        assert result.ok
        assert result.values == ["recovered"]
        assert result.outcomes[0].attempts == 2
        assert [e["event"] for e in events].count("retry") == 1

    def test_failure_after_retries(self):
        job = Job(fn="tests.test_runtime:_missing_target",
                  kwargs={})
        result = SweepRunner(workers=1, retries=1, backoff=0.0).run(
            SweepPlan("f", [job]))
        assert not result.ok
        outcome = result.outcomes[0]
        assert outcome.status == "failed"
        assert outcome.attempts == 2
        assert "AttributeError" in outcome.error
        with pytest.raises(SweepError):
            result.raise_on_failure()

    def test_strict_runner_raises(self):
        runner = SweepRunner(workers=1, retries=0, strict=True)
        with pytest.raises(SweepError):
            runner.run(SweepPlan("f", [
                Job(fn="tests.test_runtime:_missing_target")]))

    def test_failed_jobs_count_toward_neither_cache_bucket(self, tmp_path):
        """Regression: a failed job is not a cache miss (or hit).

        The aggregator used to put every failed finish in the miss
        column, so ``hits + misses`` could exceed the number of jobs
        that produced values.
        """
        plan = SweepPlan("mixed", [
            Job(fn="tests.test_runtime:_square", kwargs={"x": 3}),
            Job(fn="tests.test_runtime:_missing_target", kwargs={}),
        ])
        summary = SweepRunner(workers=1, retries=0,
                              cache=tmp_path / "cache").run(plan).summary
        assert summary["failed"] == 1
        assert summary["cache_hits"] == 0
        assert summary["cache_misses"] == 1  # only the successful job
        assert (summary["cache_hits"] + summary["cache_misses"]
                + summary["failed"]) == summary["jobs"]

    def test_broken_hook_is_dropped_not_fatal(self):
        telemetry = Telemetry()

        def bad_hook(event):
            raise RuntimeError("boom")

        telemetry.subscribe(bad_hook)
        result = SweepRunner(workers=1, telemetry=telemetry).run(_plan(2))
        assert result.ok
        assert telemetry.hook_errors


# ----------------------------------------------------------------------
# Executor: worker pool
# ----------------------------------------------------------------------
class TestParallelExecution:
    def test_parallel_matches_serial_on_grid(self):
        """A 4-worker run of an 8-job grid equals the serial path."""
        jobs = [Job(fn="tests.test_runtime:_simulate",
                    kwargs={"seed": seed}, tag=f"sim/{seed}")
                for seed in range(8)]
        serial = SweepRunner(workers=1).run(SweepPlan("serial", jobs))
        parallel = SweepRunner(workers=4, retries=1).run(
            SweepPlan("parallel", jobs))
        assert parallel.ok
        assert parallel.values == serial.values  # bitwise-equal floats

    def test_parallel_cache_hits_second_run(self, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = [Job(fn="tests.test_runtime:_simulate",
                    kwargs={"seed": s}) for s in range(8)]
        first = SweepRunner(workers=4, cache=cache, salt="t").run(
            SweepPlan("p1", jobs))
        second = SweepRunner(workers=4, cache=cache, salt="t").run(
            SweepPlan("p2", jobs))
        assert second.summary["cache_hits"] == 8
        assert second.values == first.values

    def test_timeout_kills_worker_and_fails_job(self):
        jobs = [Job(fn="tests.test_runtime:_sleepy",
                    kwargs={"seconds": 30.0}, tag="sleeper"),
                Job(fn="tests.test_runtime:_square", kwargs={"x": 3})]
        runner = SweepRunner(workers=2, timeout=1.0, retries=1,
                             backoff=0.0)
        started = time.monotonic()
        result = runner.run(SweepPlan("t", jobs))
        elapsed = time.monotonic() - started
        assert elapsed < 20.0  # both attempts killed, not slept out
        sleeper, square = result.outcomes
        assert sleeper.status == "failed"
        assert sleeper.attempts == 2
        assert "timeout" in sleeper.error
        assert square.ok and square.value == 9
        assert result.summary["timeouts"] >= 1

    def test_worker_crash_is_retried_then_failed(self):
        job = Job(fn="tests.test_runtime:_suicide", kwargs={},
                  tag="crasher")
        result = SweepRunner(workers=2, retries=1, backoff=0.0).run(
            SweepPlan("c", [job]))
        outcome = result.outcomes[0]
        assert outcome.status == "failed"
        assert outcome.attempts == 2
        assert "worker died" in outcome.error
        assert result.summary["retries"] == 1

    def test_unpicklable_result_is_an_error_not_a_hang(self):
        job = Job(fn="tests.test_runtime:_unpicklable", kwargs={})
        result = SweepRunner(workers=2, retries=0).run(SweepPlan("u", [job]))
        assert result.outcomes[0].status == "failed"

    def test_fallback_to_serial_when_pool_unavailable(self, monkeypatch):
        import repro.runtime.executor as executor

        def broken_pool(self, plan, count):
            self.telemetry.emit("fallback", plan=plan.name,
                                reason="forced by test")
            return None

        monkeypatch.setattr(executor.SweepRunner, "_start_pool",
                            broken_pool)
        events = []
        telemetry = Telemetry()
        telemetry.subscribe(events.append)
        result = SweepRunner(workers=4, telemetry=telemetry).run(_plan(3))
        assert result.ok
        assert result.values == [0, 1, 4]
        assert any(e["event"] == "fallback" for e in events)


# ----------------------------------------------------------------------
# Determinism across process boundaries
# ----------------------------------------------------------------------
class TestProcessDeterminism:
    def test_subprocess_matches_in_process(self, tiny_trained, monkeypatch):
        """The same seeded config is bitwise-identical in a worker."""
        import repro.core.framework as fw
        from repro.basecaller import BonitoModel

        def fake_default_model(config=None):
            clone = BonitoModel(TINY_CONFIG)
            clone.load_state_dict(tiny_trained.state_dict())
            clone.eval()
            return clone

        monkeypatch.setattr(fw, "default_model", fake_default_model)

        config = SwordfishConfig(
            technique="none", bundle="write_only", datasets=("D1",),
            reads_per_dataset=2, seed=5, model=TINY_CONFIG,
            enhance=FAST_ENHANCE,
        )
        plan = SweepPlan.from_configs("determinism", [config],
                                      metric="accuracy")
        in_process = SweepRunner(workers=1).run(plan)
        subprocess = SweepRunner(workers=2, retries=0).run(plan)
        assert in_process.ok and subprocess.ok
        # Bitwise-identical accuracy metrics across the process boundary.
        assert subprocess.values[0] == in_process.values[0]


# ----------------------------------------------------------------------
# Figure integration + CLI
# ----------------------------------------------------------------------
class TestFigureIntegration:
    def test_figure_grid_through_cache(self, tmp_path):
        """fig14's grid through the runtime: second run = 100% hits."""
        from repro.experiments import fig14_throughput

        cache = ResultCache(tmp_path)
        first = fig14_throughput.run(
            datasets=("D1",),
            runner=SweepRunner(cache=cache, salt="t"))
        log = tmp_path / "events.jsonl"
        second = fig14_throughput.run(
            datasets=("D1",),
            runner=SweepRunner(cache=cache, salt="t",
                               telemetry_path=log))
        assert second.rows == first.rows
        events = [json.loads(line)
                  for line in log.read_text().splitlines()]
        finishes = [e for e in events if e["event"] == "finish"]
        assert finishes and all(e["cache"] == "hit" for e in finishes)

    def test_registry_covers_every_figure(self):
        from repro.runtime import FIGURES
        assert set(FIGURES) == {"fig01", "tab03", "fig07", "fig08",
                                "fig09", "fig10", "fig11", "fig12",
                                "fig13", "fig14", "fig15"}

    def test_cli_list_and_cache(self, tmp_path, capsys):
        from repro.runtime.cli import main
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig08" in out and "fig14" in out

        ResultCache(tmp_path).put("ef" + "2" * 62, 1)
        assert main(["cache", "--cache-dir", str(tmp_path)]) == 0
        assert "1 cached results" in capsys.readouterr().out
        assert main(["cache", "--cache-dir", str(tmp_path),
                     "--clear"]) == 0
        assert "cleared 1" in capsys.readouterr().out

    def test_cli_run_fig14(self, tmp_path, capsys):
        from repro.runtime.cli import main
        code = main(["run", "fig14",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--telemetry", str(tmp_path / "run.jsonl"),
                     "--save", str(tmp_path / "results")])
        assert code == 0
        out = capsys.readouterr().out
        assert "Fig. 14" in out
        saved = tmp_path / "results" / "fig14_throughput.json"
        assert saved.exists()
        record = json.loads(saved.read_text())
        assert record["experiment_id"] == "fig14_throughput"
        assert (tmp_path / "run.jsonl").exists()


# ----------------------------------------------------------------------
# Circuit breaker: abort a doomed grid early
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def _doomed_plan(self, n: int, good: int = 0) -> SweepPlan:
        jobs = [Job(fn="tests.test_runtime:_square", kwargs={"x": i},
                    tag=f"sq/{i}") for i in range(good)]
        jobs += [Job(fn="tests.test_runtime:_always_fails",
                     kwargs={"x": i}, tag=f"doom/{i}")
                 for i in range(n - good)]
        return SweepPlan("doomed", jobs)

    def test_trips_with_structured_summary(self):
        events = []
        telemetry = Telemetry()
        telemetry.subscribe(events.append)
        runner = SweepRunner(retries=0, max_failure_rate=0.5,
                             telemetry=telemetry)
        with pytest.raises(CircuitOpenError) as excinfo:
            runner.run(self._doomed_plan(10))
        summary = excinfo.value.summary
        assert summary["plan"] == "doomed"
        assert summary["executed_failed"] == 3  # tripped at the floor
        assert summary["failure_rate"] > 0.5
        assert summary["max_failure_rate"] == 0.5
        assert summary["first_errors"][0]["error_type"] == "RuntimeError"
        assert any(e["event"] == "circuit_open" for e in events)

    def test_is_a_sweep_error(self):
        runner = SweepRunner(retries=0, max_failure_rate=0.1)
        with pytest.raises(SweepError):
            runner.run(self._doomed_plan(4))

    def test_never_trips_below_minimum_failures(self):
        """A 100% failure rate on 2 jobs stays below the 3-failure
        floor — a barely-started grid is never aborted."""
        runner = SweepRunner(retries=0, max_failure_rate=0.01)
        result = runner.run(self._doomed_plan(2))
        assert all(o.status == "failed" for o in result.outcomes)

    def test_healthy_rate_never_trips(self):
        runner = SweepRunner(retries=0, max_failure_rate=0.9)
        result = runner.run(self._doomed_plan(8, good=4))
        assert sum(o.status == "failed" for o in result.outcomes) == 4

    def test_cache_hits_do_not_dilute_the_rate(self, tmp_path):
        """9 cache hits + 3 executed failures is a 100% *executed*
        failure rate — the breaker must still trip."""
        cache = ResultCache(tmp_path)
        SweepRunner(cache=cache, salt="cb").run(
            SweepPlan("warm", [Job(fn="tests.test_runtime:_square",
                                   kwargs={"x": i}, tag=f"sq/{i}")
                               for i in range(9)]))
        plan = SweepPlan("mixed", [
            Job(fn="tests.test_runtime:_square", kwargs={"x": i},
                tag=f"sq/{i}") for i in range(9)
        ] + [Job(fn="tests.test_runtime:_always_fails", kwargs={"x": i},
                 tag=f"doom/{i}") for i in range(3)])
        runner = SweepRunner(cache=cache, salt="cb", retries=0,
                             max_failure_rate=0.5)
        with pytest.raises(CircuitOpenError) as excinfo:
            runner.run(plan)
        assert excinfo.value.summary["executed"] == 3
        assert excinfo.value.summary["failure_rate"] == 1.0

    def test_breaker_works_in_parallel_mode(self):
        runner = SweepRunner(workers=2, retries=0, max_failure_rate=0.5)
        with pytest.raises(CircuitOpenError):
            runner.run(self._doomed_plan(10))

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError, match="max_failure_rate"):
            SweepRunner(max_failure_rate=0.0)
        with pytest.raises(ValueError, match="max_failure_rate"):
            SweepRunner(max_failure_rate=1.5)

    def test_worker_attribution_on_outcomes(self):
        serial = SweepRunner(workers=1).run(self._doomed_plan(2, good=2))
        assert all(o.worker == "in-process" for o in serial.outcomes)
        parallel = SweepRunner(workers=2).run(self._doomed_plan(4, good=4))
        assert all(o.worker and o.worker.startswith("pid:")
                   for o in parallel.outcomes)
