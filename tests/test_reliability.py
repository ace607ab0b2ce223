"""Tests for ``repro.reliability`` and training checkpoint/resume.

The two load-bearing properties here are *bitwise* ones: a training run
killed at an epoch boundary or mid-epoch and resumed from its
checkpoint must finish byte-for-byte identical to an uninterrupted run
(same weights, same loss history), including under a VAT perturb hook
with its own RNG stream.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.basecaller import BonitoModel, TrainConfig, train_model
from repro.core.enhance import _make_perturb, _stage_checkpoint
from repro.reliability import (
    DivergenceError,
    HealthMonitor,
    HealthPolicy,
    JournalError,
    RunJournal,
    default_monitor,
    plan_fingerprint,
)
from tests.conftest import TINY_CONFIG

FAST_TRAIN = TrainConfig(epochs=3, batch_size=16, lr=8e-3, warmup_steps=4)


def _states_equal(a: dict, b: dict) -> bool:
    return set(a) == set(b) and all(np.array_equal(a[k], b[k]) for k in a)


# ----------------------------------------------------------------------
# Optimizer / schedule state dicts
# ----------------------------------------------------------------------
def _toy_params(seed: int = 3) -> list[nn.Parameter]:
    rng = np.random.default_rng(seed)
    return [nn.Parameter(rng.normal(size=(4, 3))),
            nn.Parameter(rng.normal(size=(3,)))]


def _descend(optimizer, params, steps: int) -> None:
    """Deterministic gradient stream: grad = 2 * current weights."""
    for _ in range(steps):
        for p in params:
            p.grad = 2.0 * p.data
        optimizer.step()


@pytest.mark.parametrize("factory", [
    lambda ps: nn.Adam(ps, lr=1e-2),
    lambda ps: nn.SGD(ps, lr=1e-2, momentum=0.9),
])
def test_optimizer_restore_continues_bitwise(factory):
    ref_params = _toy_params()
    ref_opt = factory(ref_params)
    _descend(ref_opt, ref_params, 10)

    # Same trajectory, but snapshotted after 4 steps and resumed into
    # a *fresh* optimizer over fresh parameter objects.
    half_params = _toy_params()
    half_opt = factory(half_params)
    _descend(half_opt, half_params, 4)
    snapshot = half_opt.state_dict()
    weights = [p.data.copy() for p in half_params]

    resumed_params = _toy_params()
    for p, w in zip(resumed_params, weights):
        p.data = w.copy()
    resumed_opt = factory(resumed_params)
    resumed_opt.load_state_dict(snapshot)
    _descend(resumed_opt, resumed_params, 6)

    for ref, res in zip(ref_params, resumed_params):
        assert np.array_equal(ref.data, res.data)


def test_optimizer_state_validation():
    params = _toy_params()
    opt = nn.Adam(params, lr=1e-2)
    good = opt.state_dict()
    with pytest.raises(ValueError, match="buffers"):
        opt.load_state_dict({**good, "m": good["m"][:1]})
    with pytest.raises(ValueError, match="shape mismatch"):
        opt.load_state_dict({**good, "v": [np.zeros((2, 2)),
                                           good["v"][1]]})


def test_schedule_restore_continues_bitwise():
    def build():
        params = _toy_params()
        opt = nn.Adam(params, lr=6e-3)
        return opt, nn.LinearWarmup(
            opt, 5, after=nn.CosineSchedule(opt, 20, lr_min=3e-4))

    ref_opt, ref_sched = build()
    reference = [ref_sched.step() for _ in range(15)]

    half_opt, half_sched = build()
    for _ in range(7):
        half_sched.step()
    opt_state, sched_state = half_opt.state_dict(), half_sched.state_dict()
    assert sched_state["after"]["step_count"] == 2

    res_opt, res_sched = build()
    res_opt.load_state_dict(opt_state)
    res_sched.load_state_dict(sched_state)
    resumed = [res_sched.step() for _ in range(8)]
    assert resumed == reference[7:]


# ----------------------------------------------------------------------
# Full training-state checkpoints
# ----------------------------------------------------------------------
class TestTrainingState:
    def _build(self):
        model = BonitoModel(TINY_CONFIG)
        optimizer = nn.Adam(model.parameters(), lr=5e-3)
        schedule = nn.CosineSchedule(optimizer, 40)
        rng = np.random.default_rng(77)
        return model, optimizer, schedule, rng

    def test_round_trip(self, tmp_path):
        model, optimizer, schedule, rng = self._build()
        rng.normal(size=8)           # advance the stream
        schedule.step()
        path = tmp_path / "run.ckpt"
        nn.save_training_state(path, model=model, optimizer=optimizer,
                               schedule=schedule, rng=rng, epoch=4,
                               extra={"epoch_losses": [1.0, 0.5]})
        assert not list(tmp_path.glob("*.tmp.*"))  # atomic, no debris

        other_model, other_opt, other_sched, other_rng = self._build()
        state = nn.load_training_state(path, model=other_model,
                                       optimizer=other_opt,
                                       schedule=other_sched, rng=other_rng)
        assert state["epoch"] == 4
        assert state["extra"]["epoch_losses"] == [1.0, 0.5]
        assert _states_equal(other_model.state_dict(), model.state_dict())
        assert other_sched.step_count == schedule.step_count
        # Both generators now continue on the identical stream.
        assert np.array_equal(other_rng.normal(size=4), rng.normal(size=4))

    def test_missing_and_corrupt_raise(self, tmp_path):
        model, optimizer, schedule, rng = self._build()
        path = tmp_path / "run.ckpt"
        with pytest.raises(nn.CheckpointError, match="no checkpoint"):
            nn.load_training_state(path)
        nn.save_training_state(path, model=model, epoch=0)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(nn.CheckpointError):
            nn.load_training_state(path)

    def test_foreign_pickle_raises(self, tmp_path):
        path = tmp_path / "run.ckpt"
        import pickle
        path.write_bytes(pickle.dumps({"something": "else"}))
        with pytest.raises(nn.CheckpointError,
                           match="not a training-state checkpoint"):
            nn.load_training_state(path)


# ----------------------------------------------------------------------
# Health guards
# ----------------------------------------------------------------------
class TestHealthMonitor:
    def test_nan_loss_is_structured(self):
        monitor = HealthMonitor()
        monitor.check_loss(1.0, step=0)
        with pytest.raises(DivergenceError) as excinfo:
            monitor.check_loss(float("nan"), step=1)
        err = excinfo.value
        assert err.metric == "loss" and err.step == 1
        assert err.to_dict()["history"] == [1.0]

    def test_loss_explosion_only_after_warmup(self):
        monitor = HealthMonitor(HealthPolicy(loss_explosion_ratio=10.0,
                                             warmup_steps=3))
        monitor.check_loss(100.0)    # before warmup: anything finite is ok
        for value in (2.0, 1.5, 1.2):
            monitor.check_loss(value)
        with pytest.raises(DivergenceError, match="exploded"):
            monitor.check_loss(50.0)  # > 10 * max(|1.2|, 1)

    def test_grad_norm_limits(self):
        monitor = HealthMonitor(HealthPolicy(grad_norm_limit=100.0))
        assert monitor.check_grad_norm(99.0) == 99.0
        with pytest.raises(DivergenceError, match="grad_norm"):
            monitor.check_grad_norm(101.0)
        with pytest.raises(DivergenceError):
            monitor.check_grad_norm(float("inf"))

    def test_check_array(self):
        monitor = HealthMonitor(HealthPolicy(output_limit=1e3))
        clean = np.ones((4, 4))
        assert monitor.check_array("vmm", clean) is not None
        monitor.check_array("vmm", np.empty((0,)))  # empty is fine
        with pytest.raises(DivergenceError, match="non-finite"):
            monitor.check_array("vmm", np.array([1.0, np.nan]))
        for bad in (np.inf, -np.inf):
            with pytest.raises(DivergenceError) as info:
                monitor.check_array("vmm", np.array([1.0, bad, 2.0, 3.0]))
            assert info.value.detail == "1/4 non-finite elements"
            assert info.value.metric == "vmm" and np.isnan(info.value.value)
        # Non-finite wins over an over-limit magnitude in the same array.
        with pytest.raises(DivergenceError) as info:
            monitor.check_array("vmm", np.array([np.nan, 2e12, np.inf]))
        assert info.value.detail == "2/3 non-finite elements"
        with pytest.raises(DivergenceError, match="magnitude") as info:
            monitor.check_array("vmm", np.array([2e3]))
        assert info.value.value == 2e3
        # An infinite limit still rejects infinities.
        unbounded = HealthMonitor(HealthPolicy(output_limit=np.inf))
        assert unbounded.check_array("vmm", np.array([1e300])) is not None
        with pytest.raises(DivergenceError, match="non-finite"):
            unbounded.check_array("vmm", np.array([np.inf]))

    def test_rollback_budget(self):
        monitor = HealthMonitor(HealthPolicy(on_divergence="rollback",
                                             max_rollbacks=2))
        assert monitor.can_roll_back
        assert monitor.note_rollback() == 1
        assert monitor.note_rollback() == 2
        assert not monitor.can_roll_back
        assert not HealthMonitor().can_roll_back  # "fail" never rolls back

    def test_policy_validation_and_env(self, monkeypatch):
        with pytest.raises(ValueError, match="on_divergence"):
            HealthPolicy(on_divergence="shrug")
        monkeypatch.setenv("SWORDFISH_HEALTH_POLICY", "rollback")
        monkeypatch.setenv("SWORDFISH_HEALTH_GRAD_LIMIT", "123.5")
        policy = HealthPolicy.from_env()
        assert policy.on_divergence == "rollback"
        assert policy.grad_norm_limit == 123.5

    def test_default_monitor_kill_switch(self, monkeypatch):
        monkeypatch.delenv("SWORDFISH_HEALTH", raising=False)
        assert default_monitor() is not None
        monkeypatch.setenv("SWORDFISH_HEALTH", "off")
        assert default_monitor() is None

    def test_vmm_output_guard_fires_during_deployed_eval(self, tiny_model,
                                                         rng):
        from repro.core import deploy, get_bundle

        deployed = deploy(tiny_model, get_bundle("ideal"), seed=0)
        deployed.health = HealthMonitor(HealthPolicy(output_limit=1e-30))
        try:
            with pytest.raises(DivergenceError, match="vmm:"):
                with nn.no_grad():
                    tiny_model(nn.Tensor(rng.standard_normal((1, 192))))
        finally:
            deployed.release()

    @pytest.mark.parametrize("bad", [np.inf, 2e12], ids=["inf", "huge"])
    def test_recurrent_output_guard_names_the_hh_bank(self, tiny_model, rng,
                                                      bad):
        """One bad step of lstm0's recurrent bank still fails the
        forward and names that bank, although the saturating gates
        hide it from every later layer."""
        from repro.core import deploy, get_bundle

        deployed = deploy(tiny_model, get_bundle("ideal"), seed=0)
        bind = deployed._bind
        calls = []

        def poisoned_bind(weights, layer_name, slot, batch):
            step = bind(weights, layer_name, slot, batch)
            if (layer_name, slot) != ("lstm0", 1):
                return step

            def poisoned(inputs, out):
                step(inputs, out)
                calls.append(out.shape)
                if len(calls) == 3:
                    out[:] = bad
            return poisoned

        deployed._bind = poisoned_bind
        deployed.attach()
        signal = nn.Tensor(rng.standard_normal((1, 192)))
        try:
            deployed.health = None
            with nn.no_grad():
                assert np.isfinite(tiny_model(signal).data).all()
            calls.clear()
            deployed.health = HealthMonitor(HealthPolicy())
            with pytest.raises(DivergenceError) as err:
                with nn.no_grad():
                    tiny_model(signal)
        finally:
            deployed.release()
        assert len(calls) > 3
        assert err.value.metric == "vmm:lstm0[1]"


# ----------------------------------------------------------------------
# train_model: checkpoint/resume, rollback, empty epochs
# ----------------------------------------------------------------------
class _KillAt:
    """Progress hook that raises once the given epoch completes."""

    def __init__(self, epoch: int):
        self.epoch = epoch
        self.armed = True

    def __call__(self, epoch: int, loss: float) -> None:
        if self.armed and epoch == self.epoch:
            self.armed = False
            raise KeyboardInterrupt(f"killed after epoch {epoch}")


class _MidEpochBomb:
    """Loss fn that dies on one specific batch of its first life."""

    def __init__(self, at_call: int):
        self.calls = 0
        self.at_call = at_call
        self.armed = True

    def __call__(self, model, signals, targets):
        self.calls += 1
        if self.armed and self.calls == self.at_call:
            self.armed = False
            raise KeyboardInterrupt(f"killed at batch {self.calls}")
        return nn.ctc_loss(model(signals), targets)


class _NanBomb:
    """Loss fn that goes NaN on one specific batch of its first life."""

    def __init__(self, at_call: int):
        self.calls = 0
        self.at_call = at_call
        self.armed = True

    def __call__(self, model, signals, targets):
        loss = nn.ctc_loss(model(signals), targets)
        self.calls += 1
        if self.armed and self.calls == self.at_call:
            self.armed = False
            loss.data = loss.data * np.nan
        return loss


class TestTrainResume:
    def test_resume_after_boundary_kill_is_bitwise(self, tiny_chunks,
                                                   tmp_path):
        reference = BonitoModel(TINY_CONFIG)
        ref_losses = train_model(reference, tiny_chunks, FAST_TRAIN)

        model = BonitoModel(TINY_CONFIG)
        ckpt = tmp_path / "train.ckpt"
        with pytest.raises(KeyboardInterrupt):
            train_model(model, tiny_chunks, FAST_TRAIN,
                        checkpoint_path=ckpt, progress=_KillAt(1))
        assert ckpt.exists()

        losses = train_model(model, tiny_chunks, FAST_TRAIN,
                             checkpoint_path=ckpt)
        assert losses == ref_losses
        assert _states_equal(model.state_dict(), reference.state_dict())

    def test_resume_after_mid_epoch_kill_is_bitwise(self, tiny_chunks,
                                                    tmp_path):
        reference = BonitoModel(TINY_CONFIG)
        ref_losses = train_model(reference, tiny_chunks, FAST_TRAIN,
                                 loss_fn=_MidEpochBomb(at_call=10 ** 9))

        model = BonitoModel(TINY_CONFIG)
        ckpt = tmp_path / "train.ckpt"
        # 4 steps/epoch: batch 6 is mid-epoch-1, after epoch 0's
        # checkpoint hit the disk.
        bomb = _MidEpochBomb(at_call=6)
        with pytest.raises(KeyboardInterrupt):
            train_model(model, tiny_chunks, FAST_TRAIN,
                        checkpoint_path=ckpt, loss_fn=bomb)

        losses = train_model(model, tiny_chunks, FAST_TRAIN,
                             checkpoint_path=ckpt, loss_fn=bomb)
        assert losses == ref_losses
        assert _states_equal(model.state_dict(), reference.state_dict())

    def test_vat_perturb_resumes_on_same_noise_stream(self, tiny_chunks,
                                                      tmp_path):
        def noise_for(model):
            return {id(p): np.full(p.data.shape, 0.01)
                    for p in model.parameters()}

        reference = BonitoModel(TINY_CONFIG)
        ref_losses = train_model(reference, tiny_chunks, FAST_TRAIN,
                                 weight_perturb=_make_perturb(
                                     noise_for(reference), seed=5))

        model = BonitoModel(TINY_CONFIG)
        ckpt = tmp_path / "vat.ckpt"
        with pytest.raises(KeyboardInterrupt):
            train_model(model, tiny_chunks, FAST_TRAIN,
                        weight_perturb=_make_perturb(noise_for(model),
                                                     seed=5),
                        checkpoint_path=ckpt, progress=_KillAt(0))

        # The fresh hook starts on the wrong RNG state; the checkpoint
        # must bring it back onto the reference stream.
        losses = train_model(model, tiny_chunks, FAST_TRAIN,
                             weight_perturb=_make_perturb(noise_for(model),
                                                          seed=5),
                             checkpoint_path=ckpt)
        assert losses == ref_losses
        assert _states_equal(model.state_dict(), reference.state_dict())

    def test_nan_divergence_fails_fast_by_default(self, tiny_chunks):
        model = BonitoModel(TINY_CONFIG)
        with pytest.raises(DivergenceError, match="loss"):
            train_model(model, tiny_chunks, FAST_TRAIN,
                        loss_fn=_NanBomb(at_call=3),
                        health=HealthMonitor())

    def test_nan_divergence_rolls_back_and_completes(self, tiny_chunks):
        model = BonitoModel(TINY_CONFIG)
        monitor = HealthMonitor(HealthPolicy(on_divergence="rollback",
                                             max_rollbacks=2))
        losses = train_model(model, tiny_chunks, FAST_TRAIN,
                             loss_fn=_NanBomb(at_call=6), health=monitor)
        assert monitor.rollbacks == 1
        assert len(losses) == FAST_TRAIN.epochs
        assert all(np.isfinite(losses))

    def test_rollback_budget_exhaustion_raises(self, tiny_chunks):
        class AlwaysNan:
            def __call__(self, model, signals, targets):
                loss = nn.ctc_loss(model(signals), targets)
                loss.data = loss.data * np.nan
                return loss

        model = BonitoModel(TINY_CONFIG)
        monitor = HealthMonitor(HealthPolicy(on_divergence="rollback",
                                             max_rollbacks=1))
        with pytest.raises(DivergenceError):
            train_model(model, tiny_chunks, FAST_TRAIN,
                        loss_fn=AlwaysNan(), health=monitor)
        assert monitor.rollbacks == 1

    def test_too_few_chunks_is_a_clear_error(self, tiny_chunks):
        model = BonitoModel(TINY_CONFIG)
        with pytest.raises(ValueError, match="no training chunks"):
            train_model(model, [], FAST_TRAIN)
        with pytest.raises(ValueError, match="every epoch would be empty"):
            train_model(model, tiny_chunks[:7], FAST_TRAIN)

    def test_checkpoint_cadence_env(self, tiny_chunks, tmp_path,
                                    monkeypatch):
        monkeypatch.setenv("SWORDFISH_CHECKPOINT_EVERY", "0")
        model = BonitoModel(TINY_CONFIG)
        ckpt = tmp_path / "never.ckpt"
        train_model(model, tiny_chunks,
                    TrainConfig(epochs=1, batch_size=16, lr=8e-3),
                    checkpoint_path=ckpt)
        assert not ckpt.exists()

    def test_stage_checkpoint_paths_are_env_gated(self, monkeypatch,
                                                  tmp_path):
        monkeypatch.delenv("SWORDFISH_CHECKPOINT_DIR", raising=False)
        assert _stage_checkpoint("vat", "abc123") is None
        monkeypatch.setenv("SWORDFISH_CHECKPOINT_DIR", str(tmp_path))
        assert _stage_checkpoint("vat", "abc123") == \
            tmp_path / "vat_abc123.ckpt"


# ----------------------------------------------------------------------
# Run journal
# ----------------------------------------------------------------------
class TestRunJournal:
    KEYS = [f"{i:02x}" + "0" * 62 for i in range(4)]

    def _write_session(self, path, statuses):
        journal = RunJournal(path)
        journal.begin("plan-a", self.KEYS)
        for index, status in enumerate(statuses):
            journal.record(index=index, key=self.KEYS[index],
                           tag=f"job/{index}", status=status)
        journal.close()
        return journal

    def test_resume_reports_completed_keys(self, tmp_path):
        path = tmp_path / "run.journal"
        self._write_session(path, ["ok", "failed", "ok"])
        journal = RunJournal(path, resume=True)
        done = journal.begin("plan-a", self.KEYS)
        assert done == {self.KEYS[0], self.KEYS[2]}
        journal.close()

    def test_fresh_run_truncates(self, tmp_path):
        path = tmp_path / "run.journal"
        self._write_session(path, ["ok", "ok", "ok", "ok"])
        journal = RunJournal(path, resume=False)
        assert journal.begin("plan-a", self.KEYS) == set()
        journal.close()
        header, records = RunJournal(path).load()
        assert header["resumed"] == 0 and records == []

    def test_resume_refuses_different_plan(self, tmp_path):
        path = tmp_path / "run.journal"
        self._write_session(path, ["ok"])
        journal = RunJournal(path, resume=True)
        with pytest.raises(JournalError, match="refusing to resume"):
            journal.begin("plan-b", list(reversed(self.KEYS)))

    def test_torn_tail_is_skipped(self, tmp_path):
        path = tmp_path / "run.journal"
        self._write_session(path, ["ok", "ok"])
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"event": "job", "key": "tr')  # writer died here
        journal = RunJournal(path, resume=True)
        done = journal.begin("plan-a", self.KEYS)
        assert done == {self.KEYS[0], self.KEYS[1]}
        journal.close()

    def test_fingerprint_is_order_sensitive(self):
        assert plan_fingerprint(self.KEYS) != \
            plan_fingerprint(list(reversed(self.KEYS)))

    def test_torn_tail_mid_queue_event_still_resumes(self, tmp_path):
        """The broker dying mid-append of a *queue* event must not cost
        any recorded progress."""
        path = tmp_path / "run.journal"
        journal = RunJournal(path)
        journal.begin("plan-a", self.KEYS)
        journal.record(index=0, key=self.KEYS[0], tag="job/0", status="ok")
        journal.record_event("lease", index=1, key=self.KEYS[1],
                             worker="w1", attempt=1, token="1.1.9")
        journal.close()
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"event": "requeue", "index": 1, "rea')  # SIGKILL
        reopened = RunJournal(path, resume=True)
        done = reopened.begin("plan-a", self.KEYS)
        assert done == {self.KEYS[0]}
        reopened.close()
        # load() after the new session header sees only that session.
        header, _ = RunJournal(path).load()
        assert header["resumed"] == 1

    def test_load_returns_queue_events_in_order(self, tmp_path):
        path = tmp_path / "run.journal"
        journal = RunJournal(path)
        journal.begin("plan-a", self.KEYS)
        journal.record_event("lease", index=0, attempt=1)
        journal.record_event("requeue", index=0, reason="disconnect",
                             attempt=1, deaths=1)
        journal.record(index=0, key=self.KEYS[0], tag="job/0",
                       status="failed", error_type="WorkerDeath")
        journal.close()
        _, records = RunJournal(path).load()
        assert [r["event"] for r in records] == ["lease", "requeue", "job"]

    def test_mixed_version_records_tolerated(self, tmp_path):
        """Unknown event kinds, missing optional fields, and non-object
        JSON lines from another producer version are all skipped or
        passed through — never fatal."""
        path = tmp_path / "run.journal"
        self._write_session(path, ["ok"])
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"event": "gpu_migration", "index": 2}\n')  # future
            fh.write('{"event": "job", "key": "%s", "status": "ok"}\n'
                     % self.KEYS[1])  # no attempts/cache fields
            fh.write('[1, 2, 3]\n')                   # non-object line
            fh.write('"just a string"\n')
            fh.write('{"no_event_field": true}\n')
        journal = RunJournal(path, resume=True)
        done = journal.begin("plan-a", self.KEYS)
        assert done == {self.KEYS[0], self.KEYS[1]}
        journal.close()
        _, records = RunJournal(path).load()
        kinds = {r["event"] for r in records}
        assert "gpu_migration" not in kinds  # new session, old one gone

    def test_ok_for_foreign_key_not_trusted(self, tmp_path):
        """A journal 'ok' whose key is not in this plan never resumes."""
        path = tmp_path / "run.journal"
        journal = RunJournal(path)
        journal.begin("plan-a", self.KEYS)
        journal.record(index=0, key="f" * 64, tag="alien", status="ok")
        journal.close()
        reopened = RunJournal(path, resume=True)
        assert reopened.begin("plan-a", self.KEYS) == set()
        reopened.close()

    def test_record_event_reserves_structural_kinds(self, tmp_path):
        journal = RunJournal(tmp_path / "run.journal")
        journal.begin("plan-a", self.KEYS)
        with pytest.raises(ValueError, match="reserved"):
            journal.record_event("plan", plan="sneaky")
        with pytest.raises(ValueError, match="reserved"):
            journal.record_event("job", index=0)
        journal.close()
