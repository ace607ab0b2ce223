"""Smoke tests for the per-figure experiment runners.

Runners are exercised at minimal scale with the tiny trained model
substituted for the full baseline, verifying row structure and basic
paper-shape invariants without the cost of full experiments.
"""

import numpy as np
import pytest

from repro.core import EnhanceConfig
from tests.conftest import TINY_CONFIG

FAST_ENHANCE = EnhanceConfig(retrain_epochs=1, online_epochs=1,
                             num_chunks=24)


@pytest.fixture(autouse=True)
def tiny_baseline(tiny_trained, monkeypatch):
    """Substitute the tiny model for the shared pretrained baseline."""
    from repro.basecaller import BonitoModel
    import repro.experiments.common as common

    def fake_clone(config=None):
        clone = BonitoModel(TINY_CONFIG)
        clone.load_state_dict(tiny_trained.state_dict())
        clone.eval()
        return clone

    monkeypatch.setattr(common, "baseline_clone", fake_clone)
    for module_name in ("fig01_pipeline", "tab03_quantization",
                        "fig07_write_variation", "fig08_nonidealities",
                        "fig10_enhance_quant", "fig11_enhance_writevar",
                        "fig12_enhance_nonideal", "fig14_throughput",
                        "fig15_area_accuracy"):
        module = __import__(f"repro.experiments.{module_name}",
                            fromlist=[module_name])
        if hasattr(module, "baseline_clone"):
            monkeypatch.setattr(module, "baseline_clone", fake_clone)


class TestCommon:
    def test_env_scale(self, monkeypatch):
        from repro.experiments.common import env_scale, scaled
        monkeypatch.setenv("SWORDFISH_SCALE", "0.5")
        assert env_scale() == 0.5
        assert scaled(10) == 5
        assert scaled(1, minimum=1) == 1
        monkeypatch.setenv("SWORDFISH_SCALE", "-1")
        with pytest.raises(ValueError):
            env_scale()

    def test_evaluation_reads_cached(self):
        from repro.experiments.common import evaluation_reads
        a = evaluation_reads("D1", 2)
        b = evaluation_reads("D1", 2)
        assert np.array_equal(a[0].signal, b[0].signal)


class TestRunners:
    def test_fig01(self):
        from repro.experiments import fig01_pipeline
        record = fig01_pipeline.run(num_reads=2)
        stages = [r["stage"] for r in record.rows]
        assert stages == ["basecalling", "read_mapping", "polishing",
                          "variant_calling"]
        fractions = [r["fraction"] for r in record.rows]
        assert np.isclose(sum(fractions), 1.0)
        # Paper's headline: basecalling dominates.
        assert record.rows[0]["fraction"] == max(fractions)

    def test_tab03(self):
        from repro.experiments import tab03_quantization
        record = tab03_quantization.run(num_reads=2, datasets=("D1",))
        assert len(record.rows) == 7
        by_config = {r["config"]: r["accuracy"] for r in record.rows}
        # 16-bit must track the float baseline closely.
        assert abs(by_config["FPP 16-16"] - by_config["DFP 32-32"]) < 3.0

    def test_fig07(self):
        from repro.experiments import fig07_write_variation
        record = fig07_write_variation.run(
            rates=(0.0, 0.4), num_reads=2, num_runs=1, datasets=("D1",))
        assert len(record.rows) == 2
        clean = record.rows[0]["accuracy"]
        noisy = record.rows[1]["accuracy"]
        assert clean > noisy  # write variation hurts

    def test_fig08(self):
        from repro.experiments import fig08_nonidealities
        record = fig08_nonidealities.run(
            crossbar_size=64, num_reads=2, num_runs=1, datasets=("D1",),
            bundles=("dac_driver",))
        assert record.rows[0]["bundle"] == "dac_driver"
        assert 0 <= record.rows[0]["accuracy"] <= 100

    def test_fig08_point_releases_when_evaluation_fails(self, monkeypatch):
        """A failing evaluation still detaches the deployment's hooks."""
        from repro.experiments import fig08_nonidealities as fig08
        from repro.reliability import DivergenceError

        models = []
        clone = fig08.baseline_clone

        def tracked_clone():
            models.append(clone())
            return models[-1]

        def diverge(model, reads):
            assert all(layer.matmul_hook is not None
                       for _, layer in model.vmm_layers())
            raise DivergenceError("vmm:decoder[0]", float("nan"))

        monkeypatch.setattr(fig08, "baseline_clone", tracked_clone)
        monkeypatch.setattr(fig08, "evaluate_accuracy", diverge)
        with pytest.raises(DivergenceError):
            fig08.evaluate_point("D1", "combined", 64, 0.1,
                                 num_reads=1, num_runs=1)
        assert len(models) == 1
        assert all(layer.matmul_hook is None
                   for _, layer in models[0].vmm_layers())

    def test_fig10(self):
        from repro.experiments import fig10_enhance_quant
        record = fig10_enhance_quant.run(
            num_reads=2, datasets=("D1",), techniques=("vat",),
            enhance=FAST_ENHANCE)
        assert {r["technique"] for r in record.rows} == {"vat"}
        assert len(record.rows) == 6  # six FPP configs × one dataset

    def test_fig11(self):
        from repro.experiments import fig11_enhance_writevar
        record = fig11_enhance_writevar.run(
            rates=(0.1,), techniques=("rvw",), num_reads=2,
            datasets=("D1",), enhance=FAST_ENHANCE)
        assert len(record.rows) == 1

    def test_fig12(self):
        from repro.experiments import fig12_enhance_nonideal
        record = fig12_enhance_nonideal.run(
            crossbar_size=64, techniques=("none",),
            bundles=("dac_driver",), num_reads=2, datasets=("D1",),
            enhance=FAST_ENHANCE)
        assert len(record.rows) == 1

    def test_fig14_shape(self):
        from repro.experiments import fig14_throughput
        record = fig14_throughput.run(datasets=("D1",))
        speedups = {r["variant"]: r["speedup_vs_gpu"] for r in record.rows}
        assert speedups["ideal"] > speedups["rsa_kd"] > speedups["rsa"]
        assert speedups["rvw"] < speedups["rsa"]

    def test_fig15_area_monotone(self):
        from repro.experiments import fig15_area_accuracy
        record = fig15_area_accuracy.run(
            sizes=(64,), fractions=(0.0, 0.05), num_reads=2,
            datasets=("D1",), bundle="write_only", enhance=FAST_ENHANCE)
        assert len(record.rows) == 2
        assert record.rows[1]["area_mm2"] > record.rows[0]["area_mm2"]
