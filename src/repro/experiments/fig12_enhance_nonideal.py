"""Fig. 12 / Fig. 13 — enhancement techniques vs non-ideality bundles.

For each non-ideality configuration of Fig. 8/9 applies the five
technique stacks on one crossbar size (64×64 → Fig. 12,
256×256 → Fig. 13), at 10% write variation and 5% SRAM for RSA.
Accuracies are averaged over the four datasets, as in the paper.

Expected shapes: gains are non-additive; technique effectiveness
depends on the bundle; the larger crossbar sees larger absolute
recovery because it starts lower.
"""

from __future__ import annotations

import numpy as np

from ..basecaller import evaluate_accuracy
from ..core import EnhanceConfig, ExperimentRecord, build_design, render_table
from ..nn import QuantizedModel, get_quant_config
from ..runtime import Job, SweepPlan, SweepRunner
from .common import (DATASETS, baseline_clone, evaluation_reads,
                     execute_plan, scaled)
from .fig08_nonidealities import BUNDLE_ORDER

__all__ = ["run", "main", "TECHNIQUE_ORDER", "evaluate_point"]

TECHNIQUE_ORDER: tuple[str, ...] = ("none", "vat", "kd", "rvw", "rsa_kd", "all")


def evaluate_point(bundle: str, technique: str, crossbar_size: int,
                   write_variation: float, datasets: tuple[str, ...],
                   num_reads: int, enhance: EnhanceConfig) -> dict:
    """One (bundle, technique) design: dataset-mean accuracy."""
    model = baseline_clone()
    QuantizedModel(model, get_quant_config("FPP 16-16"))
    design = build_design(model, technique, bundle,
                          crossbar_size=crossbar_size,
                          write_variation=write_variation,
                          config=enhance)
    accs = []
    try:
        for dataset in datasets:
            reads = evaluation_reads(dataset, num_reads)
            accs.append(evaluate_accuracy(model, reads).mean_percent)
    finally:
        design.release()
        model.set_activation_quant(None)
    return {
        "bundle": bundle,
        "technique": technique,
        "accuracy": float(np.mean(accs)),
    }


def run(crossbar_size: int = 64, write_variation: float = 0.10,
        techniques: tuple[str, ...] = TECHNIQUE_ORDER,
        bundles: tuple[str, ...] = BUNDLE_ORDER,
        num_reads: int | None = None,
        datasets: tuple[str, ...] = DATASETS,
        enhance: EnhanceConfig | None = None,
        runner: SweepRunner | None = None) -> ExperimentRecord:
    num_reads = num_reads or scaled(8)
    enhance = enhance or EnhanceConfig()
    figure = "fig12" if crossbar_size <= 64 else "fig13"
    record = ExperimentRecord(
        experiment_id=f"{figure}_enhance_nonideal_{crossbar_size}",
        description=(f"Enhancement vs non-idealities on "
                     f"{crossbar_size}x{crossbar_size} crossbars"),
        settings={"crossbar_size": crossbar_size,
                  "write_variation": write_variation,
                  "bundles": list(bundles),
                  "techniques": list(techniques),
                  "num_reads": num_reads},
    )
    plan = SweepPlan(record.experiment_id, [
        Job(fn="repro.experiments.fig12_enhance_nonideal:evaluate_point",
            kwargs={"bundle": bundle, "technique": technique,
                    "crossbar_size": crossbar_size,
                    "write_variation": write_variation,
                    "datasets": tuple(datasets), "num_reads": num_reads,
                    "enhance": enhance},
            tag=f"{figure}/{bundle}/{technique}")
        for bundle in bundles for technique in techniques
    ])
    record.rows.extend(execute_plan(plan, runner))
    return record


def main(crossbar_size: int = 64,
         record: ExperimentRecord | None = None) -> ExperimentRecord:
    record = record or run(crossbar_size=crossbar_size)
    bundles = record.settings["bundles"]
    techniques = record.settings["techniques"]
    by_key = {(r["bundle"], r["technique"]): r["accuracy"]
              for r in record.rows}
    rows = [
        [bundle] + [by_key[(bundle, t)] for t in techniques]
        for bundle in bundles
    ]
    size = record.settings["crossbar_size"]
    print(render_table(
        f"Fig. {'12' if size <= 64 else '13'} — enhancement vs "
        f"non-idealities, {size}x{size} (accuracy %, dataset mean)",
        ["bundle"] + list(techniques), rows))
    return record


if __name__ == "__main__":
    main()
