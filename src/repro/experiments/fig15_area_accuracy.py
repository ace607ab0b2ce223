"""Fig. 15 — accuracy vs area of Realistic-SwordfishAccel-RSA+KD.

Sweeps the fraction of weights assigned to SRAM (0%, 1%, 5%, 10%) for
two crossbar sizes (64×64, 256×256), reporting the RSA+KD design's
accuracy and total area.

Expected shapes: accuracy rises with SRAM fraction but saturates around
5%; area grows steadily with SRAM fraction; 64×64 at 5% lands within a
few percent of the FP baseline.
"""

from __future__ import annotations

import numpy as np
from dataclasses import replace

from ..basecaller import evaluate_accuracy
from ..core import (
    EnhanceConfig,
    ExperimentRecord,
    SystemEvaluator,
    build_design,
    render_table,
)
from ..nn import QuantizedModel, get_quant_config
from ..runtime import Job, SweepPlan, SweepRunner
from .common import (DATASETS, baseline_clone, evaluation_reads,
                     execute_plan, scaled)

__all__ = ["run", "main", "DEFAULT_FRACTIONS", "baseline_point",
           "evaluate_point"]

DEFAULT_FRACTIONS: tuple[float, ...] = (0.0, 0.01, 0.05, 0.10)


def baseline_point(datasets: tuple[str, ...], num_reads: int) -> float:
    """FP32 baseline accuracy, averaged over the datasets."""
    baseline = baseline_clone()
    accs = [
        evaluate_accuracy(baseline,
                          evaluation_reads(d, num_reads)).mean_percent
        for d in datasets
    ]
    return float(np.mean(accs))


def evaluate_point(size: int, fraction: float, bundle: str,
                   write_variation: float, datasets: tuple[str, ...],
                   num_reads: int, enhance: EnhanceConfig) -> dict:
    """One (crossbar size, SRAM fraction) RSA+KD design point."""
    model = baseline_clone()
    QuantizedModel(model, get_quant_config("FPP 16-16"))
    config = replace(enhance, sram_fraction=fraction)
    design = build_design(model, "rsa_kd", bundle,
                          crossbar_size=size,
                          write_variation=write_variation,
                          config=config)
    try:
        accs = [
            evaluate_accuracy(model,
                              evaluation_reads(d, num_reads)).mean_percent
            for d in datasets
        ]
    finally:
        design.release()
        model.set_activation_quant(None)
    # Area is an analytical model: evaluate it on the real Bonito's
    # dimensions, as with Fig. 14's throughput.
    from ..basecaller import BonitoModel
    from ..basecaller.model import BONITO_PAPER_CONFIG
    area = SystemEvaluator().area(BonitoModel(BONITO_PAPER_CONFIG), size,
                                  sram_fraction=fraction)
    return {
        "size": size,
        "sram_percent": 100 * fraction,
        "accuracy": float(np.mean(accs)),
        "area_mm2": area.total_mm2,
        "rsa_overhead_mm2": area.rsa_overhead_mm2,
    }


def run(sizes: tuple[int, ...] = (64, 256),
        fractions: tuple[float, ...] = DEFAULT_FRACTIONS,
        write_variation: float = 0.10,
        bundle: str = "measured",
        num_reads: int | None = None,
        datasets: tuple[str, ...] = DATASETS,
        enhance: EnhanceConfig | None = None,
        runner: SweepRunner | None = None) -> ExperimentRecord:
    num_reads = num_reads or scaled(8)
    enhance = enhance or EnhanceConfig()

    record = ExperimentRecord(
        experiment_id="fig15_area_accuracy",
        description="Accuracy vs area for RSA+KD designs",
        settings={"sizes": list(sizes), "fractions": list(fractions),
                  "bundle": bundle, "write_variation": write_variation,
                  "num_reads": num_reads},
    )
    plan = SweepPlan("fig15_area_accuracy")
    plan.add(Job(fn="repro.experiments.fig15_area_accuracy:baseline_point",
                 kwargs={"datasets": tuple(datasets),
                         "num_reads": num_reads},
                 tag="fig15/baseline"))
    for size in sizes:
        for fraction in fractions:
            plan.add(Job(
                fn="repro.experiments.fig15_area_accuracy:evaluate_point",
                kwargs={"size": size, "fraction": fraction,
                        "bundle": bundle,
                        "write_variation": write_variation,
                        "datasets": tuple(datasets),
                        "num_reads": num_reads, "enhance": enhance},
                tag=f"fig15/{size}x{size}/sram{fraction:g}"))
    results = execute_plan(plan, runner)
    record.settings["baseline_accuracy"] = results[0]
    record.rows.extend(results[1:])
    return record


def main(record: ExperimentRecord | None = None) -> ExperimentRecord:
    record = record or run()
    rows = [
        [f"{r['size']}x{r['size']}", r["sram_percent"], r["accuracy"],
         r["area_mm2"], r["rsa_overhead_mm2"]]
        for r in record.rows
    ]
    print(render_table(
        "Fig. 15 — accuracy vs area (Realistic-SwordfishAccel-RSA+KD)",
        ["crossbar", "SRAM %", "accuracy %", "area mm²", "RSA overhead mm²"],
        rows, floatfmt=".3f"))
    print(f"FP baseline accuracy: {record.settings['baseline_accuracy']:.2f}%")
    return record


if __name__ == "__main__":
    main()
