"""Fig. 10 — accuracy enhancement on the quantized basecaller.

For each fixed-point configuration (FPP 16-16 … FPP 4-2) applies the
five technique stacks (VAT, KD, R-V-W, RSA+KD, All) on the CIM design
with only write variation active (the paper evaluates enhancement on
quantized models before layering the other non-idealities).

Expected shape: retraining recovers (nearly) the FP32 baseline down to
8-bit; below that, recovery is partial.
"""

from __future__ import annotations

from ..basecaller import evaluate_accuracy
from ..core import (
    EnhanceConfig,
    ExperimentRecord,
    build_design,
    render_table,
)
from ..nn import PAPER_QUANT_CONFIGS, QuantizedModel, get_quant_config
from ..runtime import Job, SweepPlan, SweepRunner
from .common import (DATASETS, baseline_clone, evaluation_reads,
                     execute_plan, scaled)

__all__ = ["run", "main", "TECHNIQUE_ORDER", "baseline_point",
           "evaluate_point"]

TECHNIQUE_ORDER: tuple[str, ...] = ("vat", "kd", "rvw", "rsa_kd", "all")

_FPP_CONFIGS = tuple(c for c in PAPER_QUANT_CONFIGS if not c.is_float)


def baseline_point(datasets: tuple[str, ...], num_reads: int) -> dict:
    """FP32 baseline reference accuracies per dataset."""
    baseline = baseline_clone()
    return {
        d: evaluate_accuracy(baseline,
                             evaluation_reads(d, num_reads)).mean_percent
        for d in datasets
    }


def evaluate_point(quant_name: str, technique: str,
                   datasets: tuple[str, ...], num_reads: int,
                   write_variation: float,
                   enhance: EnhanceConfig) -> list[dict]:
    """One (precision, technique) design evaluated over every dataset."""
    quant = get_quant_config(quant_name)
    model = baseline_clone()
    QuantizedModel(model, quant)
    design = build_design(model, technique, "write_only",
                          write_variation=write_variation,
                          config=enhance, cache_tag=quant.name)
    rows = []
    try:
        for dataset in datasets:
            reads = evaluation_reads(dataset, num_reads)
            rows.append({
                "quant": quant.name,
                "technique": technique,
                "dataset": dataset,
                "accuracy": evaluate_accuracy(model, reads).mean_percent,
            })
    finally:
        design.release()
        model.set_activation_quant(None)
    return rows


def run(num_reads: int | None = None,
        datasets: tuple[str, ...] = DATASETS,
        write_variation: float = 0.10,
        techniques: tuple[str, ...] = TECHNIQUE_ORDER,
        enhance: EnhanceConfig | None = None,
        runner: SweepRunner | None = None) -> ExperimentRecord:
    num_reads = num_reads or scaled(8)
    enhance = enhance or EnhanceConfig()
    record = ExperimentRecord(
        experiment_id="fig10_enhance_quant",
        description="Enhancement techniques vs quantization configs",
        settings={"num_reads": num_reads,
                  "write_variation": write_variation,
                  "quant_configs": [c.name for c in _FPP_CONFIGS],
                  "techniques": list(techniques)},
    )
    plan = SweepPlan("fig10_enhance_quant")
    plan.add(Job(fn="repro.experiments.fig10_enhance_quant:baseline_point",
                 kwargs={"datasets": tuple(datasets),
                         "num_reads": num_reads},
                 tag="fig10/baseline"))
    for quant in _FPP_CONFIGS:
        for technique in techniques:
            plan.add(Job(
                fn="repro.experiments.fig10_enhance_quant:evaluate_point",
                kwargs={"quant_name": quant.name, "technique": technique,
                        "datasets": tuple(datasets), "num_reads": num_reads,
                        "write_variation": write_variation,
                        "enhance": enhance},
                tag=f"fig10/{quant.name}/{technique}"))
    results = execute_plan(plan, runner)
    record.settings["baseline_accuracy"] = results[0]
    for rows in results[1:]:
        record.rows.extend(rows)
    return record


def _mean(values: list[float]) -> float:
    """Mean that fails loudly on an empty sweep cell instead of 0/0."""
    if not values:
        raise ValueError("empty accuracy cell in the sweep record")
    return sum(values) / len(values)


def main(record: ExperimentRecord | None = None) -> ExperimentRecord:
    record = record or run()
    quants = record.settings["quant_configs"]
    techniques = record.settings["techniques"]
    acc: dict[tuple[str, str], list[float]] = {}
    for row in record.rows:
        acc.setdefault((row["quant"], row["technique"]), []).append(row["accuracy"])
    rows = []
    for quant in quants:
        row = [quant]
        for technique in techniques:
            row.append(_mean(acc[(quant, technique)]))
        rows.append(row)
    print(render_table(
        "Fig. 10 — enhancement vs quantization (accuracy %, mean over datasets)",
        ["quant"] + list(techniques), rows))
    base = record.settings["baseline_accuracy"]
    print(f"Baseline DFP 32-32: {_mean(list(base.values())):.2f}%")
    return record


if __name__ == "__main__":
    main()
