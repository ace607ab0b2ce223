"""Fig. 8 / Fig. 9 — combined non-idealities without enhancement.

For each dataset, evaluates the five configurations of Section 5.2.2
(Synaptic+Wires, Sense+ADC, DAC+Driver, Combined, Measured) at a fixed
10% write variation, on one crossbar size (64×64 → Fig. 8;
256×256 → Fig. 9).

Expected shapes: combined ≫ any individual bundle; losses non-additive;
the larger crossbar loses more; DAC+Driver vs Sense+ADC dominance flips
with crossbar size.
"""

from __future__ import annotations

import numpy as np

from ..basecaller import evaluate_accuracy
from ..core import ExperimentRecord, deploy, get_bundle, render_table
from ..nn import QuantizedModel, get_quant_config
from ..runtime import Job, SweepPlan, SweepRunner
from .common import (DATASETS, baseline_clone, evaluation_reads,
                     execute_plan, scaled)

__all__ = ["run", "main", "BUNDLE_ORDER", "evaluate_point"]

BUNDLE_ORDER: tuple[str, ...] = (
    "synaptic_wires", "sense_adc", "dac_driver", "combined", "measured",
)


def evaluate_point(dataset: str, bundle_name: str, crossbar_size: int,
                   write_variation: float, num_reads: int,
                   num_runs: int) -> dict:
    """One grid cell: mean/std accuracy under one non-ideality bundle."""
    bundle = get_bundle(bundle_name)
    reads = evaluation_reads(dataset, num_reads)
    accuracies = []
    for run_index in range(num_runs):
        model = baseline_clone()
        QuantizedModel(model, get_quant_config("FPP 16-16"))
        deployed = deploy(model, bundle, crossbar_size=crossbar_size,
                          write_variation=write_variation,
                          seed=7000 + run_index)
        try:
            accuracies.append(evaluate_accuracy(model, reads).mean_percent)
        finally:
            deployed.release()
            model.set_activation_quant(None)
    return {
        "dataset": dataset,
        "bundle": bundle_name,
        "accuracy": float(np.mean(accuracies)),
        "std": float(np.std(accuracies)),
    }


def run(crossbar_size: int = 64, write_variation: float = 0.10,
        num_reads: int | None = None, num_runs: int | None = None,
        datasets: tuple[str, ...] = DATASETS,
        bundles: tuple[str, ...] = BUNDLE_ORDER,
        runner: SweepRunner | None = None) -> ExperimentRecord:
    num_reads = num_reads or scaled(8)
    num_runs = num_runs or scaled(3)
    figure = "fig08" if crossbar_size <= 64 else "fig09"
    record = ExperimentRecord(
        experiment_id=f"{figure}_nonidealities_{crossbar_size}",
        description=(f"Accuracy under non-idealities on "
                     f"{crossbar_size}x{crossbar_size} crossbars"),
        settings={"crossbar_size": crossbar_size,
                  "write_variation": write_variation,
                  "num_reads": num_reads, "num_runs": num_runs},
    )
    plan = SweepPlan(record.experiment_id, [
        Job(fn="repro.experiments.fig08_nonidealities:evaluate_point",
            kwargs={"dataset": dataset, "bundle_name": bundle_name,
                    "crossbar_size": crossbar_size,
                    "write_variation": write_variation,
                    "num_reads": num_reads, "num_runs": num_runs},
            tag=f"{figure}/{dataset}/{bundle_name}")
        for dataset in datasets for bundle_name in bundles
    ])
    record.rows.extend(execute_plan(plan, runner))
    return record


def main(crossbar_size: int = 64,
         record: ExperimentRecord | None = None) -> ExperimentRecord:
    record = record or run(crossbar_size=crossbar_size)
    by_key = {(r["dataset"], r["bundle"]): r for r in record.rows}
    datasets = sorted({r["dataset"] for r in record.rows})
    rows = []
    for dataset in datasets:
        row = [dataset]
        for bundle in BUNDLE_ORDER:
            cell = by_key[(dataset, bundle)]
            row.append(f"{cell['accuracy']:.2f}±{cell['std']:.2f}")
        rows.append(row)
    size = record.settings["crossbar_size"]
    print(render_table(
        f"Fig. {'8' if size <= 64 else '9'} — accuracy under "
        f"non-idealities, {size}x{size} (%)",
        ["dataset"] + list(BUNDLE_ORDER), rows))
    return record


if __name__ == "__main__":
    main()
