"""Fig. 7 — effect of write variation on accuracy (no enhancement).

Sweeps the write-variation rate with every other non-ideality disabled
(the paper isolates this effect before combining).  Each point repeats
with fresh programming-noise draws; mean and std reproduce the paper's
error bars (the paper uses 1000 draws; we scale that down, see
``SWORDFISH_SCALE``).

Expected shape: accuracy collapses monotonically — a few percent loss
at small rates, catastrophic beyond ~25%.
"""

from __future__ import annotations

import numpy as np

from ..basecaller import evaluate_accuracy
from ..core import ExperimentRecord, deploy, get_bundle, render_table
from ..nn import QuantizedModel, get_quant_config
from ..runtime import Job, SweepPlan, SweepRunner
from .common import (DATASETS, baseline_clone, evaluation_reads,
                     execute_plan, scaled)

__all__ = ["run", "main", "DEFAULT_RATES", "evaluate_point"]

DEFAULT_RATES: tuple[float, ...] = (0.0, 0.05, 0.10, 0.15, 0.25, 0.35, 0.50)


def evaluate_point(dataset: str, rate: float, num_reads: int,
                   num_runs: int, crossbar_size: int) -> dict:
    """One grid cell: mean/std accuracy at one write-variation rate."""
    bundle = get_bundle("write_only")
    reads = evaluation_reads(dataset, num_reads)
    accuracies = []
    for run_index in range(num_runs):
        model = baseline_clone()
        QuantizedModel(model, get_quant_config("FPP 16-16"))
        deployed = deploy(model, bundle, crossbar_size=crossbar_size,
                          write_variation=rate,
                          seed=1000 * run_index + int(rate * 100))
        try:
            accuracies.append(evaluate_accuracy(model, reads).mean_percent)
        finally:
            deployed.release()
            model.set_activation_quant(None)
    return {
        "dataset": dataset,
        "rate": rate,
        "accuracy": float(np.mean(accuracies)),
        "std": float(np.std(accuracies)),
    }


def run(rates: tuple[float, ...] = DEFAULT_RATES,
        num_reads: int | None = None, num_runs: int | None = None,
        datasets: tuple[str, ...] = DATASETS,
        crossbar_size: int = 64,
        runner: SweepRunner | None = None) -> ExperimentRecord:
    num_reads = num_reads or scaled(8)
    num_runs = num_runs or scaled(3)
    record = ExperimentRecord(
        experiment_id="fig07_write_variation",
        description="Accuracy vs write variation rate (Fig. 7)",
        settings={"rates": list(rates), "num_reads": num_reads,
                  "num_runs": num_runs, "crossbar_size": crossbar_size},
    )
    plan = SweepPlan("fig07_write_variation", [
        Job(fn="repro.experiments.fig07_write_variation:evaluate_point",
            kwargs={"dataset": dataset, "rate": rate,
                    "num_reads": num_reads, "num_runs": num_runs,
                    "crossbar_size": crossbar_size},
            tag=f"fig07/{dataset}/wv{rate:g}")
        for dataset in datasets for rate in rates
    ])
    record.rows.extend(execute_plan(plan, runner))
    return record


def main(record: ExperimentRecord | None = None) -> ExperimentRecord:
    record = record or run()
    rates = record.settings["rates"]
    by_key = {(r["dataset"], r["rate"]): r for r in record.rows}
    datasets = sorted({r["dataset"] for r in record.rows})
    rows = []
    for dataset in datasets:
        row = [dataset]
        for rate in rates:
            cell = by_key[(dataset, rate)]
            row.append(f"{cell['accuracy']:.2f}±{cell['std']:.2f}")
        rows.append(row)
    print(render_table("Fig. 7 — accuracy vs write variation (%)",
                       ["dataset"] + [f"wv={r:g}" for r in rates], rows))
    return record


if __name__ == "__main__":
    main()
