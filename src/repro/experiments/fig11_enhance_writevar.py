"""Fig. 11 — enhancement techniques across write-variation rates.

Evaluates VAT, KD, R-V-W, RSA+KD, and the combination ("all") over a
write-variation sweep, per dataset and averaged (the paper's panels
(a)–(f)).

Expected shapes: every technique helps but degrades as write variation
grows; RSA+KD beats the offline techniques; "all" is best everywhere;
beyond ~10% write variation even "all" cannot hold the baseline.
"""

from __future__ import annotations

import numpy as np

from ..basecaller import evaluate_accuracy
from ..core import EnhanceConfig, ExperimentRecord, build_design, render_table
from ..nn import QuantizedModel, get_quant_config
from ..runtime import Job, SweepPlan, SweepRunner
from .common import (DATASETS, baseline_clone, evaluation_reads,
                     execute_plan, scaled)

__all__ = ["run", "main", "DEFAULT_RATES", "TECHNIQUE_ORDER",
           "evaluate_point"]

DEFAULT_RATES: tuple[float, ...] = (0.05, 0.10, 0.20, 0.30)
TECHNIQUE_ORDER: tuple[str, ...] = ("vat", "kd", "rvw", "rsa_kd", "all")


def evaluate_point(rate: float, technique: str,
                   datasets: tuple[str, ...], num_reads: int,
                   enhance: EnhanceConfig) -> list[dict]:
    """One (rate, technique) design evaluated over every dataset."""
    model = baseline_clone()
    QuantizedModel(model, get_quant_config("FPP 16-16"))
    design = build_design(model, technique, "write_only",
                          write_variation=rate, config=enhance)
    rows = []
    try:
        for dataset in datasets:
            reads = evaluation_reads(dataset, num_reads)
            rows.append({
                "rate": rate,
                "technique": technique,
                "dataset": dataset,
                "accuracy": evaluate_accuracy(model, reads).mean_percent,
            })
    finally:
        design.release()
        model.set_activation_quant(None)
    return rows


def run(rates: tuple[float, ...] = DEFAULT_RATES,
        techniques: tuple[str, ...] = TECHNIQUE_ORDER,
        num_reads: int | None = None,
        datasets: tuple[str, ...] = DATASETS,
        enhance: EnhanceConfig | None = None,
        runner: SweepRunner | None = None) -> ExperimentRecord:
    num_reads = num_reads or scaled(8)
    enhance = enhance or EnhanceConfig()
    record = ExperimentRecord(
        experiment_id="fig11_enhance_writevar",
        description="Enhancement techniques vs write variation",
        settings={"rates": list(rates), "techniques": list(techniques),
                  "num_reads": num_reads},
    )
    plan = SweepPlan("fig11_enhance_writevar", [
        Job(fn="repro.experiments.fig11_enhance_writevar:evaluate_point",
            kwargs={"rate": rate, "technique": technique,
                    "datasets": tuple(datasets), "num_reads": num_reads,
                    "enhance": enhance},
            tag=f"fig11/wv{rate:g}/{technique}")
        for rate in rates for technique in techniques
    ])
    for rows in execute_plan(plan, runner):
        record.rows.extend(rows)
    return record


def main(record: ExperimentRecord | None = None) -> ExperimentRecord:
    record = record or run()
    rates = record.settings["rates"]
    techniques = record.settings["techniques"]
    acc: dict[tuple[float, str], list[float]] = {}
    for row in record.rows:
        acc.setdefault((row["rate"], row["technique"]), []).append(row["accuracy"])
    rows = []
    for technique in techniques:
        row = [technique]
        for rate in rates:
            row.append(float(np.mean(acc[(rate, technique)])))
        rows.append(row)
    print(render_table(
        "Fig. 11(f) — enhancement vs write variation "
        "(accuracy %, averaged over datasets)",
        ["technique"] + [f"wv={r:g}" for r in rates], rows))
    return record


if __name__ == "__main__":
    main()
