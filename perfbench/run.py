"""One benchmark for the Swordfish simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (why each was chosen, and what ``setup_s`` covers, is in
``perfbench/README.md``):

* ``sweep_fig08`` — the Fig. 8 grid through a serial, uncached
  ``SweepRunner``;
* ``offline_256_combined`` — ``basecall_reads`` on the ``combined``
  bundle at 256×256;
* ``serve_open_64`` — open-loop arrivals against ``python -m
  repro.serve``.

``--trace 0`` measures for ``--seconds`` and prints the end-to-end
metrics; ``--trace 1`` runs the workload untraced and traced, checks the
two give the same outputs, and prints the per-layer metrics.  Metric
names and units come from ``BENCHMARK.json``.  The last line of
standard output is the result as one JSON object.  A failed output
check exits 1 without printing a result; a checkout without the
program's sources exits 2.

The first run in a checkout trains the default baseline into
``.bench_build/`` (a few minutes, not part of ``setup_s``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"

#: Per-workload sizes: ``full`` is the measured run, ``trace`` the
#: traced run where it differs, ``tiny`` the self-test.
SIZES = {
    "sweep_fig08": {
        "full": {"per_dataset": 2, "blocks": 4},
        "trace": {"per_dataset": 1, "blocks": 1},
        "tiny": {"per_dataset": 1, "blocks": 1},
    },
    "offline_256_combined": {
        "full": {"per_dataset": 16, "blocks": 2},
        "trace": {"per_dataset": 4, "blocks": 1},
        "tiny": {"per_dataset": 2, "blocks": 1},
    },
    "serve_open_64": {
        "full": {"per_dataset": 128, "rate": 20.0, "replay": 16},
        "tiny": {"per_dataset": 4, "rate": 4.0, "replay": 2},
    },
}

#: Output checks the self-test breaks on purpose (``--corrupt``).
CORRUPTIONS = ("served_offline", "traced_untraced", "sweep_jobs",
               "baseline_floor")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--corrupt", choices=CORRUPTIONS,
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def build_baseline() -> Path:
    """The trained default baseline, built once per checkout.

    Training runs in a child process so that its memory never counts in
    a run's ``peak_rss_mb``.  The registry cache under ``.bench_build``
    serves the in-process workloads; the server loads the checkpoint.
    """
    checkpoint = BUILD / "baseline.npz"
    if not checkpoint.exists():
        code = ("import sys; from repro import nn; "
                "from repro.basecaller import default_model; "
                "nn.save_checkpoint(default_model(), sys.argv[1])")
        subprocess.run([sys.executable, "-c", code, str(checkpoint)],
                       env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                       check=True, stdout=sys.stderr)
    return checkpoint


def make_workload(args: argparse.Namespace, checkpoint: Path):
    import workloads

    sizes = SIZES[args.workload]
    mode = "tiny" if args.tiny else "trace" if args.trace else "full"
    size = sizes.get(mode, sizes["full"])
    if args.workload == "serve_open_64":
        return workloads.ServeOpen64(ROOT, checkpoint, args.seed,
                                     corrupt=args.corrupt, **size)
    cls = {"sweep_fig08": workloads.SweepFig08,
           "offline_256_combined": workloads.Offline256Combined}
    return cls[args.workload](args.seed, corrupt=args.corrupt, **size)


def cold_setup_s(args: argparse.Namespace) -> float:
    """Seconds from starting a fresh process to the end of its set-up.

    A fresh process pays every import, load and cache fill, so work
    moved into any of them shows in ``setup_s``.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--setup-only"] + ["--tiny"] * args.tiny
    started = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline().strip() == "ready"
        elapsed = time.perf_counter() - started
    if not ready or proc.returncode:
        raise RuntimeError(f"set-up process failed: {proc.returncode}")
    return elapsed


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # Only the benchmark decides how the program runs.
    for key in [k for k in os.environ if k.startswith("SWORDFISH_")]:
        del os.environ[key]
    os.environ["SWORDFISH_CACHE"] = str(BUILD / "swordfish-cache")
    BUILD.mkdir(exist_ok=True)
    sys.path.insert(0, str(ROOT / "src"))
    checkpoint = build_baseline()
    if args.setup_only:
        make_workload(args, checkpoint).setup()
        print("ready", flush=True)
        return 0

    import support
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    machine = support.machine_record()
    workload = make_workload(args, checkpoint)
    trace_path = BUILD / f"trace-{os.getpid()}.jsonl"
    try:
        serve = args.workload == "serve_open_64"
        if args.trace:
            outcome = (workload.trace(trace_path, args.seconds) if serve
                       else workload.trace(trace_path))
        elif serve:  # set-up is the server start, timed by the workload
            outcome = workload.measure(args.seconds)
        else:
            setups = [cold_setup_s(args) for _ in range(workloads.SETUP_REPS)]
            outcome = workload.measure(args.seconds)
            outcome.metrics["setup_s"] = statistics.median(setups)
            outcome.notes.append(
                f"cold set-ups {[round(s, 3) for s in setups]} s")
    except support.CheckFailed as exc:
        print(f"perfbench: output check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        trace_path.unlink(missing_ok=True)
    if set(outcome.metrics) != set(units):
        print(f"perfbench: metrics {sorted(outcome.metrics)} do not match "
              f"BENCHMARK.json {sorted(units)}", file=sys.stderr)
        return 1

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{outcome.attempted} attempted, {outcome.failed} failed")
    for note in outcome.notes:
        print(f"  {note}")
    for name in units:
        print(f"  {name:40s} {outcome.metrics[name]:14.6g} {units[name]}")
    print(json.dumps({"machine": machine}))
    print(json.dumps({
        "correct": True,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": float(outcome.metrics[name]),
                           "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
