"""Self-test of the benchmark at tiny size.

Run from the root of a checkout::

    python3 perfbench/selftest.py

Checks that every workload, untraced and traced, prints exactly the
metric names and units of ``BENCHMARK.json``; that each output check
fails the run when its output is corrupted on purpose; and that a
directory holding only the benchmark fails without printing a result.
Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
WORKLOADS = ("sweep_fig08", "offline_256_combined", "serve_open_64")

#: (check broken on purpose, workload, traced run) — every output check
#: on every path that runs it.
CORRUPTIONS = (
    ("served_offline", "serve_open_64", 0),
    ("traced_untraced", "offline_256_combined", 1),
    ("traced_untraced", "serve_open_64", 1),
    ("sweep_jobs", "sweep_fig08", 0),
    ("baseline_floor", "sweep_fig08", 0),
)


def run(workload: str, trace: int, *extra: str,
        script: Path = RUN, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc: subprocess.CompletedProcess) -> dict | None:
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return last if isinstance(last, dict) and "correct" in last else None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(workload, trace)
            printed = result(proc)
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = ({name: m["unit"] for name, m in printed["metrics"].items()}
                   if printed else None)
            ok = (proc.returncode == 0 and printed is not None
                  and printed["correct"] is True and printed["attempted"] >= 1
                  and got == expected)
            print(f"{'ok  ' if ok else 'FAIL'} {workload} trace={trace}: "
                  f"metric names and units match BENCHMARK.json")
            if not ok:
                failures.append((workload, trace, proc.stderr[-2000:]))
    for check, workload, trace in CORRUPTIONS:
        proc = run(workload, trace, "--corrupt", check)
        ok = (proc.returncode == 1 and result(proc) is None
              and "output check failed" in proc.stderr)
        print(f"{'ok  ' if ok else 'FAIL'} {workload} trace={trace}: "
              f"corrupted {check} fails the run")
        if not ok:
            failures.append((check, workload, proc.stderr[-2000:]))

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(WORKLOADS[0], 0, script=bare / "perfbench" / "run.py",
                   cwd=bare)
    finally:
        shutil.rmtree(bare)
    ok = proc.returncode not in (0, None) and result(proc) is None
    print(f"{'ok  ' if ok else 'FAIL'} the benchmark alone fails without a "
          f"result (exit {proc.returncode})")
    if not ok:
        failures.append(("bare", proc.stdout[-2000:]))

    for failure in failures:
        print("failure:", *failure, sep="\n  ", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
