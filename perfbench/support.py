"""Inputs, output checks and the machine record shared by the workloads."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

from repro.genomics import get_dataset, sample_reads
from repro.serve.protocol import encode_bases

#: Log-normal read-length shape of ``repro.genomics.sample_reads``.
MEAN_LENGTH = 160
LENGTH_SIGMA = 0.35
MIN_LENGTH = 60


class CheckFailed(RuntimeError):
    """An output check failed; the run exits non-zero."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def held_out_reads(seed: int, stream: int, datasets: tuple[str, ...],
                   per_dataset: int) -> list:
    """Reads drawn from ``seed``, with the same length mix for every seed.

    Lengths are the ``per_dataset`` evenly spaced quantiles of the
    log-normal that ``sample_reads`` draws from, shuffled by the seed;
    positions, strands and squiggles are random.  Fixing the length mix
    keeps the amount of work per read set steady across seeds, so the
    seed moves the inputs without moving throughput.  The reads come
    from the evaluation genomes, which the baseline never trained on.
    """
    mu = np.log(MEAN_LENGTH) - LENGTH_SIGMA ** 2 / 2
    normal = statistics.NormalDist()
    reads = []
    for index, name in enumerate(datasets):
        rng = np.random.default_rng([seed, stream, index])
        lengths = [max(int(np.exp(mu + LENGTH_SIGMA * normal.inv_cdf(
            (i + 0.5) / per_dataset))), MIN_LENGTH)
            for i in range(per_dataset)]
        rng.shuffle(lengths)
        genome = get_dataset(name).genome()
        for k, length in enumerate(lengths):
            # A mean length of 1 puts every log-normal draw below
            # ``min_length``, so the read is exactly ``length`` bases.
            reads += sample_reads(genome, 1, rng, mean_length=1,
                                  min_length=length,
                                  id_prefix=f"{name}-s{stream}-{k}")
    return reads


def digest(outputs: dict[str, str]) -> str:
    """Order-independent digest of ``{read id: called bases}``."""
    h = hashlib.sha256()
    for read_id in sorted(outputs):
        h.update(f"{read_id}:{outputs[read_id]}\n".encode())
    return h.hexdigest()[:16]


def bases(codes: np.ndarray) -> str:
    """Base codes ``0..3`` as the ``ACGT`` string the server returns."""
    return encode_bases(np.asarray(codes))


_CODES = np.full(256, -1, dtype=np.int8)
_CODES[np.frombuffer(b"ACGT", dtype=np.uint8)] = np.arange(4)


def codes(called: str) -> np.ndarray:
    """Inverse of :func:`bases`."""
    return _CODES[np.frombuffer(called.encode("ascii"), dtype=np.uint8)]


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    rank = max(int(np.ceil(q * len(ordered))), 1)
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas() -> str:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy without mode="dicts"
        return "unknown"


def _rate(fn, min_seconds: float = 0.2) -> float:
    """Calls of ``fn`` per second, timed over at least ``min_seconds``."""
    fn()
    calls = 0
    started = time.perf_counter()
    while (elapsed := time.perf_counter() - started) < min_seconds:
        fn()
        calls += 1
    return calls / elapsed


def _interpreter_loop() -> None:
    """100k interpreted additions: on shared hosts the interpreter's
    speed drifted twice as much as numpy kernels did."""
    total = 0
    for i in range(100_000):
        total += i


def machine_record() -> dict:
    """Where a result came from; reported beside it, never compared."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((256, 256))
    b = rng.standard_normal((256, 256))
    gemm = _rate(lambda: a @ b)
    draws = _rate(lambda: rng.standard_normal(1_000_000))
    loop = _rate(_interpreter_loop)
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas(),
        "gemm256_gflops": round(gemm * 2 * 256 ** 3 / 1e9, 3),
        "normal_mdraws_per_s": round(draws, 3),
        "python_loop_mops": round(loop * 0.1, 3),
    }
