"""Repo policy consumed by the analyzer rules.

Everything here is data, so tests can substitute a narrow
:class:`AnalysisConfig` (e.g. scope patterns that match fixture
files) without monkeypatching the rules themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["AnalysisConfig", "DEFAULT_CONFIG", "CACHE_EXCLUDED_FIELDS"]


# Fields deliberately excluded from a config class's cache key.  Every
# entry needs a human-readable justification; SWD002 treats an empty
# justification (or an entry for a covered/unknown field) as a
# violation, so this list cannot silently rot.
CACHE_EXCLUDED_FIELDS: dict[str, dict[str, str]] = {
    "SwordfishConfig": {
        # The two VMM backends (loop/batched) are bitwise-identical, so
        # the backend must not split the cache: runtime.cache.job_key
        # strips vmm_backend (after resolving it, so a garbage value
        # still fails fast).
        "vmm_backend": "the exact backends are bitwise-identical; "
                       "job_key strips the backend so they share entries",
    },
    "CrossbarConfig": {
        # Same contract one level down: CrossbarConfig.backend selects
        # the tile-engine execution path, never the result.
        "backend": "the exact backends are bitwise-identical; the "
                   "design-point key is execution-agnostic by contract",
    },
}


@dataclass(frozen=True)
class AnalysisConfig:
    """Scopes and policy tables for the rule set."""

    # SWD002: dataclasses whose fields must reach to_dict/cache_key.
    config_classes: tuple[str, ...] = (
        "SwordfishConfig", "CrossbarConfig", "BonitoConfig", "EnhanceConfig",
    )
    cache_excluded_fields: dict[str, dict[str, str]] = field(
        default_factory=lambda: CACHE_EXCLUDED_FIELDS)

    # SWD003: hot kernels with a strict float64 convention.  A path
    # matches when it contains any of these substrings.
    dtype_scope: tuple[str, ...] = ("repro/crossbar/",)

    # SWD004: modules whose functions must not mutate caller arrays.
    alias_scope: tuple[str, ...] = ("repro/crossbar/",)

    # SWD005: numeric modules (division / float-equality hygiene).
    numeric_scope: tuple[str, ...] = ("src/repro/",)
    numeric_exclude: tuple[str, ...] = ("repro/analysis/",)

    # SWD007: fault-handling layers where a silently swallowed broad
    # exception defeats the layer's purpose.
    swallow_scope: tuple[str, ...] = ("repro/reliability/", "repro/runtime/",
                                      "repro/serve/")

    # SWD008: modules where time.time() must not measure durations
    # (perf_counter / wall_now only; stamps need an explicit swd-ok).
    perf_scope: tuple[str, ...] = ("src/repro/",)

    # SWD009/SWD013: code where coroutines live (the serve stack plus
    # anything async in examples/benchmarks drives the same loop).
    async_scope: tuple[str, ...] = ("src/repro/", "examples/", "benchmarks/")

    # SWD010: modules whose lock-owning classes are shared across
    # threads (serve engine leasing, observability sinks, runtime
    # telemetry, the DeployedModel RNG-epoch contract).
    lock_scope: tuple[str, ...] = ("src/repro/",)

    # SWD011: resource-lifecycle discipline (executors/pools/sockets/
    # file handles need `with`, a tracked handle, or class-wide cleanup).
    lifecycle_scope: tuple[str, ...] = ("src/repro/", "examples/",
                                        "benchmarks/")

    # SWD012: fork-safety — SweepRunner-style process spawns must not
    # follow thread/event-loop creation in the same function, nor run
    # from coroutine/worker-thread context.
    fork_scope: tuple[str, ...] = ("src/repro/", "examples/", "benchmarks/")

    def in_scope(self, rel: str, patterns: tuple[str, ...],
                 exclude: tuple[str, ...] = ()) -> bool:
        rel = rel.replace("\\", "/")
        if any(pattern in rel for pattern in exclude):
            return False
        return any(pattern in rel for pattern in patterns)


DEFAULT_CONFIG = AnalysisConfig()
