"""Per-layer attribution for the traced run.

Each layer is timed from the outside: :class:`LayerWraps` replaces the
public entry points of every layer with wrappers that open a span
around the call, and restores them on exit.  No program file changes.
The program's own spans (``vmm`` and its ``vmm.<stage>`` children,
``runtime.sweep``/``runtime.job``, ``serve.batch``/``serve.stack``)
nest under these, because spans nest per thread.  :func:`layer_metrics`
folds the spans with ``repro.observability.build_flame_table``.
"""

from __future__ import annotations

import contextlib
import functools
import os
from pathlib import Path

import repro.basecaller.decode as decode
import repro.basecaller.evaluate as evaluate
import repro.core as core
import repro.experiments.fig08_nonidealities as fig08
import repro.nn as nn
import repro.serve.engine as serve_engine
from repro.basecaller import BonitoModel
from repro.observability import (ENV_TRACE, build_flame_table, get_tracer,
                                 load_span_events, trace_span)
from repro.reliability import HealthMonitor
from repro.runtime import SweepRunner

#: Root span the in-process workloads open around the traced block.
ROOT_SPAN = "perfbench.pass"

#: Crossbar banks of the default ``BonitoConfig()``: ``layer.slot``,
#: where an LSTM's slots are its stacked input pass (``ih``) and its
#: per-step recurrence (``hh``).
BANKS = ("conv0.w", "conv1.w", "lstm0.ih", "lstm0.hh", "lstm1.ih",
         "lstm1.hh", "skip.w", "decoder.w")
_SLOTS = {1: ("w",), 2: ("ih", "hh")}

#: ``vmm.<stage>`` spans of the exact VMM kernel, timed as self time.
STAGES = ("rng", "dac", "conductance", "matmul", "wires", "adc", "digital")

#: Entry points wrapped in a span of their own: (owner, attribute, span).
_SPANS = (
    (fig08, "run", "experiments.fig08"),
    (SweepRunner, "run", "runtime.run"),
    (decode, "basecall_reads", "basecaller.basecall_reads"),
    (nn, "greedy_decode", "basecaller.decode"),
    (evaluate, "read_accuracy", "genomics.align"),
    (HealthMonitor, "check_array", "reliability.check_array"),
)


@contextlib.contextmanager
def patched(owner: object, attr: str, make):
    """Replace ``owner.attr`` with ``make(original)`` for the body."""
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


@contextlib.contextmanager
def tracing(path: Path):
    """Write the spans of the ``with`` body to ``path``."""
    os.environ[ENV_TRACE] = str(path)
    tracer = get_tracer()
    try:
        yield
    finally:
        tracer.flush()
        del os.environ[ENV_TRACE]
        tracer.close()


def load_events(path: Path) -> list[dict]:
    """The span events of a trace file, which is then removed."""
    events = load_span_events(path) if path.exists() else []
    path.unlink(missing_ok=True)
    return events


def _spanned(name: str, fn):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        with trace_span(name):
            return fn(*args, **kwargs)
    return wrapped


def _forward_wrapper(original):
    @functools.wraps(original)
    def forward(self, signal, *args, **kwargs):
        with trace_span("nn.forward", reads=signal.shape[0]):
            return original(self, signal, *args, **kwargs)
    return forward


class LayerWraps(contextlib.ExitStack):
    """The span wrappers, installed for the ``with`` body."""

    def wrap_banks(self, deployed) -> None:
        """Give every bank of a deployed model its own span."""
        for layer, banks in deployed.banks.items():
            for bank, slot in zip(banks, _SLOTS[len(banks)]):
                self.enter_context(patched(bank, "vmm", functools.partial(
                    _spanned, f"crossbar.bank.{layer}.{slot}")))

    def _deploy_wrapper(self, original):
        @functools.wraps(original)
        def deploy(*args, **kwargs):
            with trace_span("core.deploy"):
                deployed = original(*args, **kwargs)
            self.wrap_banks(deployed)
            return deployed
        return deploy

    def __enter__(self) -> "LayerWraps":
        super().__enter__()
        for owner in (core, fig08, serve_engine):
            self.enter_context(patched(owner, "deploy", self._deploy_wrapper))
        self.enter_context(patched(BonitoModel, "forward", _forward_wrapper))
        for owner, attr, name in _SPANS:
            self.enter_context(patched(owner, attr,
                                       functools.partial(_spanned, name)))
        return self


def layer_metrics(events: list[dict]) -> dict[str, float]:
    """Per-layer metrics from one traced run's span events.

    A layer that did no work in the run reports 0.
    """
    rows = {row.name: row for row in build_flame_table(events)}

    def count(name: str) -> int:
        return rows[name].count if name in rows else 0

    def total(name: str) -> float:
        return rows[name].total_s if name in rows else 0.0

    def own(name: str) -> float:
        return rows[name].self_s if name in rows else 0.0

    def attr_sum(name: str, key: str) -> float:
        return float(sum(e.get(key, 0) for e in events if e["name"] == name))

    bank_s = {bank: total(f"crossbar.bank.{bank}") for bank in BANKS}
    vmm_s = sum(bank_s.values())
    calls = count("vmm")
    forwards = count("nn.forward")
    metrics = {
        "crossbar.vmm_calls": calls,
        "crossbar.vmm_rows_per_call":
            attr_sum("vmm", "batch") / calls if calls else 0.0,
        "crossbar.vmm_s": vmm_s,
        "crossbar.vmm_us_per_call": vmm_s / calls * 1e6 if calls else 0.0,
    }
    metrics.update({f"crossbar.vmm_s.{bank}": s for bank, s in bank_s.items()})
    metrics.update({f"crossbar.stage_s.{stage}": own(f"vmm.{stage}")
                    for stage in STAGES})
    metrics["crossbar.stage_s.dispatch"] = own("vmm") + sum(
        own(f"crossbar.bank.{bank}") for bank in BANKS)
    metrics.update({
        "nn.forward_self_s": own("nn.forward"),
        "basecaller.forwards": forwards,
        "basecaller.reads_per_forward":
            attr_sum("nn.forward", "reads") / forwards if forwards else 0.0,
        "basecaller.decode_s": total("basecaller.decode"),
        "genomics.align_calls": count("genomics.align"),
        "genomics.align_s": total("genomics.align"),
        "core.deploy_calls": count("core.deploy"),
        "core.deploy_s": total("core.deploy"),
        "runtime.jobs": count("runtime.job"),
        "runtime.failed_jobs": sum(1 for e in events
                                   if e["name"] == "runtime.job"
                                   and "error" in e),
        "runtime.job_s": total("runtime.job"),
        "runtime.overhead_s": max(total("runtime.run")
                                  - total("runtime.job"), 0.0),
        "reliability.health_check_s": total("reliability.check_array"),
    })
    if ROOT_SPAN in rows:
        metrics["observability.unattributed_share"] = (own(ROOT_SPAN)
                                                       / total(ROOT_SPAN))
    return metrics


def parse_prometheus(text: str) -> dict[str, float]:
    """``{sample name with labels: value}`` from a Prometheus text dump."""
    samples = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            key, _, value = line.rpartition(" ")
            samples[key] = float(value)
    return samples


def serve_metrics(before: dict[str, float],
                  after: dict[str, float]) -> dict[str, float]:
    """``serve.*`` metrics between two scrapes of the server.

    Means come from the ``_sum``/``_count`` deltas, so they cover only
    the requests between the scrapes; quantiles are the server's
    reservoir at the second scrape.
    """
    def delta(key: str) -> float:
        return after.get(key, 0.0) - before.get(key, 0.0)

    def mean(name: str) -> float:
        n = delta(f"swordfish_serve_{name}_count")
        return delta(f"swordfish_serve_{name}_sum") / n if n else 0.0

    def q(name: str, quantile: str) -> float:
        return after.get(f'swordfish_serve_{name}{{quantile="{quantile}"}}',
                         0.0)

    errors = sum(after[k] - before.get(k, 0.0) for k in after
                 if k.startswith("swordfish_serve_errors_total"))
    return {
        "serve.queue_ms.p50": q("queue_ms", "0.5"),
        "serve.queue_ms.p95": q("queue_ms", "0.95"),
        "serve.compute_ms.p50": q("compute_ms", "0.5"),
        "serve.compute_ms.p95": q("compute_ms", "0.95"),
        "serve.batch_occupancy_mean": mean("batch_occupancy"),
        "serve.stack_size_mean": mean("stack_size"),
        "serve.errors": errors,
    }
