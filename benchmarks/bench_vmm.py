"""VMM backend benchmark: loop vs batched throughput.

Times the :mod:`repro.crossbar.engine` backends on

* a full deployed basecaller forward pass (tokens/s — output frames
  emitted per second through non-ideal crossbar banks), and
* a 256×256 LSTM layer forward pass tiled into 64×64 crossbars (the
  recurrent regime: one small-batch VMM per timestep, where per-tile
  Python overhead dominates the loop backend).

Standalone script — run it directly, not through pytest (it needs no
trained baseline, so it skips ``benchmarks/conftest``'s session-scoped
baseline fixture)::

    PYTHONPATH=src python benchmarks/bench_vmm.py [--smoke] [--out PATH]

Emits ``BENCH_vmm.json``.  Both exact backends draw identical per-tile
RNG streams, so every timed loop/batched pair computes the same numbers
— the speedup is pure execution-engine overhead, not modeling
shortcuts.
"""

from __future__ import annotations

import argparse
import json
import platform
import time

import numpy as np

from repro import __version__, nn
from repro.basecaller import BonitoConfig, BonitoModel
from repro.core import deploy, get_bundle
from repro.crossbar import CrossbarBank

#: Bundles timed for the LSTM microbenchmark.  ``write_only`` is the
#: engine-overhead measurement (per-call chain is deterministic, so the
#: entire loop/batched gap is execution machinery); the others show how
#: the gap narrows as per-call RNG draws — paid equally by both
#: backends — take over.
MICRO_BUNDLES = ("write_only", "dac_driver", "combined")

LSTM_INPUT = 256     # weight_ih is 256×256 — the titular matrix
LSTM_HIDDEN = 64
CROSSBAR_SIZE = 64


def _best_time(fn, repeats: int) -> float:
    """Minimum of ``repeats`` timed runs (after one warm-up).

    The minimum is the standard microbenchmark statistic: noise from
    the OS and allocator only ever adds time, so the fastest run is the
    closest observation of the code's intrinsic cost.
    """
    fn()  # warm-up (stack build, allocator)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# ----------------------------------------------------------------------
# Deployed-model tokens/s
# ----------------------------------------------------------------------

STACK_READS = 8  # matches ServeConfig.max_batch_reads


def bench_deployed(smoke: bool) -> dict:
    """Output frames per second through a deployed basecaller.

    Times three regimes per backend pair:

    * single read (B=1): ``speedup`` is batched-vs-loop at the
      pre-refactor serving shape;
    * stacked reads (B=``STACK_READS``, one forward): per-read
      throughput when compatible reads share a forward — the regime
      request stacking and ``basecall_signals`` unlocked.
      ``stacked_speedup`` compares it against the loop backend serving
      reads one at a time (the pre-refactor end-to-end system, which
      per-sample scaling did not exist to batch); ``loop_stacked`` is
      also recorded so the table stays honest about how much of the win
      is stacking vs execution engine.
    """
    samples = 512 if smoke else 2048
    repeats = 2 if smoke else 7
    rng = np.random.default_rng(0)
    signal = rng.standard_normal((1, samples))
    stacked = rng.standard_normal((STACK_READS, samples))

    result: dict = {"signal_samples": samples, "bundle": "combined",
                    "stack_reads": STACK_READS}
    for backend in ("loop", "batched"):
        model = BonitoModel(BonitoConfig())
        model.eval()
        deployed = deploy(model, get_bundle("combined"), crossbar_size=64,
                          write_variation=0.10, seed=0, backend=backend)
        frames = model.frames_for(samples)
        with nn.no_grad():
            elapsed = _best_time(lambda: model(signal), repeats)
            elapsed_stacked = _best_time(lambda: model(stacked), repeats)
        deployed.release()
        result[backend] = {"seconds_per_read": elapsed,
                           "tokens_per_s": frames / elapsed}
        result[f"{backend}_stacked"] = {
            "seconds_per_read": elapsed_stacked / STACK_READS,
            "tokens_per_s": frames * STACK_READS / elapsed_stacked,
        }
    result["speedup"] = (result["batched"]["tokens_per_s"]
                         / result["loop"]["tokens_per_s"])
    result["stacked_speedup"] = (result["batched_stacked"]["tokens_per_s"]
                                 / result["loop"]["tokens_per_s"])
    return result


# ----------------------------------------------------------------------
# 256×256-tiled LSTM layer forward pass
# ----------------------------------------------------------------------

def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _lstm_forward(bank_ih: CrossbarBank, bank_hh: CrossbarBank,
                  inputs: np.ndarray) -> np.ndarray:
    """Sequential LSTM steps whose two VMMs run on crossbar banks."""
    steps, batch, _ = inputs.shape
    h = np.zeros((batch, LSTM_HIDDEN))
    c = np.zeros((batch, LSTM_HIDDEN))
    n = LSTM_HIDDEN
    for t in range(steps):
        gates = bank_ih.vmm(inputs[t]) + bank_hh.vmm(h)
        act = _sigmoid(gates)  # gate order: input, forget, cell, output
        c = act[:, n:2 * n] * c + act[:, :n] * np.tanh(gates[:, 2 * n:3 * n])
        h = act[:, 3 * n:] * np.tanh(c)
    return h


def _lstm_forward_stacked(bank_ih: CrossbarBank, bank_hh: CrossbarBank,
                          inputs: np.ndarray) -> np.ndarray:
    """Timestep-stacked LSTM forward: one W_ih pass for all steps.

    The execution strategy ``nn.layers.LSTM._forward_deployed`` uses
    since per-sample DAC scaling decoupled batch rows — only the true
    recurrence (W_hh) pays a per-timestep VMM call.
    """
    steps, batch, features = inputs.shape
    n = LSTM_HIDDEN
    x_proj = bank_ih.vmm(
        inputs.reshape(steps * batch, features)).reshape(steps, batch, 4 * n)
    h = np.zeros((batch, n))
    c = np.zeros((batch, n))
    for t in range(steps):
        gates = x_proj[t] + bank_hh.vmm(h)
        act = _sigmoid(gates)
        c = act[:, n:2 * n] * c + act[:, :n] * np.tanh(gates[:, 2 * n:3 * n])
        h = act[:, 3 * n:] * np.tanh(c)
    return h


def bench_lstm(smoke: bool) -> dict:
    """Loop-vs-batched forward of an LSTM layer with a 256×256 W_ih.

    ``W_ih`` (256×256) tiles into a 4×4 grid of 64×64 crossbars and
    ``W_hh`` (64×256) into 1×4; each timestep is a batch-1 VMM pair —
    the throughput-critical shape of the deployed basecaller.
    """
    steps = 8 if smoke else 64
    repeats = 2 if smoke else 7
    rng = np.random.default_rng(1)
    w_ih = rng.standard_normal((LSTM_INPUT, 4 * LSTM_HIDDEN))
    w_hh = rng.standard_normal((LSTM_HIDDEN, 4 * LSTM_HIDDEN))
    inputs = rng.standard_normal((steps, 1, LSTM_INPUT))

    results: dict = {"steps": steps, "crossbar_size": CROSSBAR_SIZE,
                     "weight_ih": list(w_ih.shape),
                     "weight_hh": list(w_hh.shape), "bundles": {}}
    for bundle_name in MICRO_BUNDLES:
        config = get_bundle(bundle_name).crossbar_config(CROSSBAR_SIZE, 0.10)
        timings = {}
        for backend in ("loop", "batched"):
            bank_ih = CrossbarBank(w_ih, config, 7, backend=backend,
                                   name="lstm_ih")
            bank_hh = CrossbarBank(w_hh, config, 7, backend=backend,
                                   name="lstm_hh")
            elapsed = _best_time(
                lambda: _lstm_forward(bank_ih, bank_hh, inputs), repeats)
            timings[backend] = elapsed
            if backend == "batched":
                # The post-refactor execution strategy: per-sample DAC
                # scale lets W_ih run once for all timesteps.  Compared
                # against the loop per-step forward — the pre-refactor
                # execution — this is the bundle's end-to-end win.
                timings["stacked"] = _best_time(
                    lambda: _lstm_forward_stacked(bank_ih, bank_hh, inputs),
                    repeats)

        results["bundles"][bundle_name] = {
            "loop_ms_per_forward": timings["loop"] * 1e3,
            "batched_ms_per_forward": timings["batched"] * 1e3,
            "batched_stacked_ms_per_forward": timings["stacked"] * 1e3,
            "speedup": timings["loop"] / timings["batched"],
            "stacked_speedup": timings["loop"] / timings["stacked"],
        }
    return results


# ----------------------------------------------------------------------

def main(argv: list[str] | None = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for CI (seconds, not minutes)")
    parser.add_argument("--out", default="BENCH_vmm.json",
                        help="output JSON path (default: BENCH_vmm.json)")
    args = parser.parse_args(argv)

    payload = {
        "benchmark": "vmm_backends",
        "version": __version__,
        "smoke": args.smoke,
        "platform": platform.platform(),
        "lstm_256x256": bench_lstm(args.smoke),
        "deployed_model": bench_deployed(args.smoke),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)

    lstm = payload["lstm_256x256"]
    print(f"VMM backends ({'smoke' if args.smoke else 'full'}), "
          f"repro {__version__}")
    print(f"LSTM 256x256 @ {CROSSBAR_SIZE}x{CROSSBAR_SIZE} tiles, "
          f"{lstm['steps']} steps:")
    for name, row in lstm["bundles"].items():
        print(f"  {name:12s} loop {row['loop_ms_per_forward']:8.2f} ms  "
              f"batched {row['batched_ms_per_forward']:8.2f} ms  "
              f"({row['speedup']:.2f}x)  "
              f"stacked {row['batched_stacked_ms_per_forward']:8.2f} ms  "
              f"({row['stacked_speedup']:.2f}x)")
    deployed = payload["deployed_model"]
    print(f"deployed model ({deployed['bundle']}): "
          f"{deployed['loop']['tokens_per_s']:.1f} -> "
          f"{deployed['batched']['tokens_per_s']:.1f} tokens/s "
          f"({deployed['speedup']:.2f}x)")
    print(f"stacked x{deployed['stack_reads']} reads:   "
          f"{deployed['loop']['tokens_per_s']:.1f} -> "
          f"{deployed['batched_stacked']['tokens_per_s']:.1f} tokens/s "
          f"({deployed['stacked_speedup']:.2f}x end-to-end; "
          f"loop stacked {deployed['loop_stacked']['tokens_per_s']:.1f})")
    print(f"wrote {args.out}")
    return payload


if __name__ == "__main__":
    main()
