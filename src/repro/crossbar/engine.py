"""Batched tile-engine: bank-level execution backends for non-ideal VMMs.

Every accuracy experiment funnels through :meth:`CrossbarBank.vmm`; the
historical implementation looped over tiles in Python and re-ran the
DAC → conductance → ADC chain once per tile per call.  This module
inverts that data layout (the RxNN / DNN+NeuroSim approach): a
:class:`TileEngine` pre-stacks the bank's per-tile effective
conductances, SRAM masks, and geometry into zero-padded ``(tiles, size,
size)`` arrays and executes the whole bank as one vectorized pass —
batched DAC, read noise, IR droop, sneak leakage, and ADC across all
tiles at once — without changing the modeled physics.  A per-bank plan
(:class:`_VmmPlan`) runs only the stages the design point enables, and
applies read noise only over the tiles' true extents.

Two backends are registered:

* ``"loop"``    — the reference path: per-tile :meth:`CrossbarTile.vmm`
  calls, exactly the pre-refactor code.  Authoritative for physics.
* ``"batched"`` — the vectorized default.  Numerically equivalent to
  the loop backend (same per-tile RNG streams, same operation order per
  element; see ``tests/test_engine.py`` for the tolerance contract).

Selection: ``CrossbarConfig.backend`` wins when set; otherwise the
``SWORDFISH_VMM_BACKEND`` environment variable; otherwise ``"batched"``.
Because the two backends are bitwise-identical, the choice never
reaches a cache key.

Equivalence rests on per-tile RNG streams: each tile owns an
independent :class:`numpy.random.Generator` spawned from the bank's
seed (see :func:`spawn_generators`), so neither the backend choice nor
the tile evaluation order can change which noise a tile sees.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np

from ..observability import get_metrics, trace_span, tracing_enabled

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .crossbar import CrossbarBank

__all__ = [
    "BACKENDS",
    "BackendResolutionError",
    "DEFAULT_BACKEND",
    "ENV_BACKEND",
    "TileEngine",
    "TileStacks",
    "available_backends",
    "iter_tile_blocks",
    "resolve_backend",
    "spawn_generators",
    "tile_grid",
]

ENV_BACKEND = "SWORDFISH_VMM_BACKEND"
DEFAULT_BACKEND = "batched"

# The batched kernel never executes a matmul with a single batch row:
# BLAS picks a different (gemv-style) code path for one-row operands
# whose accumulation order differs from the gemm path at the last ulp.
# Padding B=1 up to this canonical minimum keeps every row's result
# bitwise-identical whether it arrives alone or stacked with other rows
# (see tests/test_batch_invariance.py for the platform probe).
_MIN_KERNEL_BATCH = 2


# ----------------------------------------------------------------------
# Tile geometry (shared with repro.core.partition)
# ----------------------------------------------------------------------

def tile_grid(shape: tuple[int, int], size: int) -> tuple[int, int]:
    """Number of (row, column) tile blocks covering a weight matrix."""
    rows, cols = shape
    return (-(-rows // size), -(-cols // size))


def iter_tile_blocks(shape: tuple[int, int], size: int
                     ) -> Iterator[tuple[int, int, slice, slice]]:
    """Yield ``(block_row, block_col, row_slice, col_slice)`` row-major.

    Every block except the last of each axis spans the full ``size``;
    the trailing blocks are ragged when the matrix does not divide
    evenly — the same tiling :class:`CrossbarBank` programs and
    ``repro.core.partition`` counts.
    """
    rows, cols = shape
    grid_rows, grid_cols = tile_grid(shape, size)
    for i in range(grid_rows):
        row_slice = slice(i * size, min((i + 1) * size, rows))
        for j in range(grid_cols):
            col_slice = slice(j * size, min((j + 1) * size, cols))
            yield i, j, row_slice, col_slice


# ----------------------------------------------------------------------
# Per-tile RNG streams
# ----------------------------------------------------------------------

def _tile_generator(seed) -> np.random.Generator:
    """A tile-stream generator over the framework's bit generator.

    Tile streams use SFC64: per-read conductance jitter makes fresh
    mismatch draws the single largest cost of a non-ideal VMM on either
    backend, and SFC64 generates ~20% faster than PCG64 at equal
    statistical quality for this use (no stream-jump API is needed —
    independence comes from SeedSequence spawning).
    """
    return np.random.Generator(np.random.SFC64(seed))


def spawn_generators(rng, n: int) -> list[np.random.Generator]:
    """``n`` independent child generators derived from ``rng``.

    Accepts a :class:`~numpy.random.Generator`, a
    :class:`~numpy.random.SeedSequence`, or an integer seed.  Children
    come from SeedSequence spawning, so each stream is statistically
    independent and — crucially — insensitive to how many draws any
    *other* stream has consumed.  Generators built without a seed
    sequence (raw bit-generator state) fall back to seeding children
    from drawn entropy.  Both VMM backends consume these same streams,
    so the bit-generator choice never affects loop/batched equivalence.
    """
    if n < 0:
        raise ValueError("cannot spawn a negative number of generators")
    if isinstance(rng, np.random.SeedSequence):
        return [_tile_generator(child) for child in rng.spawn(n)]
    if isinstance(rng, (int, np.integer)):
        seq = np.random.SeedSequence(int(rng))
        return [_tile_generator(child) for child in seq.spawn(n)]
    if isinstance(rng, np.random.Generator):
        try:
            seq = rng.bit_generator.seed_seq
        except AttributeError:
            seq = None
        if isinstance(seq, np.random.SeedSequence):
            return [_tile_generator(child) for child in seq.spawn(n)]
        return [_tile_generator(int(rng.integers(2 ** 63)))
                for _ in range(n)]
    raise TypeError(f"cannot spawn generators from {type(rng).__name__}")


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------

class BackendResolutionError(ValueError):
    """A backend preference named no registered backend.

    Structured so callers (CLI, serve, cache) can render the offending
    value, where it came from, and the valid choices without parsing
    the message.  Subclasses :class:`ValueError` for compatibility with
    pre-existing ``except ValueError`` call sites.
    """

    def __init__(self, requested: object, source: str,
                 available: tuple[str, ...]):
        self.requested = requested
        self.source = source
        self.available = available
        super().__init__(
            f"unknown VMM backend {requested!r} (from {source}); "
            f"available backends: {', '.join(available)}")


def resolve_backend(preference: str | None = None) -> str:
    """Resolve a backend name: explicit config > env var > default.

    Fails fast with :class:`BackendResolutionError` on any unknown
    name — including a garbage ``SWORDFISH_VMM_BACKEND`` value, which
    previously survived until deep inside ``execute``.
    """
    name = preference
    source = "explicit configuration"
    if name is None:
        env_value = os.environ.get(ENV_BACKEND)
        if env_value:
            name = env_value
            source = f"the {ENV_BACKEND} environment variable"
        else:
            name = DEFAULT_BACKEND
            source = "the built-in default"
    if not isinstance(name, str):
        raise BackendResolutionError(name, source, available_backends())
    name = name.strip().lower()
    if name not in BACKENDS:
        raise BackendResolutionError(name, source, available_backends())
    return name


def available_backends() -> tuple[str, ...]:
    return tuple(sorted(BACKENDS))


# ----------------------------------------------------------------------
# Stacked per-bank state
# ----------------------------------------------------------------------

@dataclass
class TileStacks:
    """Zero-padded ``(tiles, size, size)`` mirrors of a bank's tiles.

    ``effective``/``ideal``/``sram`` are zero-padded copies of the
    per-tile arrays; ``analog`` and ``digital`` are the derived VMM
    operands (SRAM-resident cells contribute digitally, everything else
    through the analog array).  Padded cells are zero in every operand,
    so they can never contribute to an output column.  Whole-matrix
    assembly and RSA placement read the padded layout; so does the
    fused kernel, except that read noise touches only the tiles' true
    extents (:class:`_VmmPlan`).  Every sync rewrites the stacks in
    place, so the plan's references to them stay current.
    """

    effective: np.ndarray      # (T, S, S) float64, zero-padded
    ideal: np.ndarray          # (T, S, S) float64, zero-padded
    sram: np.ndarray           # (T, S, S) bool
    analog: np.ndarray         # (T, S, S) = where(sram, 0, effective)
    digital: np.ndarray        # (T, S, S) = where(sram, ideal, 0)
    rows: np.ndarray           # (T,) float64 — true (unpadded) tile rows
    cols: np.ndarray           # (T,) int64 — true tile cols
    w_max: np.ndarray          # (T,) float64
    row_block: np.ndarray      # (T,) int64 — which input slice feeds the tile
    has_sram: bool

    def refresh_derived(self) -> None:
        """Recompute ``analog``/``digital`` in place after a sync."""
        np.copyto(self.analog, self.effective)
        self.analog[self.sram] = 0.0
        self.digital.fill(0.0)
        self.digital[self.sram] = self.ideal[self.sram]
        self.has_sram = bool(self.sram.any())


class _RngPlan:
    """Fused per-call RNG layout for the batched backend.

    The loop backend draws each tile's mismatch in up to five stages
    (DAC gain, DAC offset, read jitter, ADC gain, ADC offset) from the
    tile's own generator.  A single ``standard_normal`` call filling a
    contiguous per-tile slice of one flat buffer consumes the stream
    identically (chunked draws are bitwise-equal to stage-by-stage
    draws), so the plan precomputes, per enabled stage, vectorized
    gather/scatter index arrays over the tiles' true ``rows``/``cols``
    — replacing five Python-per-tile fill loops with one draw loop and
    a handful of array ops.  Draw counts depend only on tile geometry,
    never on the batch, which is what keeps served results independent
    of batch composition.

    Per-row and per-column stage buffers are ``(tiles, size)`` with
    neutral padding (1 for gains, 0 for offsets); scatters only touch
    the true rows/columns, so padding stays neutral across reuse.
    ``jitter`` holds the read-noise draws of each tile's true cells.
    When every tile shares one shape it is a ``(tiles, rows, cols)``
    view of the draw buffer itself, so the draw fills it and nothing is
    copied.  Otherwise it is a zero-padded ``(tiles, size, size)``
    scatter target.  ``adc_offset_raw`` holds ``draw * offset_std`` —
    the per-sample ADC full scale multiplies in at execution time.
    """

    def __init__(self, engine: "TileEngine"):
        st = engine.stacks()
        config = engine.config
        size = config.size
        count = engine.num_tiles
        rows = st.rows.astype(np.int64)
        cols = st.cols
        dac, adc = config.dac, config.adc

        # (name, per-tile draw lengths, post-multipliers, post-addend) in
        # the exact order the loop backend consumes each tile's stream.
        specs: list[tuple[str, np.ndarray, tuple[float, ...], float | None]] = []
        if dac.gain_std > 0:
            specs.append(("dac_gain", rows, (dac.gain_std,), 1.0))
        if dac.offset_std > 0:
            specs.append(("dac_offset", rows, (dac.offset_std, dac.v_max), None))
        if config.device.read_noise > 0:
            specs.append(("jitter", rows * cols, (), None))
        if adc.gain_std > 0:
            specs.append(("adc_gain", cols, (adc.gain_std,), 1.0))
        if adc.offset_std > 0:
            specs.append(("adc_offset", cols, (adc.offset_std,), None))

        counts = np.zeros(count, dtype=np.int64)
        for _, lens, _, _ in specs:
            counts += lens
        starts = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(counts, out=starts[1:])
        self.counts = counts
        self.starts = starts
        self.total = int(starts[-1])
        self.active = self.total > 0
        self.draws = np.empty(self.total)

        # Per-bank uniform geometry (every tile shares one (rows, cols)
        # shape — true for full S×S grids *and* for single-block-row
        # banks such as an LSTM's (hidden, 4*hidden) weights): every
        # per-tile draw block has the same stride, so each stage is a
        # strided *view* of the flat draw buffer — no gather/scatter
        # indices at all, and the jitter stage is the draws themselves.
        rows0 = int(rows[0]) if count else 0
        cols0 = int(cols[0]) if count else 0
        self.uniform = bool(count > 0 and np.all(rows == rows0)
                            and np.all(cols == cols0))

        self.dac_gain = np.ones((count, size)) if dac.gain_std > 0 else None
        self.dac_offset = np.zeros((count, size)) if dac.offset_std > 0 else None
        self.jitter = (np.zeros((count, size, size))
                       if config.device.read_noise > 0 and not self.uniform
                       else None)
        self.adc_gain = np.ones((count, size)) if adc.gain_std > 0 else None
        self.adc_offset_raw = (np.zeros((count, size))
                               if adc.offset_std > 0 else None)
        bufs = {"dac_gain": self.dac_gain, "dac_offset": self.dac_offset,
                "jitter": self.jitter, "adc_gain": self.adc_gain,
                "adc_offset": self.adc_offset_raw}

        self.view_stages: list[tuple[np.ndarray, np.ndarray,
                                     tuple[float, ...], float | None]] = []
        if self.uniform and self.active:
            stride = int(counts[0])
            mat = self.draws.reshape(count, stride)
            self.draws_mat = mat
            col = 0
            for name, lens, mults, add in specs:
                n = int(lens[0])
                view = mat[:, col:col + n]
                col += n
                if name == "jitter":
                    # Row-major cells, as the loop backend's
                    # ``standard_normal((rows, cols))`` fill.
                    self.jitter = view.reshape(count, rows0, cols0)
                    assert np.may_share_memory(self.jitter, self.draws)
                else:
                    self.view_stages.append((view, bufs[name][:, :n],
                                             mults, add))

        # Broadcast views over the batch axis, built once: the stage
        # buffers are updated in place by :meth:`fill`, so these views
        # stay current across calls.
        self.dac_gain_b = (self.dac_gain[:, None, :]
                           if self.dac_gain is not None else None)
        self.dac_offset_b = (self.dac_offset[:, None, :]
                             if self.dac_offset is not None else None)
        self.adc_gain_b = (self.adc_gain[:, None, :]
                           if self.adc_gain is not None else None)
        self.adc_offset_raw_b = (self.adc_offset_raw[:, None, :]
                                 if self.adc_offset_raw is not None else None)

        self.stages: list[tuple[np.ndarray, np.ndarray, np.ndarray,
                                tuple[float, ...], float | None]] = []
        if self.uniform:
            return
        offsets = np.zeros(count, dtype=np.int64)
        for name, lens, mults, add in specs:
            src_parts: list[np.ndarray] = []
            dst_parts: list[np.ndarray] = []
            for t in range(count):
                n = int(lens[t])
                if n == 0:
                    continue
                src_parts.append(starts[t] + offsets[t]
                                 + np.arange(n, dtype=np.int64))
                if name == "jitter":
                    # Row-major cell order matches the loop backend's
                    # ``standard_normal((rows, cols))`` fill.
                    cell = (np.arange(rows[t], dtype=np.int64)[:, None] * size
                            + np.arange(cols[t], dtype=np.int64)[None, :])
                    dst_parts.append(t * size * size + cell.ravel())
                else:
                    dst_parts.append(t * size + np.arange(n, dtype=np.int64))
            offsets += lens
            src = (np.concatenate(src_parts) if src_parts
                   else np.empty(0, dtype=np.int64))
            dst = (np.concatenate(dst_parts) if dst_parts
                   else np.empty(0, dtype=np.int64))
            self.stages.append((src, dst, bufs[name].reshape(-1), mults, add))

    def fill(self, tiles) -> None:
        """Draw this call's mismatch and scatter it into the stage buffers."""
        draws = self.draws
        starts = self.starts
        counts = self.counts
        if self.uniform:
            mat = self.draws_mat
            for t, tile in enumerate(tiles):
                tile._rng.standard_normal(out=mat[t])
            for view, dst, mults, add in self.view_stages:
                np.multiply(view, mults[0], out=dst)
                for mult in mults[1:]:
                    dst *= mult
                if add is not None:
                    dst += add
            return
        for t, tile in enumerate(tiles):
            n = counts[t]
            if n:
                tile._rng.standard_normal(out=draws[starts[t]:starts[t] + n])
        for src, dst, flat, mults, add in self.stages:
            vals = draws[src]
            for mult in mults:
                vals *= mult
            if add is not None:
                vals += add
            flat[dst] = vals


class _VmmPlan:
    """The stage list of one bank's fused pass.

    Built once per engine from its :class:`CrossbarConfig` and tile
    geometry; ``sync_sram`` / ``sync_effective`` only re-run
    :meth:`sync`.  A :class:`_Runner` runs :attr:`stages` and nothing
    else, so a design point pays only for the non-idealities it
    switches on.  A stage or pass is left out only where it is an exact
    IEEE identity for finite values:

    * the DAC's ``× v_max`` / ``÷ v_max`` pairs when ``v_max == 1``;
    * IR droop when ``segment_ohm == 0`` (its factor is
      ``1 / (1 + 0·|load|) = 1``), sneak coupling when it is 0, read
      jitter when ``read_noise == 0``, the SRAM product when no cell is
      SRAM-resident, and each mismatch whose std is 0;
    * for a bank that fits one row block: the per-tile input gather
      (every tile reads the same block, so a broadcast view replaces the
      copy) and the row-block partial sum.  A one-term numpy sum is
      ``+0.0 + y``, so the output copy adds ``0.0``, which keeps the
      sum's ``-0.0 → +0.0``;
    * the ADC when it only saturates and no output can reach its full
      scale (:meth:`_clip_unreachable`); the clip passes ``-0.0`` and
      NaN unchanged.

    The ragged-edge sneak correction is plan data: one basic index over
    the last tile column, not a per-call ``np.nonzero`` loop.

    Read noise runs over the tiles' *true extents* only: the matrix's
    rows when it fits one row block, else ``size``; likewise for
    columns.  Those cells are all the draws cover, and the jittered
    operand is a zero-padded ``(tiles, size, size)`` buffer whose
    padding is never written.  Every other stage keeps the padded
    widths.  A matmul over trimmed operands is not bitwise-equal to the
    true block of the padded one on every CPU: the gemm kernel groups
    its sums by operand shape (OpenBLAS's Haswell kernel also by the
    inner length), so only the padded shapes reproduce the same bits
    everywhere.  The DAC's ``r_load`` demand is a pairwise sum whose
    association depends on its length too.
    """

    def __init__(self, engine: "TileEngine"):
        st = engine.stacks()
        config = engine.config
        dac, adc, wire = config.dac, config.adc, config.wire
        size = config.size
        grid_rows, grid_cols = engine.grid
        rows_total, cols_total = engine.shape
        self.tiles = engine.tiles
        self.count = engine.num_tiles
        self.size = size
        self.grid = engine.grid
        self.bank_rows = rows_total
        self.bank_cols = cols_total
        self.coupling = wire.sneak_coupling
        self.half_coupling = self.coupling * 0.5
        last = cols_total - (grid_cols - 1) * size    # last tile column's cols
        self.edge = ((slice(grid_cols - 1, None, grid_cols), slice(None),
                      last - 1)
                     if self.coupling > 0 and last < size else None)
        self.row_block = st.row_block if grid_rows > 1 else None
        # Tile columns that span ``size`` output columns; a ragged last
        # one is written on its own.
        self.whole_cols = (grid_cols if cols_total == grid_cols * size
                           else grid_cols - 1)

        rng = self.rng = _RngPlan(engine)
        self.dac_gain = rng.dac_gain_b
        self.dac_offset = rng.dac_offset_b
        # One row block and no per-tile DAC mismatch: every tile drives
        # the same voltages, so the DAC runs once and the matmul
        # broadcasts them over the tiles.
        self.dac_tiles = (1 if grid_rows == 1 and self.dac_gain is None
                          and self.dac_offset is None else self.count)
        self.adc_gain = rng.adc_gain_b
        self.adc_offset = rng.adc_offset_raw_b
        self.digital = st.digital
        self.operand = st.analog
        self.jitter = None
        if rng.jitter is not None:
            # Uniform banks draw exactly these cells; padded draws are
            # cut to them.
            rows_j = rows_total if grid_rows == 1 else size
            cols_j = cols_total if grid_cols == 1 else size
            self.jitter = rng.jitter[:, :rows_j, :cols_j]
            self.read_noise = config.device.read_noise
            self.operand = np.zeros_like(st.analog)
            self.jittered = self.operand[:, :rows_j, :cols_j]
            self.analog_cells = st.analog[:, :rows_j, :cols_j]
            # Scratch for the ``1 + σ·J`` factor: the cells themselves
            # when they are whole operand rows, else a contiguous buffer,
            # so only the final product writes strided cells.
            self.factor = (self.jittered if cols_j == size
                           else np.empty(self.jittered.shape))

        # Geometry factors of the worst-case output, the ADC full scale
        # and the droop; the per-sample scale multiplies in per call.
        # Positivity holds by construction (rows >= 1, w_max floored at
        # 1e-9, headroom > 0), so no per-call validation is needed.
        rows3 = st.rows[:, None, None]
        self.dac_rows = rows3[:self.dac_tiles]
        self.wc_base = (st.rows * st.w_max)[:, None, None]
        self.fs_base = (adc.range_headroom * np.sqrt(st.rows)
                        * st.w_max)[:, None, None]
        assert np.all(self.wc_base > 0) and np.all(self.fs_base > 0)
        self.kappa = (rows3 * wire.segment_ohm * config.device.g_max
                      if wire.segment_ohm > 0 else None)
        # swd-ok: SWD005 -- exact compare: only v_max == 1 is an identity
        self.v_max = dac.v_max if dac.v_max != 1.0 else None
        self.r_load = dac.r_load
        self.inl = adc.inl
        self.dac_levels = (2 ** (dac.bits - 1) - 1
                           if dac.bits is not None else None)
        self.adc_levels = (2 ** (adc.bits - 1) - 1
                           if adc.bits is not None else None)
        # An ADC that only saturates, behind a DAC that never drives
        # |v| past the per-sample scale, over noiseless conductances:
        # whether its clip is reachable depends on the operands alone.
        self.clip_only = not (
            adc.bits is not None or adc.gain_std > 0 or adc.offset_std > 0
            or adc.inl > 0 or dac.gain_std > 0 or dac.offset_std > 0
            or config.device.read_noise > 0)
        self.sync(st)

    def sync(self, st: TileStacks) -> None:
        """Re-derive what the operands decide, at build and after every
        engine sync: whether any cell is SRAM-resident, and whether the
        ADC stage can change an output.  Then rebuild the stage list."""
        #: Whether any cell is SRAM-resident.
        self.sram = st.has_sram
        #: Whether the ADC stage runs.
        self.adc = not (self.clip_only and self._clip_unreachable(st))
        # Plain functions, called as ``stage(plan, ws)``: bound methods
        # would make the plan a reference cycle that only the GC frees.
        stages: list[tuple[str, Callable[[_VmmPlan, _Workspace], None]]] = []
        if self.rng.active:
            stages.append(("vmm.rng", _VmmPlan._draw))
        stages.append(("vmm.dac", _VmmPlan._dac))
        if self.jitter is not None:
            stages.append(("vmm.conductance", _VmmPlan._conductance))
        stages.append(("vmm.matmul", _VmmPlan._matmul))
        if self.kappa is not None or self.coupling > 0:
            stages.append(("vmm.wires", _VmmPlan._wires))
        if self.adc:
            stages.append(("vmm.adc", _VmmPlan._adc))
        stages.append(("vmm.digital", _VmmPlan._digital))
        self.stages = stages

    def _clip_unreachable(self, st: TileStacks) -> bool:
        """Whether no output of a ``clip_only`` plan can reach ±full scale.

        Division by the per-sample scale, ``rint`` quantization and the
        ``r_load`` sag are monotone steps under bounds that are exactly
        representable, so the DAC's ``|v|`` never exceeds the scale.
        Then ``|y_j| <= scale · Σ_i |analog_ij|``; sneak coupling adds at
        most ``coupling · max_j |y_j|`` and droop only shrinks ``|y|``.
        The full scale is ``fs_base · scale``, so the scale cancels, and
        a factor of 2 covers the rounding of the gemm and of this sum.
        A NaN or infinite weight fails the compare and keeps the clip.
        Finite outputs of finite inputs then stay within half the full
        scale; an input that overflows the full scale to infinity passes
        the clip as it is, and an infinite or NaN input makes its whole
        row NaN through the scale.
        """
        peak = np.abs(st.analog).sum(axis=1).max(axis=1)    # (T,)
        reach = 2.0 * (1.0 + self.coupling) * peak
        return bool(np.all(reach <= self.fs_base[:, 0, 0]))

    # ------------------------------------------------------------------
    # Per-call steps (each mirrors the loop backend's per-tile order)
    # ------------------------------------------------------------------
    def _draw(self, ws: "_Workspace") -> None:
        self.rng.fill(self.tiles)

    def _dac(self, ws: "_Workspace") -> None:
        """Quantization, per-row mismatch and driver sag, as ``apply_dac``."""
        scale = ws.scale
        v_max = self.v_max
        v = np.divide(ws.xt, scale, out=ws.v)
        if v_max:
            v *= v_max
        levels = self.dac_levels
        if levels:
            if v_max:
                v /= v_max
            v *= levels
            np.rint(v, out=v)  # bitwise == np.round at decimals=0
            v /= levels
            if v_max:
                v *= v_max
        if self.dac_gain is not None:
            v *= self.dac_gain
        if self.dac_offset is not None:
            v += self.dac_offset
        if self.r_load > 0:
            # Shared-driver demand: the mean |v| over each tile's true
            # rows, summed over the padded width (see class docstring).
            demand = np.add.reduce(np.abs(v, out=ws.dac_work), axis=-1,
                                   keepdims=True, out=ws.demand)
            # swd-ok: SWD005 -- every tile holds at least one row
            demand /= self.dac_rows
            if v_max:
                demand /= v_max
            demand *= self.r_load
            demand += 1.0
            # swd-ok: SWD005 -- demand >= 1.0 (non-negative magnitude + 1.0)
            v /= demand
        if v_max:
            v /= v_max
        v *= scale

    def _conductance(self, ws: "_Workspace") -> None:
        """Read noise on the programmed conductances, over the true cells."""
        factor = np.multiply(self.jitter, self.read_noise, out=self.factor)
        factor += 1.0
        np.multiply(factor, self.analog_cells, out=self.jittered)

    def _matmul(self, ws: "_Workspace") -> None:
        np.matmul(ws.v, self.operand, out=ws.y)

    def _wires(self, ws: "_Workspace") -> None:
        """Input-dependent IR droop, then neighbour sneak coupling."""
        y = ws.y
        if self.kappa is not None:
            worst_case = np.multiply(self.wc_base, ws.scale, out=ws.wc)
            factor = np.divide(y, worst_case, out=ws.w1)
            np.abs(factor, out=factor)
            factor *= self.kappa
            factor += 1.0
            np.reciprocal(factor, out=factor)
            y *= factor
        if self.coupling > 0:
            # Edge-replicated neighbour average, written straight into
            # the workspace (no np.pad temporary).
            leak = ws.leak
            np.add(y[..., :-2], y[..., 2:], out=leak[..., 1:-1])
            np.add(y[..., 0], y[..., 1], out=leak[..., 0])
            np.add(y[..., -2], y[..., -1], out=leak[..., -1])
            leak *= 0.5
            leak *= self.coupling
            if self.edge is not None:
                # A ragged tile edge-replicates at its true last column,
                # where the neighbour sum above read a zero column.
                leak[self.edge] += self.half_coupling * y[self.edge]
            y += leak

    def _adc(self, ws: "_Workspace") -> None:
        """Gain/offset, INL, saturation and quantization, as ``apply_adc``."""
        y = ws.y
        full_scale = np.multiply(self.fs_base, ws.scale, out=ws.fs)
        if self.adc_gain is not None:
            y *= self.adc_gain
        if self.adc_offset is not None:
            y += np.multiply(self.adc_offset, full_scale, out=ws.leak)
        if self.inl > 0:
            w1, w2 = ws.w1, ws.w2
            np.divide(y, full_scale, out=w1)
            np.maximum(w1, -1.0, out=w1)
            np.minimum(w1, 1.0, out=w1)             # normalized
            np.multiply(w1, w1, out=w2)             # normalized ** 2
            np.subtract(1.0, w2, out=w2)
            w1 *= self.inl * full_scale             # (inl * fs) * normalized
            w1 *= w2
            y += w1
        np.maximum(y, np.negative(full_scale, out=ws.nfs), out=y)
        np.minimum(y, full_scale, out=y)
        levels = self.adc_levels
        if levels:
            # swd-ok: SWD005 -- full scale > 0 by construction
            y /= full_scale
            y *= levels
            np.rint(y, out=y)
            y /= levels
            y *= full_scale

    def _digital(self, ws: "_Workspace") -> None:
        """SRAM contribution, row-block partial sums, output write."""
        y = ws.y
        if self.sram:
            y += np.matmul(ws.xt, self.digital, out=ws.w1)
        out = ws.out
        true_batch = len(out)
        grid_rows, grid_cols = self.grid
        size = self.size
        if grid_rows > 1:
            y = np.add.reduce(
                y.reshape(grid_rows, grid_cols, ws.batch, size),
                axis=0, out=ws.sum_gc)
        # Output column ``j·size + k`` is ``y[j, :, k]``.
        whole = self.whole_cols
        if whole:
            _write(y[:whole, :true_batch].transpose(1, 0, 2),
                   out[:, :whole * size].reshape(true_batch, whole, size),
                   grid_rows == 1)
        if whole < grid_cols:
            _write(y[whole, :true_batch, :self.bank_cols - whole * size],
                   out[:, whole * size:], grid_rows == 1)


def _write(src: np.ndarray, out: np.ndarray, one_block: bool) -> None:
    """Copy VMM results into the caller's array.  With one row block
    there is no partial sum, but a one-term numpy sum is ``+0.0 + y``,
    so the copy adds 0.0 to keep its ``-0.0 -> +0.0``."""
    if one_block:
        np.add(src, 0.0, out=out)
    else:
        np.copyto(out, src)


class _Workspace:
    """Scratch for one fused pass at one batch size.

    Built from a :class:`_VmmPlan`, which allocates only the buffers
    its stages use, each ``(tiles, batch, size)`` or a per-sample
    ``(tiles, batch, 1)`` factor; the DAC output holds one tile's worth
    when every tile drives the same voltages.  An engine keeps one
    workspace, sized for its last call's batch; it is scratch private
    to one VMM call, and the output goes to an array the caller owns
    (``out``, set only while a :class:`_Runner` runs), so nothing the
    caller holds aliases it.  ``x_padded`` is zero-initialized and only
    its true rows/columns are ever rewritten, so padding stays zero
    across reuse.
    """

    def __init__(self, plan: _VmmPlan, batch: int):
        count, size = plan.count, plan.size
        grid_rows, grid_cols = plan.grid
        self.batch = batch
        self.true_batch = 0     # rows of x_padded the last call filled
        self.x_padded = np.zeros((batch, grid_rows * size))
        self.xabs = np.empty((batch, grid_rows * size))
        self.xabs_blocks = self.xabs.reshape(batch, grid_rows, size)
        self.scale_bg = np.empty((batch, grid_rows))  # per-(sample, block)
        if plan.row_block is None:
            # One row block: every tile reads the same inputs and scales.
            self.xt = self.x_padded[None]               # (1, B, S)
            self.scale = self.scale_bg[None]            # (1, B, 1)
        else:
            self.x_blocks = self.x_padded.reshape(
                batch, grid_rows, size).transpose(1, 0, 2)
            self.xt = np.empty((count, batch, size))    # gathered blocks
            self.scale_t = np.empty((count, batch))
            self.scale = self.scale_t[:, :, None]       # (T, B, 1)
            self.sum_gc = np.empty((grid_cols, batch, size))
        self.v = np.empty((plan.dac_tiles, batch, size))
        if plan.r_load > 0:
            self.dac_work = np.empty_like(self.v)
            self.demand = np.empty((plan.dac_tiles, batch, 1))
        cells = (count, batch, size)
        self.y = np.empty(cells)
        if plan.kappa is not None or plan.inl > 0 or plan.sram:
            self.w1 = np.empty(cells)
        if plan.inl > 0:
            self.w2 = np.empty(cells)
        if plan.coupling > 0 or plan.adc_offset is not None:
            self.leak = np.empty(cells)
        if plan.kappa is not None:
            self.wc = np.empty((count, batch, 1))
        if plan.adc:
            self.fs = np.empty((count, batch, 1))
            self.nfs = np.empty((count, batch, 1))
        self.out: np.ndarray | None = None


class _Runner:
    """A bank's fused pass bound to its workspace for one true batch.

    ``runner(x, out)`` copies ``x`` into the workspace's input rows,
    takes the per-sample DAC scale, runs the plan's *current* stage list
    (a sync may have rebuilt it) and writes the result into ``out``,
    allocating nothing.  Per-call VMMs (:func:`_execute_batched`) and a
    recurrence's bound steps share this entry.  The runner holds only
    the plan, the workspace and views of them, never the engine or the
    bank, so it adds no reference cycle.
    """

    def __init__(self, plan: _VmmPlan, ws: _Workspace, batch: int):
        if batch < ws.true_batch:    # rows a larger batch left behind
            ws.x_padded[batch:ws.true_batch] = 0.0
        ws.true_batch = batch
        self.batch = batch
        self.plan = plan
        self.ws = ws
        self.x = ws.x_padded[:batch, :plan.bank_rows]

    def __call__(self, x: np.ndarray, out: np.ndarray,
                 traced: bool = False) -> None:
        plan, ws = self.plan, self.ws
        np.copyto(self.x, x)
        # Padding is |0| = 0, so it never wins the per-(sample,
        # row-block) max; all-zero rows floor at 1e-12.
        np.abs(ws.x_padded, out=ws.xabs)
        np.maximum.reduce(ws.xabs_blocks, axis=2, out=ws.scale_bg)
        np.maximum(ws.scale_bg, 1e-12, out=ws.scale_bg)
        if plan.row_block is not None:
            np.take(ws.x_blocks, plan.row_block, axis=0, out=ws.xt)
            np.take(ws.scale_bg.T, plan.row_block, axis=0, out=ws.scale_t)
        ws.out = out
        if traced:
            for name, stage in plan.stages:
                with trace_span(name):
                    stage(plan, ws)
        else:
            for _, stage in plan.stages:
                stage(plan, ws)
        ws.out = None


class TileEngine:
    """Executes a :class:`CrossbarBank`'s VMM through a chosen backend.

    The engine owns the stacked mirrors (:class:`TileStacks`), the
    batched pass's plan (:class:`_VmmPlan`), one scratch workspace and
    the :class:`_Runner` bound to it;
    the bank's :class:`CrossbarTile` objects stay authoritative for
    programming physics and for the ``"loop"`` reference backend.  Bank
    methods that mutate tile state (RSA assignment, SRAM weight updates,
    reprogramming, retention drift) call :meth:`sync_sram` /
    :meth:`sync_effective`, which update the stacks in place and let
    the plan re-derive its SRAM and ADC stages.

    The engine copies the bank's name, shape, grid and tiles instead of
    holding the bank, so a released deployment is freed by reference
    counting alone.
    """

    def __init__(self, bank: "CrossbarBank", backend: str | None = None):
        self.name = bank.name
        self.config = bank.config
        self.shape = bank.shape
        self.grid = bank.grid
        self.tiles = [tile for row in bank.tiles for tile in row]
        self.backend = resolve_backend(
            backend if backend is not None else bank.config.backend)
        self._stacks: TileStacks | None = None
        # Fused-pass state, lazily built and reused across calls: the
        # plan (stage list, extents, RNG layout), and the workspace and
        # runner of the last call's batch size.
        self._plan: _VmmPlan | None = None
        self._workspace: _Workspace | None = None
        self._runner: _Runner | None = None
        self._traced = False

    # ------------------------------------------------------------------
    # Stack maintenance
    # ------------------------------------------------------------------
    @property
    def num_tiles(self) -> int:
        return len(self.tiles)

    def stacks(self) -> TileStacks:
        """The stacked mirrors, built on first use."""
        if self._stacks is None:
            self._stacks = self._build_stacks()
        return self._stacks

    def _build_stacks(self) -> TileStacks:
        size = self.config.size
        count = len(self.tiles)
        grid_cols = self.grid[1]
        effective = np.zeros((count, size, size))
        ideal = np.zeros((count, size, size))
        sram = np.zeros((count, size, size), dtype=bool)
        rows = np.zeros(count)
        cols = np.zeros(count, dtype=np.int64)
        w_max = np.zeros(count)
        row_block = np.zeros(count, dtype=np.int64)
        for t, tile in enumerate(self.tiles):
            effective[t, :tile.rows, :tile.cols] = tile.effective_weights
            ideal[t, :tile.rows, :tile.cols] = tile.ideal_weights
            sram[t, :tile.rows, :tile.cols] = tile.sram_mask
            rows[t] = tile.rows
            cols[t] = tile.cols
            w_max[t] = tile.w_max
            row_block[t] = t // grid_cols
        stacks = TileStacks(
            effective=effective, ideal=ideal, sram=sram,
            analog=np.empty_like(effective), digital=np.empty_like(ideal),
            rows=rows, cols=cols, w_max=w_max, row_block=row_block,
            has_sram=False,
        )
        stacks.refresh_derived()
        return stacks

    def sync_sram(self) -> None:
        """Pull SRAM masks and ideal weights back into the stacks."""
        if self._stacks is None:
            return
        st = self._stacks
        for t, tile in enumerate(self.tiles):
            st.sram[t, :tile.rows, :tile.cols] = tile.sram_mask
            st.ideal[t, :tile.rows, :tile.cols] = tile.ideal_weights
        self._refresh()

    def sync_effective(self) -> None:
        """Pull reprogrammed/drifted effective weights into the stacks."""
        if self._stacks is None:
            return
        st = self._stacks
        for t, tile in enumerate(self.tiles):
            st.effective[t, :tile.rows, :tile.cols] = tile.effective_weights
        self._refresh()

    def _refresh(self) -> None:
        """Re-derive the operands after a sync; the plan reads them in
        place and re-derives its SRAM and ADC stages from them."""
        st = self._stacks
        st.refresh_derived()
        plan = self._plan
        if plan is None:
            return
        scratch = (plan.sram, plan.adc)
        plan.sync(st)
        if (plan.sram, plan.adc) != scratch:
            # The SRAM product and the ADC need scratch.
            self._runner = self._workspace = None

    def set_backend(self, backend: str | None) -> None:
        """Re-resolve the execution backend (None → env/default)."""
        self.backend = resolve_backend(backend)

    # ------------------------------------------------------------------
    # Fused-pass state
    # ------------------------------------------------------------------
    def plan(self) -> _VmmPlan:
        """The fused pass's plan, built on first use."""
        if self._plan is None:
            self._plan = _VmmPlan(self)
        return self._plan

    def runner(self, batch: int) -> _Runner:
        """The fused pass for ``batch`` true rows, bound to the workspace.

        The engine keeps the runner of its last call's batch and one
        workspace.  Another batch builds a new runner; another kernel
        batch also drops the old workspace before the new one is built,
        so a bank never holds two.  Single-row calls run at the canonical
        kernel batch of ``_MIN_KERNEL_BATCH`` (a zero row appended), so
        BLAS never takes the one-row fast path whose accumulation order
        differs from the stacked gemm path.
        """
        if self._runner is None or self._runner.batch != batch:
            self._runner = None
            kernel_batch = max(batch, _MIN_KERNEL_BATCH)
            ws = self._workspace
            if ws is None or ws.batch != kernel_batch:
                self._workspace = ws = None
                ws = self._workspace = _Workspace(self.plan(), kernel_batch)
            self._runner = _Runner(self.plan(), ws, batch)
        return self._runner

    # ------------------------------------------------------------------
    # Whole-matrix views (vectorized assembly from the stacks)
    # ------------------------------------------------------------------
    def _assemble(self, blocks: np.ndarray) -> np.ndarray:
        """Scatter a ``(T, S, S)`` stack back to the full matrix."""
        grid_rows, grid_cols = self.grid
        size = self.config.size
        rows, cols = self.shape
        full = (blocks.reshape(grid_rows, grid_cols, size, size)
                .transpose(0, 2, 1, 3)
                .reshape(grid_rows * size, grid_cols * size))
        return full[:rows, :cols].copy()

    def effective_matrix(self) -> np.ndarray:
        """The weight matrix the analog array + SRAM actually implement."""
        st = self.stacks()
        return self._assemble(np.where(st.sram, st.ideal, st.effective))

    def error_severity(self) -> np.ndarray:
        """Full-matrix |achieved − ideal| weight error (vectorized)."""
        st = self.stacks()
        return self._assemble(np.abs(st.effective - st.ideal))

    def severity_stack(self) -> np.ndarray:
        """Per-tile ``(T, S, S)`` error magnitudes (padding reads zero)."""
        st = self.stacks()
        return np.abs(st.effective - st.ideal)

    def sram_matrix(self) -> np.ndarray:
        """Full-matrix boolean SRAM-residency mask."""
        st = self.stacks()
        return self._assemble(st.sram).astype(bool)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, x: np.ndarray) -> np.ndarray:
        """Run the bank's non-ideal VMM for pre-validated inputs.

        When ``SWORDFISH_TRACE`` is set the pass runs inside a ``vmm``
        span (the batched backend adds per-stage child spans) and feeds
        the metrics registry; the early return keeps the untraced hot
        path at a single boolean check.  Instrumentation only observes
        — it never draws from the tile RNG streams, so traced and
        untraced runs are bitwise-identical.
        """
        backend = BACKENDS[self.backend]
        # Stash the trace state for the backend so the hot path pays a
        # single environment check per VMM call.
        self._traced = traced = tracing_enabled()
        if not traced:
            return backend(self, x)
        metrics = get_metrics()
        metrics.counter("vmm.calls").inc()
        metrics.histogram("vmm.batch").observe(x.shape[0])
        with trace_span("vmm", backend=self.backend, bank=self.name,
                        tiles=self.num_tiles, batch=x.shape[0]):
            return backend(self, x)


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------

def _execute_loop(engine: TileEngine, x: np.ndarray) -> np.ndarray:
    """Reference backend: per-tile VMMs with digital partial sums."""
    out = np.zeros((x.shape[0], engine.shape[1]))
    for (_, _, rows, cols), tile in zip(
            iter_tile_blocks(engine.shape, engine.config.size), engine.tiles):
        out[:, cols] += tile.vmm(x[:, rows])
    return out


def _execute_batched(engine: TileEngine, x: np.ndarray) -> np.ndarray:
    """Fused vectorized backend: one stacked pass over every tile.

    Runs the bank's :class:`_VmmPlan` through the engine's
    :class:`_Runner` into a fresh array: the stages its design point
    enables, each over whole zero-padded ``(tiles, batch, size)``
    stacks, through the engine's :class:`_Workspace`, which is reused
    while the batch size repeats.
    Each stage replicates the loop backend operation for operation, and
    the per-tile RNG draws come from each tile's own generator in the
    order the loop backend consumes them, so both backends see
    identical noise.  The DAC scale is **per sample**: each batch row is
    normalized to its own magnitude, so a row's result is
    bitwise-independent of what else shares the batch.  Traced and
    untraced calls run the same stage list; tracing only wraps each
    stage in its ``vmm.<stage>`` span.
    """
    out = np.empty((x.shape[0], engine.shape[1]))
    engine.runner(x.shape[0])(x, out, engine._traced)
    return out


BACKENDS: dict[str, Callable[[TileEngine, np.ndarray], np.ndarray]] = {
    "loop": _execute_loop,
    "batched": _execute_batched,
}
