"""Dangoron's jumping structure as a vectorized frontier kernel.

Per block-pair tile, every pair walks the sliding windows exactly as in
Fig. 2 of the paper:

  evaluate exact correlation at the current window (Eq. 1 from sketches)
    → if ≥ β: emit the value, advance one window (above-threshold cells
      must carry exact values, so they can never be skipped);
    → if < β: find the smallest k with UB(k) ≥ β on the monotone Eq.-2
      bound, certify windows w+1 … w+k−1 as below β (emit nothing —
      thresholded entries are zero), land at w+k and re-evaluate. If
      even UB(k_max) < β the pair is done for the rest of the range.

All pairs of the tile advance together ("frontier"). The smallest k is
found by a scan rather than a search: a below-β pair stores a wake
threshold on its Eq.-2 slack prefix G and waits, and each window wakes,
with one vectorized compare, the pairs whose G has reached their
threshold. The total number of exact evaluations — the quantity the
paper's pruning reduces — is counted and returned.

``sweep`` is the one window loop of every engine: TSUBASA runs it with
no mode, Dangoron in the exact-ci or worst-case mode, and horizontal
pruning with no mode and a triangle mask — the pivot correlations bound
each woken cell, and a cell whose bound is below β steps to the next
window unevaluated. The two modes are one jump rule over two slack
prefixes (``slack_rows``): the pair's true c_i, or every c_i at −1.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np
import pandas as pd

from repro.core import bounds
from repro.sketch import kernels
from repro.sketch.pair_sketch import pair_tile_arrays
from repro.tsio.validation import SlidingSpec


@dataclass
class FrontierStats:
    """Work counters for one tile (or summed over tiles)."""

    cells: int = 0          # total (pair, window) cells in scope
    evals: int = 0          # exact Eq.-1 evaluations performed
    probes: int = 0         # (waiting pair, window) wake tests of a jump rule
    jumps: int = 0          # number of jump decisions taken
    jump_lengths: int = 0   # total windows certified-skipped by jumps
    emitted: int = 0        # cells ≥ β emitted
    # in-kernel seconds; only ``dangoron.run_tiles`` sets it, so a
    # sweep's own counters stay deterministic
    work_s: float = 0.0

    def merge(self, other: "FrontierStats") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    @property
    def skipped(self) -> int:
        return self.cells - self.evals

    @property
    def eval_fraction(self) -> float:
        return self.evals / self.cells if self.cells else 0.0

    @property
    def mean_jump(self) -> float:
        return self.jump_lengths / self.jumps if self.jumps else 0.0


def _no_cells(dtype) -> Callable[[], np.ndarray]:
    return lambda: np.empty(0, dtype=dtype)


@dataclass
class TileResult:
    """Emitted (i, j, w, corr ≥ β) cells of a tile, with global series ids."""

    i: np.ndarray = field(default_factory=_no_cells(np.int64))
    j: np.ndarray = field(default_factory=_no_cells(np.int64))
    w: np.ndarray = field(default_factory=_no_cells(np.int64))
    corr: np.ndarray = field(default_factory=_no_cells(np.float64))
    stats: FrontierStats = field(default_factory=FrontierStats)

    def frame(self) -> pd.DataFrame:
        """The edges as an (i, j, w, corr) frame, the engines' output rows."""
        return pd.DataFrame({"i": self.i, "j": self.j, "w": self.w, "corr": self.corr})


MODES = ("exact-ci", "worst-case")


def slack_rows(tile: dict, rows: np.ndarray, mode: str) -> np.ndarray:
    """Eq.-2 slack prefix G of the pair rows ``rows`` in ``mode``.

    G[b] = Σ_{i<b} (1 − c_i) (``bounds.slack_prefix``), laid out
    (n_bw + 1, pairs) so that each window reads one contiguous row.
    exact-ci takes each pair's true c_i from the sketch, at
    O(pairs·n_bw) per tile, part of Dangoron's query cost (the baseline
    never needs it). worst-case takes every c_i at its floor −1, so
    G[b] = 2b for every pair: a broadcast view that allocates nothing.
    """
    n_bw = tile["q"].shape[2]
    if mode == "worst-case":
        return np.broadcast_to(2.0 * np.arange(n_bw + 1)[:, None], (n_bw + 1, rows.size))
    c_bw = bounds.bw_correlations(tile["q"], tile["stds_i"], tile["stds_j"], rows)
    return bounds.slack_prefix(c_bw.T, axis=0)


def sweep(
    tile: dict, spec: SlidingSpec, mode: str | None = None,
    pivot_corr: np.ndarray | None = None,
) -> TileResult:
    """Evaluate one block-pair tile window by window; the one window sweep.

    Every engine sweeps the same W windows with the same evaluator
    (``kernels.eval_at_window``); only the Eq.-2 ``mode`` differs. With
    no mode (TSUBASA) every pair wakes at every window, so every cell is
    evaluated, and the evaluator sums a view of the fused terms rather
    than a gathered copy: the same bits, at a lower per-cell cost than a
    jumping engine's gathered subset. The terms cover the tile's kept
    pairs only (``pair_tile_arrays``); the sweep addresses pairs by
    their position among them.

    With a mode (one of ``MODES``), each pair holds one wake threshold T
    on its slack prefix G (``slack_rows``) and the window it last woke
    at (its anchor). Window w wakes the pairs whose G in row
    a = bw0 + w·m + n_s, w's first entering basic window, has reached
    their T. A woken pair's defined below-β cell sets T to that G plus
    (β − c)·n_s and the pair waits: UB(k) ≥ β ⟺ G[a + m·k] ≥ T, and G
    is monotone, so the first window to wake it is w + k for the
    smallest such k. Every other woken cell sets T = −inf, so the pair
    wakes at the next window. A pair that never reaches its T is done.
    A jump of k = w − anchor is counted when a waiting pair wakes at w,
    and k = W − anchor after the last window for a pair still waiting;
    ``probes`` counts the (waiting pair, window) wake tests.

    ``pivot_corr`` (N × W, indexed by global series id) holds each
    series' correlations with a pivot z. Given it, a woken cell whose
    triangle bound c_xz·c_yz + √((1−c_xz²)(1−c_yz²)) is below β is
    masked: it steps to the next window without being evaluated. The
    bound is sound, so no edge is lost. A NaN bound (an undefined pivot
    correlation, or the pivot's own NaN row) never masks.

    ``tile`` is a tile from ``pair_sketch.load_pair_payload`` (its q a
    read-only mapping of the tile's file) or the same arrays in memory,
    as ``streaming.query.store_to_tile`` builds them; the sweep only
    reads it.
    """
    if mode is not None and mode not in MODES:
        raise ValueError(f"unknown bound mode {mode!r}; expected one of {MODES}")
    w_total, beta, m, n_s = spec.n_windows, spec.beta, spec.m, spec.n_s
    pi, pj, rows = pair_tile_arrays(tile)
    gi, gj = tile["ids_i"][pi], tile["ids_j"][pj]
    n_pairs = rows.size
    stats = FrontierStats(cells=n_pairs * w_total)
    if n_pairs == 0:
        return TileResult(stats=stats)
    terms = kernels.tile_terms(tile, spec, rows)
    every = np.arange(n_pairs)  # with no mode, every pair wakes every window
    if mode is not None:
        slack = slack_rows(tile, rows, mode)
        wake = np.full(n_pairs, -np.inf)
        anchor = np.full(n_pairs, -1, dtype=np.int64)
        n_wait = 0
    out_i: list[np.ndarray] = []
    out_j: list[np.ndarray] = []
    out_w: list[np.ndarray] = []
    out_c: list[np.ndarray] = []

    for w in range(w_total):
        if mode is None:
            act = every
        else:
            g_w = slack[spec.bw0 + w * m + n_s]  # G at w's first entering basic window
            stats.probes += n_wait
            act = np.flatnonzero(g_w >= wake)
            n_wait = n_pairs - act.size
            k = w - anchor[act]
            stats.jumps += int(np.count_nonzero(k > 1))
            stats.jump_lengths += int(k.sum()) - act.size
            anchor[act] = w
            wake[act] = -np.inf
        if pivot_corr is not None:
            ub = bounds.triangle_bounds(pivot_corr[gi[act], w], pivot_corr[gj[act], w])[1]
            act = act[~(ub < beta)]  # NaN compares False: never masks
        # every pair: the evaluator sums a view of g instead of a gathered copy
        c = kernels.eval_at_window(terms, slice(None) if act is every else act, w, spec)
        stats.evals += act.size
        emit = c >= beta  # NaN compares False: undefined cells emit nothing
        if emit.any():
            sel = act[emit]
            out_i.append(gi[sel])
            out_j.append(gj[sel])
            out_w.append(np.full(sel.size, w, dtype=np.int64))
            out_c.append(c[emit])
            stats.emitted += int(emit.sum())
        if mode is not None:
            # Wait only from defined below-threshold cells; undefined ones
            # (zero-variance window) step by one — no bound can be anchored.
            below = c < beta
            sel = act[below]
            wake[sel] = g_w[sel] + (beta - c[below]) * n_s
            n_wait += sel.size

    if mode is not None:
        k = w_total - anchor  # 1 for every pair that woke at the last window
        stats.jumps += int(np.count_nonzero(k > 1))
        stats.jump_lengths += int(k.sum()) - n_pairs
    if not out_i:
        return TileResult(stats=stats)
    return TileResult(
        np.concatenate(out_i), np.concatenate(out_j), np.concatenate(out_w),
        np.concatenate(out_c), stats,
    )


def frontier_query(tile: dict, spec: SlidingSpec, mode: str = "exact-ci") -> TileResult:
    """Run Dangoron over one block-pair sketch tile.

    The window sweep in Eq.-2 ``mode``. Returns the emitted
    (i, j, w, corr ≥ β) cells with global series ids and the work
    counters.
    """
    return sweep(tile, spec, mode)
