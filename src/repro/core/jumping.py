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
threshold and waits, and each window wakes, with one vectorized
compare, the pairs whose clock has reached their threshold. The total
number of exact evaluations — the quantity the paper's pruning reduces
— is counted and returned.

``sweep`` is the one window loop of every engine: TSUBASA runs it with
no jump rule, Dangoron with the exact-ci or worst-case Eq.-2 rule, and
horizontal pruning with no jump rule and a triangle mask — the pivot
correlations bound each woken cell, and a cell whose bound is below β
steps to the next window unevaluated.
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


# A jump rule is built per tile as rule(tile, rows, spec), where rows are
# the tile's kept pair rows (pair position p is rows[p]), and returns a
# (clock, target) pair. clock(w) is the rule's clock at window w: one
# value per pair, or one scalar for all. target(w, c, pos) is the wake
# threshold T of the pairs at positions pos whose defined below-β
# correlations at w are c. The clock never decreases, and it reaches T
# first at window w + k for the smallest k with UB(k) ≥ β.
Clock = Callable[[int], np.ndarray | int]
Target = Callable[[int, np.ndarray, np.ndarray], np.ndarray]
JumpRule = Callable[[dict, np.ndarray, SlidingSpec], tuple[Clock, Target]]


def sweep(
    tile: dict, spec: SlidingSpec, rule: JumpRule | None = None,
    pivot_corr: np.ndarray | None = None,
) -> TileResult:
    """Evaluate one block-pair tile window by window; the one window sweep.

    Every engine sweeps the same W windows with the same evaluator
    (``kernels.eval_at_window``); only the jump ``rule`` differs. With
    no rule (TSUBASA) every pair wakes at every window, so every cell is
    evaluated, and the evaluator sums a view of the fused terms rather
    than a gathered copy: the same bits, at a lower per-cell cost than a
    rule's gathered subset. The terms cover the
    tile's kept pairs only (``pair_tile_arrays``); the sweep addresses
    pairs by their position among them.

    With a rule, each pair holds one wake threshold T and the window it
    last woke at (its anchor). Each window wakes the pairs whose clock
    has reached their T. A woken pair's defined below-β cell sets T from
    the rule's target and the pair waits; every other woken cell sets
    T = −inf, so the pair wakes at the next window. A pair that never
    reaches its T is done. A jump of k = w − anchor is counted when a
    waiting pair wakes at w, and k = W − anchor after the last window
    for a pair still waiting; ``probes`` counts the (waiting pair,
    window) wake tests.

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
    w_total, beta = spec.n_windows, spec.beta
    pi, pj, rows = pair_tile_arrays(tile)
    gi, gj = tile["ids_i"][pi], tile["ids_j"][pj]
    n_pairs = rows.size
    stats = FrontierStats(cells=n_pairs * w_total)
    if n_pairs == 0:
        return TileResult(stats=stats)
    terms = kernels.tile_terms(tile, spec, rows)
    every = np.arange(n_pairs)  # with no rule, every pair wakes every window
    if rule is not None:
        clock, target = rule(tile, rows, spec)
        wake = np.full(n_pairs, -np.inf)
        anchor = np.full(n_pairs, -1, dtype=np.int64)
        n_wait = 0
    out_i: list[np.ndarray] = []
    out_j: list[np.ndarray] = []
    out_w: list[np.ndarray] = []
    out_c: list[np.ndarray] = []

    for w in range(w_total):
        if rule is None:
            act = every
        else:
            stats.probes += n_wait
            act = np.flatnonzero(clock(w) >= wake)
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
        if rule is not None:
            # Wait only from defined below-threshold cells; undefined ones
            # (zero-variance window) step by one — no bound can be anchored.
            below = c < beta
            sel = act[below]
            wake[sel] = target(w, c[below], sel)
            n_wait += sel.size

    if rule is not None:
        k = w_total - anchor  # 1 for every pair that woke at the last window
        stats.jumps += int(np.count_nonzero(k > 1))
        stats.jump_lengths += int(k.sum()) - n_pairs
    if not out_i:
        return TileResult(stats=stats)
    return TileResult(
        np.concatenate(out_i), np.concatenate(out_j), np.concatenate(out_w),
        np.concatenate(out_c), stats,
    )


def _worst_case_rule(tile: dict, rows: np.ndarray, spec: SlidingSpec):
    """Eq. 2 with every entering c_i at its floor −1: a closed-form jump.

    The clock is the window index; a cell's target is its window plus
    the closed-form k.
    """

    def target(w, c, pos):
        return w + bounds.worst_case_jump(c, spec.beta, spec.m, spec.n_s)

    return (lambda w: w), target


def _exact_ci_rule(tile: dict, rows: np.ndarray, spec: SlidingSpec):
    """Eq. 2 with the pair's true entering c_i: the clock is the slack prefix G.

    From window w, UB(k) ≥ β ⟺ G[a + m·k] ≥ G[a] + (β − c)·n_s, where
    a = bw0 + w·m + n_s is w's first entering basic window and a + m·k
    is the same index for window w + k. So the clock at window w is row
    bw0 + w·m + n_s of G and a cell's target is its clock plus
    (β − c)·n_s; G is monotone, so the first window whose clock reaches
    the target is w + k for the smallest such k.

    c_i and G cover the tile's kept pair rows only; G is laid out
    (n_bw + 1, pairs) so that each window reads one contiguous row. It
    costs O(pairs·n_bw) per tile, part of Dangoron's query cost (the
    baseline never needs it).
    """
    c_bw = bounds.bw_correlations(tile["q"], tile["stds_i"], tile["stds_j"], rows)
    slack = bounds.slack_prefix(c_bw.T, axis=0)
    first, m, n_s, beta = spec.bw0 + spec.n_s, spec.m, spec.n_s, spec.beta

    def clock(w):
        return slack[first + w * m]

    def target(w, c, pos):
        return clock(w)[pos] + (beta - c) * n_s

    return clock, target


_RULES = {"exact-ci": _exact_ci_rule, "worst-case": _worst_case_rule}
MODES = tuple(_RULES)


def frontier_query(tile: dict, spec: SlidingSpec, mode: str = "exact-ci") -> TileResult:
    """Run Dangoron over one block-pair sketch tile.

    The window sweep with the Eq.-2 jump rule of ``mode``. Returns the
    emitted (i, j, w, corr ≥ β) cells with global series ids and the
    work counters.
    """
    if mode not in MODES:
        raise ValueError(f"unknown bound mode {mode!r}; expected one of {MODES}")
    return sweep(tile, spec, _RULES[mode])
