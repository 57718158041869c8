"""Dangoron's jumping structure as a vectorized frontier kernel.

Per block-pair tile, every pair walks the sliding windows exactly as in
Fig. 2 of the paper:

  evaluate exact correlation at the current window (Eq. 1 from sketches)
    → if ≥ β: emit the value, advance one window (above-threshold cells
      must carry exact values, so they can never be skipped);
    → if < β: binary-search the smallest k with UB(k) ≥ β on the
      monotone Eq.-2 bound, certify windows w+1 … w+k−1 as below β
      (emit nothing — thresholded entries are zero), land at w+k and
      re-evaluate. If even UB(k_max) < β the pair is done for the rest
      of the range.

All pairs of the tile advance together ("frontier"), so each round is a
handful of vectorized numpy ops; the total number of exact evaluations —
the quantity the paper's pruning reduces — is counted and returned.

``sweep`` is the one window loop of the sweep engines: TSUBASA runs it
with no jump rule, Dangoron with the exact-ci or worst-case Eq.-2 rule.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import partial
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
    probes: int = 0         # O(1) bound probes during binary searches
    jumps: int = 0          # number of jump decisions taken
    jump_lengths: int = 0   # total windows certified-skipped by jumps
    emitted: int = 0        # cells ≥ β emitted

    def merge(self, other: "FrontierStats") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


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


# A jump rule is built per tile as rule(tile, rows, spec) and returns
# jump(c, w, kmax, pos, stats) -> k: for the defined below-β cells c at
# window w of the pairs at positions pos, the next window offset
# 1 ≤ k ≤ kmax + 1 (k = kmax + 1 finishes the pair).
JumpRule = Callable[[dict, np.ndarray, SlidingSpec], Callable[..., np.ndarray]]


def sweep(tile: dict, spec: SlidingSpec, rule: JumpRule | None = None) -> TileResult:
    """Evaluate one block-pair tile window by window; the one window sweep.

    Each window has a "wake bucket" of the pairs that must be exactly
    evaluated there. Every engine sweeps the same W windows with the
    same evaluator (``kernels.eval_at_window``), so their per-cell numpy
    constants match and wall-clock ratios track cells evaluated; only
    the jump ``rule`` differs. With no rule (TSUBASA) every pair is
    re-queued for the next window as one array, so every cell is
    evaluated; with a rule a below-β cell lands in a later bucket.

    ``tile`` is a payload from ``pair_sketch.load_pair_payload``.
    """
    w_total, beta = spec.n_windows, spec.beta
    pi, pj, rows = pair_tile_arrays(tile)
    n_pairs = rows.size
    stats = FrontierStats(cells=n_pairs * w_total)
    if n_pairs == 0:
        return TileResult(stats=stats)
    terms = kernels.tile_terms(tile, spec)
    jump = None if rule is None else rule(tile, rows, spec)

    buckets: list[list[np.ndarray]] = [[] for _ in range(w_total)]
    buckets[0].append(np.arange(n_pairs))
    out_i: list[np.ndarray] = []
    out_j: list[np.ndarray] = []
    out_w: list[np.ndarray] = []
    out_c: list[np.ndarray] = []

    for w in range(w_total):
        parts = buckets[w]
        if not parts:
            continue
        act = parts[0] if len(parts) == 1 else np.concatenate(parts)
        c = kernels.eval_at_window(terms, rows[act], w, spec)
        stats.evals += act.size
        emit = c >= beta  # NaN compares False: undefined cells emit nothing
        if emit.any():
            sel = act[emit]
            out_i.append(tile["ids_i"][pi[sel]])
            out_j.append(tile["ids_j"][pj[sel]])
            out_w.append(np.full(sel.size, w, dtype=np.int64))
            out_c.append(c[emit])
            stats.emitted += int(emit.sum())

        if jump is None:
            if w + 1 < w_total:
                buckets[w + 1].append(act)
            continue
        nxt = np.full(act.size, w + 1, dtype=np.int64)
        # Jump only from defined below-threshold cells; undefined ones
        # (zero-variance window) step by one — no bound can be anchored.
        jmp = (~emit) & ~np.isnan(c)
        kmax = w_total - 1 - w
        if jmp.any() and kmax >= 1:
            k = jump(c[jmp], w, kmax, act[jmp], stats)
            stats.jumps += int((k > 1).sum())
            stats.jump_lengths += int((k - 1).sum())
            nxt[jmp] = w + k
        live = nxt < w_total
        for dest in np.unique(nxt[live]):
            buckets[dest].append(act[nxt == dest])

    if not out_i:
        return TileResult(stats=stats)
    return TileResult(
        np.concatenate(out_i), np.concatenate(out_j), np.concatenate(out_w),
        np.concatenate(out_c), stats,
    )


def _worst_case_rule(tile: dict, rows: np.ndarray, spec: SlidingSpec):
    """Eq. 2 with every entering c_i at its floor −1: a closed-form jump."""

    def jump(c, w, kmax, pos, stats):
        stats.probes += c.size
        k = bounds.worst_case_jump(c, spec.beta, spec.m, spec.n_s)
        return np.minimum(k, kmax + 1)  # kmax+1 ⇒ done

    return jump


def _exact_ci_rule(tile: dict, rows: np.ndarray, spec: SlidingSpec):
    """Eq. 2 with the pair's true entering c_i: binary search on G.

    The per-pair slack prefixes G = Σ(1 − c_i) cost O(pairs·n_bw) per
    tile, part of Dangoron's query cost (the baseline never needs them).
    They cover the tile's kept pair rows only and are kept flat, so
    probes index them directly and no rows are copied afterwards.
    """
    n_bw = tile["q"].shape[2]
    c_bw = bounds.bw_correlations(tile["q"], tile["stds_i"], tile["stds_j"])
    slack = bounds.slack_prefix(c_bw.reshape(-1, n_bw)[rows])
    return partial(_binary_search_jump, flat=slack.reshape(-1), width=n_bw + 1, spec=spec)


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


def _binary_search_jump(
    c: np.ndarray,
    w: int,
    kmax: int,
    pair_pos: np.ndarray,
    stats: FrontierStats,
    *,
    flat: np.ndarray,
    width: int,
    spec: SlidingSpec,
) -> np.ndarray:
    """Vectorized binary search for the smallest k ≥ 1 with UB(k) ≥ β.

    Returns k per pair, with k = kmax + 1 meaning "bounded below β to the
    end of the range" (the pair finishes). ``flat`` is the flattened
    per-pair monotone prefix G from ``bounds.slack_prefix`` (row stride
    ``width``), ``pair_pos`` the jumpers' pair positions:
    UB(k) ≥ β ⟺ G[a0 + m·k] ≥ G[a0] + (β − c)·n_s, so each probe is one
    scalar gather and one compare — no row copies.
    """
    n_s, m, beta = spec.n_s, spec.m, spec.beta
    a0 = spec.bw0 + w * m + n_s          # absolute index of first entering bw
    off = pair_pos * width + a0
    target = flat[off] + (beta - c) * n_s

    def reached(sel: np.ndarray, k: np.ndarray) -> np.ndarray:
        stats.probes += k.size
        return flat[off[sel] + m * k] >= target[sel]

    n = c.size
    every = np.arange(n)
    k_out = np.ones(n, dtype=np.int64)
    # Quick reject: UB(1) ≥ β means not even one window can be skipped.
    # In dense regions most below-β pairs land here, so the full search
    # runs only for pairs that actually get to jump.
    need = np.flatnonzero(~reached(every, np.ones(n, dtype=np.int64)))
    if need.size:
        hi0 = np.full(need.size, kmax, dtype=np.int64)
        fin = ~reached(need, hi0)  # bound stays below β to the end: done
        k_sel = np.empty(need.size, dtype=np.int64)
        k_sel[fin] = hi0[fin] + 1
        srch = np.flatnonzero(~fin)
        if srch.size:
            # branchless bisection: fixed log₂ rounds over the whole
            # batch (no per-round subset filtering — numpy call overhead
            # beats the handful of redundant probes)
            sel = need[srch]
            off_s = off[sel]
            t_s = target[sel]
            lo = np.full(srch.size, 2, dtype=np.int64)
            hi = hi0[srch].copy()
            rounds = max(int(np.ceil(np.log2(max(int(hi.max()), 2)))), 1)
            for _ in range(rounds + 1):
                mid = (lo + hi) >> 1
                p = flat[off_s + m * mid] >= t_s
                stats.probes += mid.size
                hi = np.where(p, mid, hi)
                lo = np.where(p, lo, mid + 1)
            k_sel[srch] = lo
        k_out[need] = k_sel
    return k_out
