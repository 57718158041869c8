"""Pure numpy kernels for basic-window sketches and Eq.-1 evaluation.

Everything here is deliberately *honest about algorithmic cost*: a query
window is always aggregated from its n_s basic-window statistics (the
TSUBASA evaluation model for ad-hoc windows), never from cross-window
prefix sums. ``tile_terms`` does a tile's setup once: it fuses
g = q + m_x·m_y for the tile's kept pairs only, one contiguous row of
n_bw terms per pair (pair-major), and lays the per-series window
aggregates out window-major, one contiguous row per window.
``eval_at_window`` is the one Eq.-1 evaluator: TSUBASA, Dangoron's
landings, horizontal pruning and its pivot stage all call it. Every
cell sums all n_s of its terms in one contiguous row reduction. A call
for every pair (TSUBASA's windows) sums a view of g; a call for a
subset (a jump rule's landings, the triangle mask's survivors) gathers
that subset's rows first. Both are Θ(n_s) per cell and give the same
bits, but the view is cheaper per cell (about 60 against 140 ns on the
benchmark's tiles, DESIGN.md § physical execution item 5). That favours
TSUBASA, so engine time ratios understate the cells pruning saves.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.tsio.validation import SlidingSpec


# --------------------------------------------------------------------------
# Per-series basic-window statistics
# --------------------------------------------------------------------------

def bw_means_stds(X: np.ndarray, bw: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-basic-window mean and population std of each series.

    X: (n, L) with L a multiple of ``bw``. Returns (means, stds), each
    (n, L // bw).
    """
    n, length = X.shape
    if length % bw != 0:
        raise ValueError(f"series length {length} not a multiple of bw={bw}")
    xb = X.reshape(n, length // bw, bw)
    means = xb.mean(axis=2)
    stds = xb.std(axis=2)  # population (ddof=0); Eq. 1 is exact with these
    return means, stds


def bw_centered(X: np.ndarray, bw: int) -> np.ndarray:
    """Series reshaped to (n, n_bw, B) with each basic window mean-centred."""
    n, length = X.shape
    xb = X.reshape(n, length // bw, bw).astype(np.float64)
    return xb - xb.mean(axis=2, keepdims=True)


def pair_bw_cov(xc_i: np.ndarray, xc_j: np.ndarray) -> np.ndarray:
    """Pairwise per-basic-window population covariance between two blocks.

    xc_i: (ni, n_bw, B) centred, xc_j: (nj, n_bw, B) centred.
    Returns q of shape (ni, nj, n_bw): q[p, r, b] = cov of series p (block
    i) and series r (block j) inside basic window b.
    """
    bw = xc_i.shape[2]
    return np.einsum("ibk,jbk->ijb", xc_i, xc_j, optimize=True) / bw


# --------------------------------------------------------------------------
# Window gathers (the honest O(n_s)-per-cell aggregation)
# --------------------------------------------------------------------------

def sliding_window_sums(arr: np.ndarray, spec: SlidingSpec) -> np.ndarray:
    """Sum ``arr`` over each query window's basic windows, for all windows.

    arr: (..., n_bw). Returns (..., W) where W = spec.n_windows. Cost is
    Θ(cells × n_s): a strided view over the basic windows of each window
    is materialised by the reduction — no cross-window sharing. A window
    past the n_bw basic windows raises a ``ValueError``.
    """
    lead = arr.shape[:-1]
    flat = np.ascontiguousarray(arr.reshape(-1, arr.shape[-1]))
    w, m, n_s = spec.n_windows, spec.m, spec.n_s
    view = sliding_window_view(flat, n_s, axis=1)[:, spec.bw0 : spec.bw0 + (w - 1) * m + 1 : m]
    return view.sum(axis=2).reshape(*lead, w)


def series_window_aggregates(
    means: np.ndarray, stds: np.ndarray, spec: SlidingSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Per-series, per-window aggregates needed by Eq. 1.

    Returns (mbar, ss), each (n, W):
      mbar[s, w] = mean over the window's basic windows of the bw means
                   (= the exact window mean, since all bws are equal-size);
      ss[s, w]   = Σ_j (σ²[j] + (m[j] − mbar)²)
                 = Σ_j σ²[j] + Σ_j m[j]² − n_s·mbar²
                   (n_s × the exact window population variance).
    """
    n_s = spec.n_s
    msum = sliding_window_sums(means, spec)
    m2sum = sliding_window_sums(means * means, spec)
    s2sum = sliding_window_sums(stds * stds, spec)
    mbar = msum / n_s
    ss = s2sum + m2sum - n_s * mbar * mbar
    return mbar, ss


def row_runs(rows: np.ndarray, nj: int) -> Iterator[tuple[slice, int, slice]]:
    """Split flat pair rows (pi·nj + pj) into runs of consecutive pj in one pi.

    Yields (positions, pi, pj range) per run, so a per-pair array can be
    filled from per-series rows by broadcasting, with no per-pair gather
    of them. A tile's kept rows (``pair_sketch.pair_tile_arrays``) are
    one run per i row.
    """
    pi, pj = np.divmod(rows, nj)
    cut = np.flatnonzero((np.diff(rows) != 1) | (np.diff(pi) != 0)) + 1
    starts, stops = [0, *cut.tolist()], [*cut.tolist(), rows.size]
    for s, e, i, j in zip(starts, stops, pi[starts].tolist(), pj[starts].tolist()):
        yield slice(s, e), i, slice(j, j + e - s)


def fuse_pair_terms(
    q: np.ndarray, means_i: np.ndarray, means_j: np.ndarray,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """Fused sketch terms g_b = q_b + m_x[b]·m_y[b] of the pair rows ``rows``.

    Eq. 1's numerator is Σ_b g_b − n_s·M̄_x·M̄_y, so fusing once at tile
    setup lets every window evaluation sum one row of g. q is
    (ni, nj, n_bw) and ``rows`` are flat pair rows pi·nj + pj, all
    ni·nj of them by default. Returns (len(rows), n_bw), pair-major.
    """
    ni, nj, n_bw = q.shape
    if rows is None:
        rows = np.arange(ni * nj)
    g = np.empty((rows.size, n_bw))
    for pos, i, j in row_runs(rows, nj):
        np.multiply(means_i[i], means_j[j], out=g[pos])
        g[pos] += q[i, j]
    return g


@dataclass(frozen=True)
class TileTerms:
    """Everything ``eval_at_window`` reads, built once per tile."""

    g: np.ndarray        # (pairs, n_bw) fused terms of the kept pairs, pair-major
    pi: np.ndarray       # (pairs,) each pair's local row on the i side
    pj: np.ndarray       # (pairs,) and on the j side
    mbar_i: np.ndarray   # (W, ni) window means of the i side, window-major
    ss_i: np.ndarray     # (W, ni) n_s × window variances of the i side
    mbar_j: np.ndarray   # (W, nj)
    ss_j: np.ndarray     # (W, nj)


def tile_terms(tile: dict, spec: SlidingSpec, rows: np.ndarray) -> TileTerms:
    """Per-tile setup of Eq.-1 evaluation for the pair rows ``rows``.

    ``tile`` needs its basic-window size ``bw``, ``means_i``, ``stds_i``,
    ``means_j``, ``stds_j`` and the pairwise bw covariances ``q``
    (ni, nj, n_bw); ``rows`` are flat pair rows pi·nj + pj, usually the
    kept ones of ``pair_sketch.pair_tile_arrays``. Pair p of the terms
    is ``rows[p]``.

    Raises a ``ValueError`` when ``spec`` does not fit the tile: a
    different basic window would sum the wrong terms, and a window past
    the tile's n_bw basic windows would read past the tile's arrays.
    """
    n_bw = tile["q"].shape[2]
    if spec.bw != tile["bw"]:
        raise ValueError(
            f"query bw={spec.bw} does not match the sketch's bw={tile['bw']}; "
            "build the sketch at the query's basic window"
        )
    needed = spec.bw0 + (spec.n_windows - 1) * spec.m + spec.n_s
    if needed > n_bw:
        raise ValueError(
            f"query end={spec.end} needs {needed} basic windows, but the sketch "
            f"holds {n_bw} (bw={spec.bw})"
        )
    mbar_i, ss_i = series_window_aggregates(tile["means_i"], tile["stds_i"], spec)
    mbar_j, ss_j = series_window_aggregates(tile["means_j"], tile["stds_j"], spec)
    g = fuse_pair_terms(tile["q"], tile["means_i"], tile["means_j"], rows)
    pi, pj = np.divmod(rows, tile["means_j"].shape[0])
    major = np.ascontiguousarray
    return TileTerms(g, pi, pj, major(mbar_i.T), major(ss_i.T), major(mbar_j.T), major(ss_j.T))


def eval_at_window(
    terms: TileTerms, pos: np.ndarray | slice, w: int, spec: SlidingSpec
) -> np.ndarray:
    """Exact Eq.-1 correlation of the listed pairs at window ``w``.

    The one Eq.-1 evaluator: the sweep calls it with every pair at every
    window (TSUBASA) or with the pairs its jump rule wakes at ``w``
    (Dangoron, and horizontal pruning after its triangle mask), and the
    pivot stage with the pivot's pairs. Each cell sums its n_s fused
    terms, one contiguous stretch of its row of g. ``pos`` are positions
    into the terms' pairs, or ``slice(None)`` for every pair: then the
    sum reads a view of g, where positions gather their rows into a copy
    first. The reduction is the same on both, so a cell's value does not
    depend on which engine evaluated it.

    Cells with a zero-variance side are NaN (correlation undefined),
    mirroring ``np.corrcoef``.
    """
    n_s = spec.n_s
    a = spec.bw0 + w * spec.m
    gsum = np.einsum("ij->i", terms.g[pos, a : a + n_s])
    si, sj = terms.pi[pos], terms.pj[pos]
    num = gsum - n_s * terms.mbar_i[w][si] * terms.mbar_j[w][sj]
    den2 = terms.ss_i[w][si] * terms.ss_j[w][sj]
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(den2 > 0, num / np.sqrt(den2), np.nan)


# --------------------------------------------------------------------------
# Raw-window correlation: the reference, and the raw-data engines' kernels
# --------------------------------------------------------------------------

def varies(seg: np.ndarray) -> np.ndarray:
    """Whether each row of a window takes more than one value: (N, l) -> (N,).

    Decided exactly, not from the centred norm: ``seg - seg.mean()``
    leaves rounding residue in a constant row whenever its mean does not
    round-trip (13.7 does not, 2.0 does), which would give it a tiny
    direction and correlations near 0 instead of undefined ones.
    """
    return seg.max(axis=1) > seg.min(axis=1)


def unit_rows(seg: np.ndarray) -> np.ndarray:
    """Each row of a window centred and scaled to unit norm: (N, l) -> (N, l).

    The inner product of two unit rows is their Pearson correlation. A
    constant row has no direction and is NaN, so every correlation it
    takes part in is NaN (undefined), as in ``window_corr``.
    """
    segc = seg - seg.mean(axis=1, keepdims=True)
    norms = np.sqrt((segc * segc).sum(axis=1, keepdims=True))
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where((norms > 0) & varies(seg)[:, None], segc / norms, np.nan)


def window_corr(seg: np.ndarray) -> np.ndarray:
    """All-pairs correlation of one window's rows: (N, l) -> (N, N).

    Cells with a constant row are NaN (correlation undefined).
    """
    segc = seg - seg.mean(axis=1, keepdims=True)
    norms = np.sqrt((segc * segc).sum(axis=1))
    cov = segc @ segc.T
    den = np.outer(norms, norms)
    ok = varies(seg)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where((den > 0) & ok[:, None] & ok[None, :], cov / den, np.nan)


def exact_window_corr(X: np.ndarray, spec: SlidingSpec) -> np.ndarray:
    """Ground-truth all-pairs correlation per window, straight from raw data.

    Returns (N, N, W). Cost Θ(N²·l) per window — the naive baseline's
    model (no sketch reuse across windows).
    """
    n = X.shape[0]
    out = np.empty((n, n, spec.n_windows), dtype=np.float64)
    for w in range(spec.n_windows):
        ws, we = spec.window_t_range(w)
        out[:, :, w] = window_corr(X[:, ws:we])
    return out
