"""Pure numpy kernels for basic-window sketches and Eq.-1 evaluation.

Everything here is deliberately *honest about algorithmic cost*: a query
window is always aggregated from its n_s basic-window statistics (the
TSUBASA evaluation model for ad-hoc windows), never from cross-window
prefix sums. ``tile_terms`` does a tile's setup once and
``eval_at_window`` is the one Eq.-1 evaluator: TSUBASA, Dangoron's
landings and horizontal pruning all call it, so wall-clock differences
between the engines reflect how many (pair, window) cells each
evaluates — the quantity the paper's pruning reduces — not
implementation asymmetry.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

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
    is materialised by the reduction — no cross-window sharing.
    """
    lead = arr.shape[:-1]
    flat = np.ascontiguousarray(arr.reshape(-1, arr.shape[-1]))
    w, m, n_s = spec.n_windows, spec.m, spec.n_s
    sub = flat[:, spec.bw0 : spec.bw0 + (w - 1) * m + n_s]
    s0, s1 = sub.strides
    view = as_strided(sub, shape=(flat.shape[0], w, n_s), strides=(s0, s1 * m, s1))
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


def fuse_pair_terms(q: np.ndarray, means_i: np.ndarray, means_j: np.ndarray) -> np.ndarray:
    """Per-pair fused sketch g_j = q_j + m_x[j]·m_y[j], flattened.

    Eq. 1's numerator is Σ_j g_j − n_s·M̄_x·M̄_y, so fusing once at tile
    setup lets every window evaluation do a single gather+sum. Shape
    (ni·nj, n_bw).
    """
    g = np.einsum("ib,jb->ijb", means_i, means_j, optimize=True)
    g += q
    return g.reshape(-1, q.shape[2])


@dataclass(frozen=True)
class TileTerms:
    """Everything ``eval_at_window`` reads, built once per tile."""

    g: np.ndarray        # (ni·nj, n_bw) fused pair terms, row = pi·nj + pj
    mbar_i: np.ndarray   # (ni, W) window means of the i side
    ss_i: np.ndarray     # (ni, W) n_s × window variances of the i side
    mbar_j: np.ndarray   # (nj, W)
    ss_j: np.ndarray     # (nj, W)


def tile_terms(tile: dict, spec: SlidingSpec) -> TileTerms:
    """Per-tile setup of Eq.-1 evaluation: window aggregates and fused g.

    ``tile`` needs ``means_i``, ``stds_i``, ``means_j``, ``stds_j`` and
    the pairwise bw covariances ``q`` (ni, nj, n_bw).
    """
    mbar_i, ss_i = series_window_aggregates(tile["means_i"], tile["stds_i"], spec)
    mbar_j, ss_j = series_window_aggregates(tile["means_j"], tile["stds_j"], spec)
    g = fuse_pair_terms(tile["q"], tile["means_i"], tile["means_j"])
    return TileTerms(g, mbar_i, ss_i, mbar_j, ss_j)


def eval_at_window(
    terms: TileTerms, rows: np.ndarray, w: int, spec: SlidingSpec
) -> np.ndarray:
    """Exact Eq.-1 correlation of the listed pair rows at window ``w``.

    The one Eq.-1 evaluator: the sweep calls it with every pair row at
    every window (TSUBASA) or with the rows its jump rule wakes at ``w``
    (Dangoron, and horizontal pruning after its triangle mask), and the
    pivot stage with the pivot's row. Every cell pays the same Θ(n_s)
    gather-sum over the fused g, so engine wall-clock ratios measure
    pruning, not implementation skew.

    rows: (c,) flat pair rows (pi·nj + pj) into ``terms.g``. Cells with
    a zero-variance side are NaN (correlation undefined), mirroring
    ``np.corrcoef``.
    """
    n_s = spec.n_s
    a = spec.bw0 + w * spec.m
    gsum = terms.g[rows, a : a + n_s].sum(axis=1)
    si, sj = np.divmod(rows, terms.mbar_j.shape[0])
    num = gsum - n_s * terms.mbar_i[si, w] * terms.mbar_j[sj, w]
    den2 = terms.ss_i[si, w] * terms.ss_j[sj, w]
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(den2 > 0, num / np.sqrt(den2), np.nan)


# --------------------------------------------------------------------------
# Raw-window correlation: the reference, and the raw-data engines' kernels
# --------------------------------------------------------------------------

def unit_rows(seg: np.ndarray) -> np.ndarray:
    """Each row of a window centred and scaled to unit norm: (N, l) -> (N, l).

    The inner product of two unit rows is their Pearson correlation. A
    constant row has no direction and is NaN, so every correlation it
    takes part in is NaN (undefined), as in ``window_corr``.
    """
    segc = seg - seg.mean(axis=1, keepdims=True)
    norms = np.sqrt((segc * segc).sum(axis=1, keepdims=True))
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(norms > 0, segc / norms, np.nan)


def window_corr(seg: np.ndarray) -> np.ndarray:
    """All-pairs correlation of one window's rows: (N, l) -> (N, N).

    Cells with a constant row are NaN (correlation undefined).
    """
    segc = seg - seg.mean(axis=1, keepdims=True)
    norms = np.sqrt((segc * segc).sum(axis=1))
    cov = segc @ segc.T
    den = np.outer(norms, norms)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(den > 0, cov / den, np.nan)


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
