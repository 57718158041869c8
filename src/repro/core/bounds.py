"""Correlation bounds used by Dangoron's pruning.

Temporal bound (paper Eq. 2, generalised to a slide of m basic windows):
after k slides from a window whose exact correlation is c,

    UB(k) = c + (1/n_s) · ( m·k − Σ_{i=1}^{m·k} c_i )

with c_i the pairwise basic-window correlations of the basic windows
entering during the k slides. Since c_i ≤ 1, every increment
(1 − c_i)/n_s is ≥ 0, so UB is monotone non-decreasing in k — which is
what makes the landing, the smallest k with UB(k) ≥ β, well-defined
(the paper binary-searches for it; the sweep scans for it window by
window). The bound is proved in the paper under a per-basic-window
sampling assumption; it is *not* sound for arbitrary mean drift, which
is exactly why the paper reports ≈90% (not 100%) accuracy. The
``worst-case`` mode replaces every c_i by its floor −1, giving
UB(k) = c + 2·m·k/n_s: looser (shorter jumps) and independent of the
pair sketch. Its slack prefix is G[b] = 2b, so both modes run the same
jump rule over ``slack_prefix``'s G.

Horizontal bound (sound): for any three series within one window the
correlation matrix is PSD, hence with c_xz, c_yz known,

    c_xz·c_yz − √((1−c_xz²)(1−c_yz²)) ≤ c_xy ≤ c_xz·c_yz + √((1−c_xz²)(1−c_yz²)).
"""
from __future__ import annotations

import numpy as np

from repro.sketch import kernels


def bw_correlations(
    q: np.ndarray, stds_i: np.ndarray, stds_j: np.ndarray,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """Pairwise per-basic-window correlations c_i from the sketch.

    q: (ni, nj, n_bw) bw covariances; stds_*: (n*, n_bw). Returns c_i of
    the flat pair rows ``rows`` (pi·nj + pj), all ni·nj of them by
    default, pair-major: (len(rows), n_bw).
    Degenerate basic windows (zero std on either side) get c_i = −1, the
    conservative floor: it maximises the upper bound, so pruning only
    gets *less* aggressive, never unsound-er.

    Implementation note: per-series reciprocals, multiplied per pair and
    then into q, instead of a division per (pair, basic window) —
    elementwise divides would dominate this, the largest array the
    exact-ci mode builds. Each i row's run of pairs is filled by
    broadcasting (``kernels.row_runs``), so no per-pair copy of the
    reciprocals is made.
    """
    ni, nj, n_bw = q.shape
    if rows is None:
        rows = np.arange(ni * nj)
    with np.errstate(divide="ignore"):
        inv_i = np.where(stds_i > 0, 1.0 / stds_i, np.nan)
        inv_j = np.where(stds_j > 0, 1.0 / stds_j, np.nan)
    c = np.empty((rows.size, n_bw))
    for pos, i, j in kernels.row_runs(rows, nj):
        np.multiply(inv_i[i], inv_j[j], out=c[pos])
        c[pos] *= q[i, j]
    np.clip(c, -1.0, 1.0, out=c)
    np.nan_to_num(c, nan=-1.0, copy=False)
    return c


def slack_prefix(c_bw: np.ndarray, axis: int = -1) -> np.ndarray:
    """Monotone prefix G with G[b] = Σ_{i<b} (1 − c_i), leading 0.

    Eq. 2 rearranged: UB(k) = c + (G[a0 + m·k] − G[a0]) / n_s where a0
    indexes the first entering basic window. G is non-decreasing
    (1 − c_i ≥ 0), so the smallest k with UB(k) ≥ β is where G first
    reaches G[a0] + (β − c)·n_s; the sweep scans for it window by
    window. The prefix runs along the basic-window ``axis``, which grows
    by one.
    """
    shape = list(c_bw.shape)
    shape[axis] += 1
    pref = np.zeros(shape, dtype=np.float64)
    tail = [slice(None)] * c_bw.ndim
    tail[axis] = slice(1, None)
    np.cumsum(1.0 - c_bw, axis=axis, out=pref[tuple(tail)])
    return pref


def triangle_bounds(c_xz: np.ndarray, c_yz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sound horizontal bounds on c_xy given the two pivot correlations."""
    c_xz = np.clip(c_xz, -1.0, 1.0)
    c_yz = np.clip(c_yz, -1.0, 1.0)
    s = np.sqrt((1.0 - c_xz * c_xz) * (1.0 - c_yz * c_yz))
    prod = c_xz * c_yz
    return prod - s, prod + s
