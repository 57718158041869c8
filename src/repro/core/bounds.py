"""Correlation bounds used by Dangoron's pruning.

Temporal bound (paper Eq. 2, generalised to a slide of m basic windows):
after k slides from a window whose exact correlation is c,

    UB(k) = c + (1/n_s) · ( m·k − Σ_{i=1}^{m·k} c_i )

with c_i the pairwise basic-window correlations of the basic windows
entering during the k slides. Since c_i ≤ 1, every increment
(1 − c_i)/n_s is ≥ 0, so UB is monotone non-decreasing in k — which is
what makes the landing, the smallest k with UB(k) ≥ β, well-defined
(the paper binary-searches for it; the exact-ci jump rule scans for it
window by window). The bound is proved in the paper under a
per-basic-window sampling assumption; it is *not* sound for arbitrary
mean drift, which is exactly why the paper reports ≈90% (not 100%)
accuracy. The ``worst-case`` mode replaces every c_i by
its floor −1, giving UB(k) = c + 2·m·k/n_s: looser (shorter jumps) and
independent of the pair sketch.

Horizontal bound (sound): for any three series within one window the
correlation matrix is PSD, hence with c_xz, c_yz known,

    c_xz·c_yz − √((1−c_xz²)(1−c_yz²)) ≤ c_xy ≤ c_xz·c_yz + √((1−c_xz²)(1−c_yz²)).
"""
from __future__ import annotations

import numpy as np


def bw_correlations(
    q: np.ndarray, stds_i: np.ndarray, stds_j: np.ndarray
) -> np.ndarray:
    """Pairwise per-basic-window correlations c_i from the sketch.

    q: (ni, nj, n_bw) bw covariances; stds_*: (n*, n_bw).
    Degenerate basic windows (zero std on either side) get c_i = −1, the
    conservative floor: it maximises the upper bound, so pruning only
    gets *less* aggressive, never unsound-er.

    Implementation note: per-series reciprocals + two broadcast
    multiplies instead of an (ni·nj·n_bw) division — this tensor is the
    largest thing Dangoron's query phase touches and elementwise divides
    dominate it otherwise.
    """
    with np.errstate(divide="ignore"):
        inv_i = np.where(stds_i > 0, 1.0 / stds_i, np.nan)
        inv_j = np.where(stds_j > 0, 1.0 / stds_j, np.nan)
    c = np.einsum("ijb,ib,jb->ijb", q, inv_i, inv_j, optimize=True)
    np.clip(c, -1.0, 1.0, out=c)
    return np.nan_to_num(c, nan=-1.0, copy=False)


def slack_prefix(c_bw: np.ndarray, axis: int = -1) -> np.ndarray:
    """Monotone prefix G with G[b] = Σ_{i<b} (1 − c_i), leading 0.

    Eq. 2 rearranged: UB(k) = c + (G[a0 + m·k] − G[a0]) / n_s where a0
    indexes the first entering basic window. G is non-decreasing
    (1 − c_i ≥ 0), so the smallest k with UB(k) ≥ β is where G first
    reaches G[a0] + (β − c)·n_s; the exact-ci jump rule scans for it
    window by window. The prefix runs along the basic-window ``axis``,
    which grows by one.
    """
    shape = list(c_bw.shape)
    shape[axis] += 1
    pref = np.zeros(shape, dtype=np.float64)
    tail = [slice(None)] * c_bw.ndim
    tail[axis] = slice(1, None)
    np.cumsum(1.0 - c_bw, axis=axis, out=pref[tuple(tail)])
    return pref


def worst_case_jump(c: np.ndarray, beta: float, m: int, n_s: int) -> np.ndarray:
    """Smallest k ≥ 1 with worst-case UB(k) ≥ β, in closed form."""
    k = np.ceil((beta - c) * n_s / (2.0 * m)).astype(np.int64)
    return np.maximum(k, 1)


def triangle_bounds(c_xz: np.ndarray, c_yz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sound horizontal bounds on c_xy given the two pivot correlations."""
    c_xz = np.clip(c_xz, -1.0, 1.0)
    c_yz = np.clip(c_yz, -1.0, 1.0)
    s = np.sqrt((1.0 - c_xz * c_xz) * (1.0 - c_yz * c_yz))
    prod = c_xz * c_yz
    return prod - s, prod + s
