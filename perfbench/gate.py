"""Correctness gate: engine edges against a numpy reference on raw data.

The reference is ``kernels.exact_window_corr`` on the raw matrix, not
another engine, so a defect shared by the sketch evaluators still shows.
Cells whose true correlation lies within ``BAND`` of β are excluded
from every comparison: floating-point rounding may put them on either
side of the threshold.

- exact engines (TSUBASA, horizontal) must emit exactly the true edges;
- Dangoron may miss edges (Eq. 2 is a heuristic bound), but every edge
  it emits must be a true edge with a matching value; its recall is
  reported, never hidden.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.sketch import kernels
from repro.tsio.validation import SlidingSpec

BAND = 1e-9     # |ρ − β| below this: threshold side is rounding-dependent
VALUE_TOL = 1e-8


@dataclass
class Check:
    ok: bool
    edges: int
    true_edges: int
    missing: int
    extra: int
    bad_values: int
    duplicates: int
    recall: float

    def describe(self) -> str:
        return (
            f"edges={self.edges} true={self.true_edges} missing={self.missing} "
            f"extra={self.extra} bad_values={self.bad_values} "
            f"duplicates={self.duplicates} recall={self.recall:.6f}"
        )


def reference(X: np.ndarray, spec: SlidingSpec) -> np.ndarray:
    """(N, N, W) exact window correlations; independent of β."""
    return kernels.exact_window_corr(X, spec)


def check_edges(
    edges: pd.DataFrame, ref: np.ndarray, beta: float, exact: bool
) -> Check:
    """Compare an engine's (i, j, w, corr) edges with the reference."""
    n, _, n_w = ref.shape
    i = edges["i"].to_numpy(dtype=np.int64)
    j = edges["j"].to_numpy(dtype=np.int64)
    w = edges["w"].to_numpy(dtype=np.int64)
    corr = edges["corr"].to_numpy(dtype=np.float64)
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    in_range = (lo >= 0) & (hi < n) & (lo < hi) & (w >= 0) & (w < n_w)
    key = (lo * n + hi) * n_w + w
    flat = ref.reshape(-1)
    rv = np.where(in_range, flat[np.where(in_range, key, 0)], np.nan)

    upper = np.triu(np.ones((n, n), dtype=bool), k=1)[:, :, None]
    with np.errstate(invalid="ignore"):
        band = np.abs(ref - beta) <= BAND
        true_cells = upper & (ref >= beta) & ~band
        e_band = np.abs(rv - beta) <= BAND
        e_true = in_range & (rv >= beta) & ~e_band
    extra = int((~e_true & ~e_band).sum())
    bad = int((e_true & ~(np.abs(corr - rv) <= VALUE_TOL)).sum())
    dup = int(len(key) - len(np.unique(key)))
    n_true = int(true_cells.sum())
    found = int(len(np.unique(key[e_true])))
    missing = n_true - found
    ok = extra == 0 and bad == 0 and dup == 0 and (missing == 0 or not exact)
    recall = found / n_true if n_true else 1.0
    return Check(ok, len(edges), n_true, missing, extra, bad, dup, recall)
