"""ParCorr-style random-projection correlation estimates.

ParCorr (Yagoubi et al., DAMI '18) sketches each window's normalised
series vector with d random projections; the inner product of two
sketches estimates the Pearson correlation (Johnson–Lindenstrauss). The
paper uses ParCorr as the *accuracy* yardstick ("achieves an accuracy
above 90 percent, comparable to Parcorr"), so this reproduction keeps
the estimator faithful (same R across windows, as ParCorr's incremental
scheme requires) without its incremental-update machinery.

The query runs ``cells`` on every window through ``naive.run_windows``
(broadcast matrix, one Arrow kernel per window partition) and emits the
estimates ≥ β as edges.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.baselines.naive import Cells, run_windows
from repro.sketch import kernels
from repro.tsio.validation import SlidingSpec


def estimate_window(seg: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Estimated all-pairs correlation matrix of one window.

    Projects each row's unit window vector on the d rows of ``r``; NaN
    where a row is constant (correlation undefined).
    """
    s = kernels.unit_rows(seg) @ r.T / np.sqrt(r.shape[0])
    return s @ s.T


def cells(spec: SlidingSpec, d: int, seed: int, verify: bool) -> Cells:
    """ParCorr's per-window cells for ``run_windows`` (see ``query``)."""
    # The same projection matrix for every window, deterministic in
    # (seed, d, l), as ParCorr's shared sketches require.
    r = np.random.default_rng(seed).normal(size=(d, spec.window))
    if not verify:
        return lambda seg, iu, ju: (iu, ju, estimate_window(seg, r)[iu, ju])
    # candidates reach within two JL standard deviations (1/√d each) of β
    lo = spec.beta - 2.0 / np.sqrt(d)

    def verified(seg, iu, ju):
        cand = estimate_window(seg, r)[iu, ju] >= lo
        ci, cj = iu[cand], ju[cand]
        unit = kernels.unit_rows(seg)
        return ci, cj, (unit[ci] * unit[cj]).sum(axis=1)

    return verified


def query(
    spark: SparkSession,
    X: np.ndarray,
    spec: SlidingSpec,
    d: int = 32,
    seed: int = 0,
    verify: bool = False,
) -> DataFrame:
    """Network edges via ParCorr sketches.

    ``verify=False`` emits the raw estimates ≥ β (sketch-only accuracy).
    ``verify=True`` runs ParCorr's full pipeline: sketches generate
    *candidates* with est ≥ β − 2/√d (two JL standard deviations), only
    the candidates are verified with the exact correlation, and only true
    edges (exact ≥ β) are emitted — precision 1 by construction, recall
    limited by candidate generation.
    """
    return run_windows(spark, X, spec, cells(spec, d, seed, verify))
