"""StatStream-style truncated-frequency correlation estimates.

StatStream (Zhu & Shasha, VLDB '02) approximates correlations from the
first few DFT coefficients of each (normalised) window. The estimate is
good exactly when the series' energy concentrates in those low
frequencies — the data-dependency Tomborg's energy-concentration knob
is designed to expose (paper §2: frequency-transform methods "only
succeed when energy concentrates in a few domains").

We reuse Tomborg's orthonormal real DFT: the estimate is the inner
product of the first ``f`` real coefficients of the normalised window
vectors, i.e. the exact correlation minus the discarded tail energy.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.baselines.naive import Cells, run_windows
from repro.sketch import kernels
from repro.tomborg.spectra import real_dft
from repro.tsio.validation import SlidingSpec


def estimate_window(seg: np.ndarray, n_coef: int) -> np.ndarray:
    """Estimated all-pairs correlation of one window from ``n_coef`` coefficients.

    NaN where a row is constant (correlation undefined).
    """
    coef = real_dft(kernels.unit_rows(seg))[:, :n_coef]
    return coef @ coef.T


def cells(n_coef: int) -> Cells:
    """StatStream's per-window cells for ``run_windows``."""
    return lambda seg, iu, ju: (iu, ju, estimate_window(seg, n_coef)[iu, ju])


def query(
    spark: SparkSession,
    X: np.ndarray,
    spec: SlidingSpec,
    n_coef: int = 16,
) -> DataFrame:
    """Estimated network edges via truncated-frequency sketches."""
    return run_windows(spark, X, spec, cells(n_coef))
