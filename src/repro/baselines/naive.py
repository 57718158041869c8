"""Naive baseline: per-window recomputation from raw values.

No sketches, no reuse: for every sliding window the full N×l slice is
re-centred and the all-pairs correlation matrix recomputed (Θ(N²·l) per
window). ``run_windows`` runs it, and ParCorr and StatStream, on Spark.
"""
from __future__ import annotations

from typing import Callable, Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.dangoron import CELLS_SCHEMA
from repro.sketch import kernels
from repro.tsio.validation import SlidingSpec

# cells(seg, iu, ju) -> (i, j, corr): an engine's correlation values for
# one window slice seg (N, l), given the upper-triangle pair indices.
Cells = Callable[
    [np.ndarray, np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]
]


def run_windows(
    spark: SparkSession, X: np.ndarray, spec: SlidingSpec, cells: Cells
) -> DataFrame:
    """The one window runner of the raw-data engines (naive, ParCorr, StatStream).

    Broadcasts X once and fans the window ids out over at most
    ``defaultParallelism`` partitions, one Python task per core rather
    than per window; each ``mapInPandas`` task slices its windows, runs
    ``cells`` on each slice and yields the cells with corr ≥ β as
    (i, j, w, corr) rows. NaN (undefined) cells compare False and are
    never emitted.
    """
    spec.validate_against(X.shape[1])
    bc = spark.sparkContext.broadcast(X)
    n_windows, beta = spec.n_windows, spec.beta

    def run(it: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        xm = bc.value
        iu, ju = np.triu_indices(xm.shape[0], k=1)
        for pdf in it:
            for w in pdf["id"].to_numpy():
                ws, we = spec.window_t_range(int(w))
                i, j, corr = cells(xm[:, ws:we], iu, ju)
                keep = corr >= beta
                yield pd.DataFrame(
                    {
                        "i": i[keep].astype(np.int64),
                        "j": j[keep].astype(np.int64),
                        "w": np.full(int(keep.sum()), w, dtype=np.int64),
                        "corr": corr[keep],
                    }
                )

    parts = min(n_windows, spark.sparkContext.defaultParallelism)
    wins = spark.range(0, n_windows, 1, parts)
    return wins.mapInPandas(run, schema=CELLS_SCHEMA)


def cells(seg: np.ndarray, iu: np.ndarray, ju: np.ndarray):
    """Exact correlation of every upper-triangle pair of one window."""
    return iu, ju, kernels.window_corr(seg)[iu, ju]


def query(spark: SparkSession, X: np.ndarray, spec: SlidingSpec) -> DataFrame:
    """Thresholded correlation-matrix sequence by brute force."""
    return run_windows(spark, X, spec, cells)
