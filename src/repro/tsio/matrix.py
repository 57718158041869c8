"""Conversions between dense matrices and long-form Spark DataFrames.

Long form is the Catalyst-visible layout: one row per observation,
``(series_id, t, value)``. All Spark-side substrates (sketch builders,
streaming maintenance, the DuckDB oracle) consume it; the Arrow kernels
consume the dense matrix.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.tsio.validation import SlidingSpec

LONG_SCHEMA = "series_id long, t long, value double"


def to_long_pdf(X: np.ndarray) -> pd.DataFrame:
    """Dense (N, L) matrix -> long pandas frame (series_id, t, value)."""
    n, length = X.shape
    return pd.DataFrame(
        {
            "series_id": np.repeat(np.arange(n, dtype=np.int64), length),
            "t": np.tile(np.arange(length, dtype=np.int64), n),
            "value": X.reshape(-1).astype(np.float64),
        }
    )


def to_long_df(spark: SparkSession, X: np.ndarray) -> DataFrame:
    """Dense (N, L) matrix -> long Spark DataFrame (series_id, t, value)."""
    return spark.createDataFrame(to_long_pdf(X), schema=LONG_SCHEMA)


def from_long_pdf(pdf: pd.DataFrame) -> np.ndarray:
    """Long pandas frame -> dense (N, L) matrix.

    Requires series_ids 0..N-1 and timesteps 0..L-1 to be fully populated
    (the synchronized-series assumption from the problem definition);
    raises if the grid has holes.
    """
    n = int(pdf["series_id"].max()) + 1
    length = int(pdf["t"].max()) + 1
    if len(pdf) != n * length:
        raise ValueError(
            f"long frame is not a full {n}x{length} grid "
            f"({len(pdf)} rows); synchronize the series first"
        )
    X = np.empty((n, length), dtype=np.float64)
    X[pdf["series_id"].to_numpy(), pdf["t"].to_numpy()] = pdf["value"].to_numpy()
    return X


def window_slices(spec: SlidingSpec) -> pd.DataFrame:
    """One row per sliding window: (w, ws, we) with [ws, we) in timesteps.

    Used by the DuckDB oracle to express "per-window correlation" in SQL
    and by jobs to label output windows with absolute time ranges.
    """
    rows = [(w, *spec.window_t_range(w)) for w in range(spec.n_windows)]
    return pd.DataFrame(rows, columns=["w", "ws", "we"]).astype("int64")
