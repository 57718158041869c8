"""Conversions between dense matrices and long-form Spark DataFrames.

Long form is the Catalyst-visible layout: one row per observation,
``(series_id, t, value)``. ``from_long_pdf`` is its one reader into a
dense grid, and the one place its grid is checked: long-form input
reaches the pair sketch as ``from_long_pdf(long_df.toPandas())`` and
then the matrix path, and the streaming store reads each batch with it.
The DuckDB oracle reads long form in SQL; the Arrow kernels consume the
dense matrix.
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


def from_long_pdf(
    pdf: pd.DataFrame, ids: np.ndarray | None = None, ts: np.ndarray | None = None
) -> np.ndarray:
    """Long pandas frame -> dense (len(ids), len(ts)) matrix.

    The one reader of long-form rows: long-form input to the pair sketch
    and the streaming store's batches both go through it. ``ids`` and
    ``ts`` are the grid's axes, by default 0..max series_id and 0..max
    t. The grid must be full (the synchronized-series assumption of the
    problem definition). A non-finite value, a negative series_id or t,
    a row outside the given axes, a duplicate (series_id, t) and a hole
    are each rejected, naming the first offender in (series_id, t)
    order.
    """
    sid = pdf["series_id"].to_numpy(dtype=np.int64)
    t = pdf["t"].to_numpy(dtype=np.int64)
    value = pdf["value"].to_numpy(dtype=np.float64)

    def reject(bad: np.ndarray, message: str) -> None:
        if bad.any():
            k = np.flatnonzero(bad)
            k = k[np.lexsort((t[k], sid[k]))[0]]
            raise ValueError(message.format(s=sid[k], t=t[k], v=value[k]))

    reject(~np.isfinite(value),
           "series {s} has a non-finite value ({v}) at t={t}; fill or drop it first")
    reject(sid < 0, "series_id={s} is negative; series ids and timesteps start at 0")
    reject(t < 0, "t={t} is negative; series ids and timesteps start at 0")
    ids = np.arange(sid.max() + 1) if ids is None else np.asarray(ids)
    ts = np.arange(t.max() + 1) if ts is None else np.asarray(ts)
    row, col = pd.Index(ids).get_indexer(sid), pd.Index(ts).get_indexer(t)
    reject((row < 0) | (col < 0), "series {s} at t={t} lies outside the grid's axes")
    cell = row * len(ts) + col
    count = np.bincount(cell, minlength=len(ids) * len(ts))
    reject(count[cell] > 1,
           "series {s} has more than one row at t={t}; deduplicate the long form first")
    count = count.reshape(len(ids), len(ts))
    if not count.all():
        r, c = np.nonzero(count == 0)
        k = np.lexsort((ts[c], ids[r]))[0]
        raise ValueError(
            f"series {ids[r[k]]} has {np.count_nonzero(count[r[k]])} of {len(ts)} "
            f"timesteps (none at t={ts[c[k]]}); "
            "the long form must be a full grid of complete timesteps"
        )
    X = np.empty(len(ids) * len(ts), dtype=np.float64)
    X[cell] = value
    return X.reshape(len(ids), len(ts))


def window_slices(spec: SlidingSpec) -> pd.DataFrame:
    """One row per sliding window: (w, ws, we) with [ws, we) in timesteps.

    Used by the DuckDB oracle to express "per-window correlation" in SQL
    and by jobs to label output windows with absolute time ranges.
    """
    rows = [(w, *spec.window_t_range(w)) for w in range(spec.n_windows)]
    return pd.DataFrame(rows, columns=["w", "ws", "we"]).astype("int64")
