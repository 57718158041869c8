"""Packing series into block bundles for all-pairs fan-out.

All-pairs work over N series is distributed as (N/p)² /2 block pairs: a
tiny DataFrame of binary block bundles is cross-joined with itself and
each block-pair task runs a numpy kernel over a p×p tile of the pair
space. This is the standard Arrow-kernel layout for quadratic
computations in PySpark — a Catalyst self-join of the long form would
shuffle N²·L rows, while block bundles ship Θ(N·L) bytes once.

A bundle carries, per series of the block: global ids, per-basic-window
means and population stds, and the bw-centred raw data (needed once to
form pairwise bw covariances at sketch-build time).
"""
from __future__ import annotations

import pickle

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.sketch import kernels
from repro.tsio.validation import SlidingSpec

BLOCK_SCHEMA = "block_id long, n long, payload binary"


def make_bundle(ids: np.ndarray, xblk: np.ndarray, bw: int) -> bytes:
    """Serialize one block of series into a bundle payload.

    Rejects NaN and inf values: either would silently turn every window
    it touches into an undefined cell and drop that window's edges.
    """
    finite = np.isfinite(xblk)
    if not finite.all():
        s, t = np.argwhere(~finite)[0]
        raise ValueError(
            f"series {int(ids[s])} has a non-finite value ({xblk[s, t]}) at t={int(t)}; "
            "fill or drop it before packing"
        )
    means, stds = kernels.bw_means_stds(xblk, bw)
    centred = kernels.bw_centered(xblk, bw)
    return pickle.dumps(
        {
            "ids": np.asarray(ids, dtype=np.int64),
            "means": means,
            "stds": stds,
            "centred": centred.astype(np.float64),
        },
        protocol=4,
    )


def load_bundle(payload: bytes) -> dict:
    """Deserialize a block bundle payload."""
    return pickle.loads(payload)


def pack_blocks_from_matrix(
    spark: SparkSession, X: np.ndarray, spec: SlidingSpec, block_size: int = 16
) -> DataFrame:
    """Driver-side packing of a dense matrix into a block-bundle DataFrame."""
    spec.validate_against(X.shape[1])
    n = X.shape[0]
    rows = []
    for b, lo in enumerate(range(0, n, block_size)):
        hi = min(lo + block_size, n)
        ids = np.arange(lo, hi, dtype=np.int64)
        rows.append((b, hi - lo, make_bundle(ids, X[lo:hi], spec.bw)))
    pdf = pd.DataFrame(rows, columns=["block_id", "n", "payload"])
    return spark.createDataFrame(pdf, schema=BLOCK_SCHEMA)


def pack_blocks_from_long(
    long_df: DataFrame, spec: SlidingSpec, block_size: int = 16
) -> DataFrame:
    """Distributed packing of the long form into block bundles.

    Series are assigned to blocks by ``series_id // block_size``;
    ``applyInPandas`` assembles each block's dense tile and serializes
    the bundle on the executors (no driver collect of the raw data).
    Every series of a block must have exactly one row per timestep
    0..L−1; a hole or a duplicate row fails the action that runs the
    packing.
    """
    from pyspark.sql import functions as F

    bw = spec.bw

    def assemble(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.sort_values(["series_id", "t"])
        ids = pdf["series_id"].unique()
        ids.sort()
        length = int(pdf["t"].max()) + 1
        dup = pdf.duplicated(["series_id", "t"])
        if dup.any():
            first = pdf.loc[dup.idxmax()]
            raise ValueError(
                f"series {int(first['series_id'])} has more than one row at "
                f"t={int(first['t'])}; "
                "deduplicate the long form before packing"
            )
        counts = pdf.groupby("series_id").size()
        short = counts[counts != length]
        if len(short):
            raise ValueError(
                f"series {int(short.index[0])} has {int(short.iloc[0])} of {length} timesteps; "
                "synchronize the series (fill or drop missing rows) before packing"
            )
        xblk = np.empty((len(ids), length), dtype=np.float64)
        pos = {s: k for k, s in enumerate(ids)}
        rowpos = pdf["series_id"].map(pos).to_numpy()
        xblk[rowpos, pdf["t"].to_numpy()] = pdf["value"].to_numpy()
        block_id = int(ids[0]) // block_size
        return pd.DataFrame(
            {
                "block_id": [block_id],
                "n": [len(ids)],
                "payload": [make_bundle(ids, xblk, bw)],
            }
        )

    return (
        long_df.withColumn("_blk", (F.col("series_id") / F.lit(block_size)).cast("long"))
        .groupBy("_blk")
        .applyInPandas(assemble, schema=BLOCK_SCHEMA)
    )
