"""Packing series into block bundles for all-pairs fan-out.

All-pairs work over N series is distributed as (N/p)² /2 block pairs:
the pair-sketch build holds the binary block bundles on the driver and
each block-pair task runs a numpy kernel over a p×p tile of the pair
space, reading its two bundles from the task closure. This is the
standard Arrow-kernel layout for quadratic computations in PySpark — a
Catalyst self-join of the long form would shuffle N²·L rows, while block
bundles ship Θ(N·L) bytes once.

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
from repro.tsio.matrix import from_long_pdf
from repro.tsio.validation import SlidingSpec

BLOCK_SCHEMA = "block_id long, n long, n_bw long, payload binary"


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


def pack_bundles(X: np.ndarray, spec: SlidingSpec, block_size: int = 16) -> pd.DataFrame:
    """Driver-side packing of a dense matrix: one (block_id, n, n_bw, payload)
    row per block of ``block_size`` consecutive series."""
    spec.validate_against(X.shape[1])
    n = X.shape[0]
    rows = []
    for b, lo in enumerate(range(0, n, block_size)):
        hi = min(lo + block_size, n)
        ids = np.arange(lo, hi, dtype=np.int64)
        rows.append((b, hi - lo, spec.n_bw(X.shape[1]), make_bundle(ids, X[lo:hi], spec.bw)))
    return pd.DataFrame(rows, columns=["block_id", "n", "n_bw", "payload"])


def pack_blocks_from_matrix(
    spark: SparkSession, X: np.ndarray, spec: SlidingSpec, block_size: int = 16
) -> DataFrame:
    """``pack_bundles`` as a block-bundle DataFrame."""
    return spark.createDataFrame(pack_bundles(X, spec, block_size), schema=BLOCK_SCHEMA)


def pack_blocks_from_long(
    long_df: DataFrame, spec: SlidingSpec, block_size: int = 16
) -> DataFrame:
    """Distributed packing of the long form into block bundles.

    Series are assigned to blocks by ``series_id // block_size``;
    ``applyInPandas`` assembles each block's dense tile and serializes
    the bundle on the executors (no driver collect of the raw long
    form; ``pair_sketch.build_pair_block_sketch`` collects the bundles,
    Θ(N·L) bytes, once). Each block is read by
    ``tsio.matrix.from_long_pdf`` over its own series ids and timesteps
    0..L−1, so a hole, a duplicate row, a negative id or t or a
    non-finite value fails the action that runs the packing, as does a
    block too short for the query.
    """
    from pyspark.sql import functions as F

    bw = spec.bw

    def assemble(pdf: pd.DataFrame) -> pd.DataFrame:
        ids = np.unique(pdf["series_id"].to_numpy())
        xblk = from_long_pdf(pdf, ids=ids)
        block_id, length = int(ids[0]) // block_size, xblk.shape[1]
        try:
            spec.validate_against(length)
        except ValueError as e:
            raise ValueError(
                f"block {block_id} (series {int(ids[0])}..{int(ids[-1])}): {e}"
            ) from None
        return pd.DataFrame(
            {
                "block_id": [block_id],
                "n": [len(ids)],
                "n_bw": [spec.n_bw(length)],
                "payload": [make_bundle(ids, xblk, bw)],
            }
        )

    return (
        long_df.withColumn("_blk", (F.col("series_id") / F.lit(block_size)).cast("long"))
        .groupBy("_blk")
        .applyInPandas(assemble, schema=BLOCK_SCHEMA)
    )
