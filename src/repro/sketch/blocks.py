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

Bundles are packed from the dense matrix on the driver. Long-form rows
take the same path: ``tsio.matrix.from_long_pdf`` reads them into the
matrix first, checking the grid.
"""
from __future__ import annotations

import pickle

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.sketch import kernels
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
    return pickle.dumps(
        {
            "ids": np.asarray(ids, dtype=np.int64),
            "means": means,
            "stds": stds,
            "centred": kernels.bw_centered(xblk, bw),
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
    """``pack_bundles`` as a block-bundle DataFrame, for a caller that
    times packing apart from the pair build (the traced benchmark)."""
    return spark.createDataFrame(pack_bundles(X, spec, block_size), schema=BLOCK_SCHEMA)

