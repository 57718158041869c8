"""Raw row blocks for a caller that times packing apart from the build.

All-pairs work over N series is distributed as (N/p)² /2 block pairs:
``pair_sketch.build_pair_sketch`` cuts the matrix into blocks of p
consecutive series and runs a numpy kernel over a p×p tile of the pair
space per task. This module only packs those blocks into a DataFrame,
for the traced benchmark's setup, which times the packing and the build
as two steps; ``pair_sketch.build_pair_block_sketch`` stacks them back
into the matrix. Long-form input reaches the build as a matrix read by
``tsio.matrix.from_long_pdf``, which checks the grid.
"""
from __future__ import annotations

import pickle

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.sketch.pair_sketch import require_finite
from repro.tsio.validation import SlidingSpec

BLOCK_SCHEMA = "block_id long, n long, n_bw long, payload binary"


def pack_blocks_from_matrix(
    spark: SparkSession, X: np.ndarray, spec: SlidingSpec, block_size: int = 16
) -> DataFrame:
    """One (block_id, n, n_bw, payload) row per block of ``block_size``
    consecutive series, its payload the pickled raw rows, after the
    sketch's input check (the query fits X, every value is finite)."""
    spec.validate_against(X.shape[1])
    require_finite(X)
    n_bw = spec.n_bw(X.shape[1])
    rows = []
    for b, lo in enumerate(range(0, X.shape[0], block_size)):
        blk = X[lo : lo + block_size]
        rows.append((b, len(blk), n_bw, pickle.dumps(blk, protocol=4)))
    pdf = pd.DataFrame(rows, columns=["block_id", "n", "n_bw", "payload"])
    return spark.createDataFrame(pdf, schema=BLOCK_SCHEMA)
