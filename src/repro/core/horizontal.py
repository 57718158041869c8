"""Horizontal computation pruning via the triangle bound, in the one window sweep.

Dangoron's second feature: with a pivot series z, the N per-window pivot
correlations c(x, z) bound every remaining pair —
c_xy ≤ c_xz·c_yz + √((1−c_xz²)(1−c_yz²)) (sound: the 3×3 correlation
matrix is PSD). The query runs in two passes of the one tile runner:

  1. pivot stage: every series' correlation with z at every window,
     N·W cells, collected on the driver into the matrix P (N × W);
  2. ``jumping.sweep`` with no jump rule and ``pivot_corr=P``: each
     woken cell whose triangle bound is below β steps to the next
     window without being evaluated.

The pivot's own row of P is NaN, and a NaN bound never masks, so pairs
containing the pivot are evaluated at every window. Because the bound
is sound, the output is identical to the unpruned exact engines.
``candidate_cells`` states the same filter as a Catalyst self-join, the
reference the tests hold the mask to. Table 4 reads the survivors from
the masked sweep's own counters: every evaluation except the pivot's
(N − 1)·W cells is a survivor.
"""
from __future__ import annotations

from functools import partial

import numpy as np
from pyspark.accumulators import Accumulator
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.dangoron import run_tiles
from repro.core.jumping import TileResult, sweep
from repro.sketch import kernels
from repro.sketch.pair_sketch import pair_tile_arrays
from repro.tsio.validation import SlidingSpec


def _pivot_kernel(tile: dict, spec: SlidingSpec, pivot: int) -> TileResult:
    """Correlations of the pivot with the tile's other series, as (x, pivot, w, c).

    The pivot's pairs are picked from the tile's kept pairs
    (``pair_tile_arrays``), which cover every pair exactly once.
    """
    pi, pj, rows = pair_tile_arrays(tile)
    gi, gj = tile["ids_i"][pi], tile["ids_j"][pj]
    sel = np.flatnonzero((gi == pivot) | (gj == pivot))
    if not sel.size:
        return TileResult()
    other = gi[sel] + gj[sel] - pivot
    terms = kernels.tile_terms(tile, spec, rows[sel])  # the pivot's pairs only
    nw = spec.n_windows
    corr = np.stack(
        [kernels.eval_at_window(terms, slice(None), w, spec) for w in range(nw)], axis=1
    )
    return TileResult(
        np.repeat(other, nw),
        np.full(other.size * nw, pivot, dtype=np.int64),
        np.tile(np.arange(nw, dtype=np.int64), other.size),
        corr.reshape(-1),
    )


def pivot_correlations(
    pair_sketch_df: DataFrame, spec: SlidingSpec, pivot: int
) -> DataFrame:
    """Exact per-window correlations of every series against the pivot.

    One row (x, w, c) per series x ≠ pivot and window w; undefined cells
    (zero variance) carry NaN and are treated as unprunable downstream.
    """
    return run_tiles(pair_sketch_df, partial(_pivot_kernel, spec=spec, pivot=pivot)).select(
        F.col("i").alias("x"), "w", F.col("corr").alias("c")
    )


def pivot_matrix(pair_sketch_df: DataFrame, spec: SlidingSpec, pivot: int) -> np.ndarray:
    """The pivot stage collected on the driver: P[x, w] = c(x, pivot) at window w.

    Shape (N, W), indexed by global series id; the pivot's own row is NaN.
    Every series of a sketch is in some tile's pairs, so a stage that
    returns no row names no series of the sketch: that raises a
    ``ValueError`` naming the pivot, before any sweep reads P.
    """
    pdf = pivot_correlations(pair_sketch_df, spec, pivot).toPandas()
    if pdf.empty:
        raise ValueError(f"pivot {pivot} is not a series of the sketch: no tile holds it")
    x = pdf["x"].to_numpy()
    n = max(int(x.max()), pivot) + 1
    corr = np.full((n, spec.n_windows), np.nan)
    corr[x, pdf["w"].to_numpy()] = pdf["c"].to_numpy()
    return corr


def candidate_cells(pivot_df: DataFrame, beta: float) -> DataFrame:
    """Catalyst filter stage: (i, j, w) cells whose triangle UB ≥ β."""
    a = pivot_df.select(
        F.col("x").alias("i"), F.col("w"), F.col("c").alias("ca")
    )
    b = pivot_df.select(
        F.col("x").alias("j"), F.col("w").alias("w_b"), F.col("c").alias("cb")
    )
    joined = a.join(b, (a.w == b.w_b) & (a.i < b.j)).drop("w_b")
    ub = F.when(
        F.isnan("ca") | F.isnan("cb"), F.lit(1.0)
    ).otherwise(
        F.col("ca") * F.col("cb")
        + F.sqrt(
            F.greatest(
                (1.0 - F.col("ca") * F.col("ca"))
                * (1.0 - F.col("cb") * F.col("cb")),
                F.lit(0.0),
            )
        )
    )
    return joined.withColumn("ub", ub).where(F.col("ub") >= F.lit(beta)).select(
        "i", "j", "w"
    )


def query(
    spark: SparkSession,
    pair_sketch_df: DataFrame,
    spec: SlidingSpec,
    pivot: int,
    block_size: int,
    stats: Accumulator | None = None,
) -> DataFrame:
    """Full horizontally-pruned query: pivot stage, then the masked sweep.

    Runs the pivot stage at once (one Spark job) and returns the edges
    (i, j, w, corr ≥ β) of the window sweep with the triangle mask, the
    same edge set as the exact engines. ``stats`` collects the masked
    sweep's counters (not the pivot stage's). ``spark`` and
    ``block_size`` are no longer read; they stay in the signature for
    positional callers.
    """
    corr = pivot_matrix(pair_sketch_df, spec, pivot)
    return run_tiles(
        pair_sketch_df, lambda tile: sweep(tile, spec, pivot_corr=corr), stats
    )
