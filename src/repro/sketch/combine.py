"""Pure-DataFrame (Catalyst) Eq.-1 evaluation.

Reconstructs the exact per-window Pearson correlation for every pair
from sketch rows alone, using only DataFrame operations: explode each
basic window into the sliding windows that contain it, aggregate Eq. 1's
sums per (i, j, w), and join the per-series window aggregates.

This is the correctness reference engine: it exercises Catalyst's
shuffle path end-to-end and is compared against numpy and the DuckDB
oracle in tests. The performance engines (TSUBASA baseline, Dangoron)
use the Arrow block kernels instead; see DESIGN.md § physical execution.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.sketch.basic_window import with_mean_std
from repro.tsio.validation import SlidingSpec


def _explode_windows(df: DataFrame, spec: SlidingSpec) -> DataFrame:
    """Attach a ``w`` column: one output row per sliding window containing
    the row's basic window. Membership: bw0 + w·m <= bw_id < bw0 + w·m + n_s.
    """
    j = F.col("bw_id") - F.lit(spec.bw0)
    w_lo = F.greatest(F.ceil((j - F.lit(spec.n_s - 1)) / F.lit(spec.m)), F.lit(0))
    w_hi = F.least(F.floor(j / F.lit(spec.m)), F.lit(spec.n_windows - 1))
    return (
        df.withColumn("_wlo", w_lo.cast("long"))
        .withColumn("_whi", w_hi.cast("long"))
        .where(F.col("_wlo") <= F.col("_whi"))
        .withColumn("w", F.explode(F.sequence("_wlo", "_whi")))
        .drop("_wlo", "_whi")
    )


def series_window_aggregates_df(series_sketch: DataFrame, spec: SlidingSpec) -> DataFrame:
    """Per (series, window): mbar and ss (see kernels.series_window_aggregates)."""
    s = with_mean_std(series_sketch)
    exploded = _explode_windows(s, spec)
    agg = exploded.groupBy("series_id", "w").agg(
        F.avg("mean").alias("mbar"),
        F.sum(F.col("mean") * F.col("mean")).alias("m2sum"),
        F.sum(F.col("std") * F.col("std")).alias("s2sum"),
    )
    ss = (
        F.col("s2sum")
        + F.col("m2sum")
        - F.lit(spec.n_s) * F.col("mbar") * F.col("mbar")
    )
    return agg.select("series_id", "w", "mbar", ss.alias("ss"))


def query_window_corr(
    series_sketch: DataFrame, pair_sketch_rows: DataFrame, spec: SlidingSpec
) -> DataFrame:
    """All (i, j, w, corr) cells, exactly, from sketch rows via Catalyst.

    ``series_sketch``: rows from ``basic_window.build_series_sketch``;
    ``pair_sketch_rows``: rows from ``pair_sketch.build_pair_sketch_rows``.
    Cells whose window has zero variance on either side are dropped
    (correlation undefined).
    """
    means = with_mean_std(series_sketch).select("series_id", "bw_id", "mean")
    mi = means.select(
        F.col("series_id").alias("i"),
        F.col("bw_id"),
        F.col("mean").alias("mean_i"),
    )
    mj = means.select(
        F.col("series_id").alias("j"),
        F.col("bw_id"),
        F.col("mean").alias("mean_j"),
    )
    # join on same-named key lists so Catalyst coalesces the keys and no
    # ambiguous references survive the self-joins
    pair = pair_sketch_rows.join(mi, ["i", "bw_id"]).join(mj, ["j", "bw_id"])
    pair_w = _explode_windows(pair, spec).groupBy("i", "j", "w").agg(
        F.sum("q").alias("qsum"),
        F.sum(F.col("mean_i") * F.col("mean_j")).alias("mmsum"),
    )
    sw = series_window_aggregates_df(series_sketch, spec)
    swi = sw.select(
        F.col("series_id").alias("i"),
        F.col("w"),
        F.col("mbar").alias("mbar_i"),
        F.col("ss").alias("ss_i"),
    )
    swj = sw.select(
        F.col("series_id").alias("j"),
        F.col("w"),
        F.col("mbar").alias("mbar_j"),
        F.col("ss").alias("ss_j"),
    )
    cells = pair_w.join(swi, ["i", "w"]).join(swj, ["j", "w"])
    num = (
        F.col("qsum")
        + F.col("mmsum")
        - F.lit(spec.n_s) * F.col("mbar_i") * F.col("mbar_j")
    )
    den2 = F.col("ss_i") * F.col("ss_j")
    return (
        cells.where(den2 > 0)
        .select("i", "j", "w", (num / F.sqrt(den2)).alias("corr"))
    )


def threshold(cells: DataFrame, beta: float) -> DataFrame:
    """Keep only the network edges: cells with corr >= β."""
    return cells.where(F.col("corr") >= F.lit(beta))
