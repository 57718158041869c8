"""Horizontal computation pruning via the triangle bound, as DataFrame filters.

Dangoron's second feature: with a pivot series z, the N per-window pivot
correlations c(x, z) bound every remaining pair —
c_xy ≤ c_xz·c_yz + √((1−c_xz²)(1−c_yz²)) (sound: the 3×3 correlation
matrix is PSD). The dataflow is exactly the "prune unrelated series via
DataFrame filters" shape:

  1. Arrow kernel: pivot column of the correlation matrix, N·W cells;
  2. Catalyst: self-join the pivot frame on the window id, compute the
     upper bound as a column expression, ``filter(ub >= β)``;
  3. cogrouped Arrow kernel: exact Eq.-1 evaluation of the surviving
     (pair, window) cells only.

Because the bound is sound, the output is identical to the unpruned
exact engines — only the amount of exact evaluation changes.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.dangoron import CELLS_SCHEMA
from repro.core.jumping import TileResult
from repro.sketch import kernels
from repro.sketch.pair_sketch import load_pair_payload
from repro.tsio.validation import SlidingSpec

PIVOT_SCHEMA = "x long, w long, c double"


def pivot_correlations(
    pair_sketch_df: DataFrame, spec: SlidingSpec, pivot: int
) -> DataFrame:
    """Exact per-window correlations of every series against the pivot.

    One row (x, w, c) per series x ≠ pivot and window w; undefined cells
    (zero variance) carry NaN and are treated as unprunable downstream.
    """
    nw = spec.n_windows

    def run(it: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in it:
            for payload in pdf["payload"]:
                tile = load_pair_payload(payload)
                for side, other in (("i", "j"), ("j", "i")):
                    if side == "j" and pivot in tile["ids_i"]:
                        # side i emitted the pivot's row. A diagonal band
                        # above the pivot holds it as a column instead and
                        # emits it against the band's rows, on side j
                        break
                    ids_p = tile[f"ids_{side}"]
                    if pivot not in ids_p:
                        continue
                    lp = int(np.searchsorted(ids_p, pivot))
                    ids_o = tile[f"ids_{other}"]
                    q = tile["q"] if side == "i" else np.swapaxes(tile["q"], 0, 1)
                    # the 1 × n_other sub-tile of the pivot's row
                    terms = kernels.tile_terms(
                        {
                            "means_i": tile[f"means_{side}"][lp : lp + 1],
                            "stds_i": tile[f"stds_{side}"][lp : lp + 1],
                            "means_j": tile[f"means_{other}"],
                            "stds_j": tile[f"stds_{other}"],
                            "q": q[lp : lp + 1],
                        },
                        spec,
                    )
                    rows = np.arange(ids_o.size)
                    corr = np.stack(
                        [kernels.eval_at_window(terms, rows, w, spec) for w in range(nw)],
                        axis=1,
                    )                         # (n_other, W)
                    keep = ids_o != pivot
                    yield pd.DataFrame(
                        {
                            "x": np.repeat(ids_o[keep], nw),
                            "w": np.tile(np.arange(nw, dtype=np.int64), int(keep.sum())),
                            "c": corr[keep].reshape(-1),
                        }
                    )

    return pair_sketch_df.mapInPandas(run, schema=PIVOT_SCHEMA)


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


def _eval_candidates(
    cand: pd.DataFrame, tile: dict, spec: SlidingSpec
) -> TileResult:
    """Exact Eq.-1 evaluation of listed (i, j, w) cells of one tile (at least one)."""
    i = cand["i"].to_numpy()
    j = cand["j"].to_numpy()
    wins = cand["w"].to_numpy().astype(np.int64)
    rows = np.searchsorted(tile["ids_i"], i) * len(tile["ids_j"]) + np.searchsorted(
        tile["ids_j"], j
    )
    terms = kernels.tile_terms(tile, spec)
    # one evaluator call per window, over that window's candidates
    corr = np.empty(rows.size)
    order = np.argsort(wins, kind="stable")
    for part in np.split(order, np.flatnonzero(np.diff(wins[order])) + 1):
        corr[part] = kernels.eval_at_window(terms, rows[part], int(wins[part[0]]), spec)
    keep = corr >= spec.beta
    return TileResult(i[keep], j[keep], wins[keep], corr[keep])


def query(
    spark: SparkSession,
    pair_sketch_df: DataFrame,
    spec: SlidingSpec,
    pivot: int,
    block_size: int,
) -> DataFrame:
    """Full horizontally-pruned query: pivot stage → filter → exact eval.

    Output is the same thresholded edge set as the exact engines. The
    pivot's own edges come straight from stage 1; all other pairs pass
    through the triangle filter before exact evaluation.
    """
    pivot_df = pivot_correlations(pair_sketch_df, spec, pivot).cache()

    pivot_edges = (
        pivot_df.where(F.col("c") >= F.lit(spec.beta))
        .select(
            F.least(F.col("x"), F.lit(pivot)).alias("i"),
            F.greatest(F.col("x"), F.lit(pivot)).alias("j"),
            F.col("w"),
            F.col("c").alias("corr"),
        )
    )

    # each candidate goes to the tile holding its pair: block pair
    # (bi, bj), then the row band whose global i range holds i
    tile_ranges = pair_sketch_df.select("tid", "bi", "bj", "i_lo", "i_hi")
    cand = (
        candidate_cells(pivot_df, spec.beta)
        .withColumn("bi", (F.col("i") / F.lit(block_size)).cast("long"))
        .withColumn("bj", (F.col("j") / F.lit(block_size)).cast("long"))
        .join(tile_ranges, ["bi", "bj"])
        .where((F.col("i") >= F.col("i_lo")) & (F.col("i") < F.col("i_hi")))
        .select("tid", "i", "j", "w")
    )

    def cog(cand_pdf: pd.DataFrame, sk_pdf: pd.DataFrame) -> pd.DataFrame:
        if len(cand_pdf) == 0 or len(sk_pdf) == 0:
            return TileResult().frame()
        tile = load_pair_payload(sk_pdf["payload"].iloc[0])
        return _eval_candidates(cand_pdf, tile, spec).frame()

    evaluated = (
        cand.groupBy("tid")
        .cogroup(pair_sketch_df.select("tid", "payload").groupBy("tid"))
        .applyInPandas(cog, schema=CELLS_SCHEMA)
    )
    return evaluated.unionByName(pivot_edges)


def survival_fraction(
    spark: SparkSession, pair_sketch_df: DataFrame, spec: SlidingSpec,
    pivot: int, n_series: int,
) -> dict:
    """Measure the filter's pruning power (Table 4): survivors / total cells."""
    pivot_df = pivot_correlations(pair_sketch_df, spec, pivot).cache()
    survivors = candidate_cells(pivot_df, spec.beta).count()
    non_pivot_pairs = (n_series - 1) * (n_series - 2) // 2
    total = non_pivot_pairs * spec.n_windows
    pivot_df.unpersist()
    return {
        "survivors": survivors,
        "total": total,
        "survive_fraction": survivors / total if total else 0.0,
        "pivot_cells": (n_series - 1) * spec.n_windows,
    }
