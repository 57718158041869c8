"""Dangoron's Spark engine.

The engine is a DataFrame→DataFrame transformation over the cached
block-pair sketch (see DESIGN.md § physical execution): Catalyst plans
the scan of the sketch DataFrame, ``run_tiles`` runs the frontier
kernel per tile in ``mapInPandas``, and one Spark accumulator sums the
tiles' pruning counters (they materialise once an action runs on the
returned DataFrame). TSUBASA and horizontal pruning (its pivot stage
and its masked sweep) run through the same ``run_tiles``.

A true JVM physical operator is out of scope in this container (no
Scala toolchain; PySpark cannot register physical operators) — the
Arrow-kernel route is the standard production equivalent.
"""
from __future__ import annotations

import time
from typing import Callable, Iterator

import pandas as pd
from pyspark.accumulators import Accumulator, AccumulatorParam
from pyspark.sql import DataFrame, SparkSession

from repro.core.jumping import MODES, FrontierStats, TileResult, frontier_query
from repro.sketch.pair_sketch import load_pair_payload
from repro.tsio.validation import SlidingSpec

CELLS_SCHEMA = "i long, j long, w long, corr double"


class FrontierStatsParam(AccumulatorParam):
    """Sums the tiles' ``FrontierStats`` into one, with ``FrontierStats.merge``."""

    def zero(self, value: FrontierStats) -> FrontierStats:
        return FrontierStats()

    def addInPlace(self, value: FrontierStats, other: FrontierStats) -> FrontierStats:
        value.merge(other)
        return value


def stats_accumulator(spark: SparkSession) -> Accumulator:
    """One Spark accumulator whose value is the query's summed ``FrontierStats``.

    Its ``work_s`` is the in-kernel seconds summed over every tile task.
    Wall-clock query time is bottlenecked by the slowest tile; total
    work is the cluster-wide compute the engine consumed, the quantity a
    sequential implementation's "pure query time" would show directly.
    """
    return spark.sparkContext.accumulator(FrontierStats(), FrontierStatsParam())


def run_tiles(
    pair_sketch_df: DataFrame,
    kernel: Callable[[dict], TileResult],
    stats: Accumulator | None = None,
) -> DataFrame:
    """The one tile runner of every engine.

    Loads each block-pair payload in ``mapInPandas``, runs ``kernel`` on
    it, adds the kernel's counters and seconds to ``stats`` (a
    ``stats_accumulator``) and yields the tile's edges as (i, j, w, corr)
    rows.
    """

    def run(it: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in it:
            for payload in pdf["payload"]:
                tile = load_pair_payload(payload)
                t0 = time.perf_counter()
                res = kernel(tile)
                if stats is not None:
                    res.stats.work_s = time.perf_counter() - t0
                    stats.add(res.stats)
                yield res.frame()

    return pair_sketch_df.mapInPandas(run, schema=CELLS_SCHEMA)


def query(
    pair_sketch_df: DataFrame,
    spec: SlidingSpec,
    mode: str = "exact-ci",
    stats: Accumulator | None = None,
) -> DataFrame:
    """Thresholded correlation-matrix sequence via Dangoron jumping.

    Returns the network edges (i, j, w, corr) with corr ≥ β; entries
    below β are zero by the problem definition and are not emitted.
    """
    if mode not in MODES:
        raise ValueError(f"unknown bound mode {mode!r}; expected one of {MODES}")
    return run_tiles(pair_sketch_df, lambda tile: frontier_query(tile, spec, mode), stats)
