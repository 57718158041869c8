"""Dangoron's Spark engine.

The engine is a DataFrame→DataFrame transformation over the cached
block-pair sketch (see DESIGN.md § physical execution): Catalyst plans
the scan of the sketch DataFrame, ``run_tiles`` runs the frontier
kernel per tile in ``mapInPandas``, and Spark accumulators collect the
pruning counters (they materialise once an action runs on the returned
DataFrame). TSUBASA runs through the same ``run_tiles``.

A true JVM physical operator is out of scope in this container (no
Scala toolchain; PySpark cannot register physical operators) — the
Arrow-kernel route is the standard production equivalent.
"""
from __future__ import annotations

import time
from dataclasses import fields
from typing import Callable, Iterator

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.jumping import MODES, FrontierStats, TileResult, frontier_query
from repro.sketch.pair_sketch import load_pair_payload
from repro.tsio.validation import SlidingSpec

CELLS_SCHEMA = "i long, j long, w long, corr double"

_STAT_FIELDS = tuple(f.name for f in fields(FrontierStats))


class StatsAccumulators:
    """Spark accumulators mirroring ``FrontierStats`` across all tiles.

    Also accumulates ``work_s`` — summed in-kernel seconds across every
    tile task. Wall-clock query time is bottlenecked by the slowest
    tile; total work is the cluster-wide compute the engine consumed,
    the quantity a sequential implementation's "pure query time" would
    show directly.
    """

    def __init__(self, spark: SparkSession):
        sc = spark.sparkContext
        self._acc = {f: sc.accumulator(0) for f in _STAT_FIELDS}
        self._work = sc.accumulator(0.0)

    def add(self, stats) -> None:
        for f in _STAT_FIELDS:
            self._acc[f].add(int(getattr(stats, f)))

    def add_work(self, seconds: float) -> None:
        self._work.add(float(seconds))

    def snapshot(self) -> dict:
        out = {f: self._acc[f].value for f in _STAT_FIELDS}
        out["work_s"] = self._work.value
        out["skipped"] = out["cells"] - out["evals"]
        out["eval_fraction"] = out["evals"] / out["cells"] if out["cells"] else 0.0
        out["mean_jump"] = (
            out["jump_lengths"] / out["jumps"] if out["jumps"] else 0.0
        )
        return out


def run_tiles(
    pair_sketch_df: DataFrame,
    kernel: Callable[[dict], TileResult],
    stats: StatsAccumulators | None = None,
) -> DataFrame:
    """The one tile runner of the sweep engines.

    Loads each block-pair payload in ``mapInPandas``, runs ``kernel`` on
    it, adds the kernel's counters and seconds to ``stats`` and yields
    the tile's edges as (i, j, w, corr) rows.
    """

    def run(it: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in it:
            for payload in pdf["payload"]:
                tile = load_pair_payload(payload)
                t0 = time.perf_counter()
                res = kernel(tile)
                if stats is not None:
                    stats.add(res.stats)
                    stats.add_work(time.perf_counter() - t0)
                yield res.frame()

    return pair_sketch_df.mapInPandas(run, schema=CELLS_SCHEMA)


def query(
    pair_sketch_df: DataFrame,
    spec: SlidingSpec,
    mode: str = "exact-ci",
    stats: StatsAccumulators | None = None,
) -> DataFrame:
    """Thresholded correlation-matrix sequence via Dangoron jumping.

    Returns the network edges (i, j, w, corr) with corr ≥ β; entries
    below β are zero by the problem definition and are not emitted.
    """
    if mode not in MODES:
        raise ValueError(f"unknown bound mode {mode!r}; expected one of {MODES}")
    return run_tiles(pair_sketch_df, lambda tile: frontier_query(tile, spec, mode), stats)
