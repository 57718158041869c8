"""Experiment harness: sketch building, timed runs, table formatting.

Jobs (``jobs/table*.py``) and benchmarks compose these helpers; the
formatted tables they print are what EXPERIMENTS.md records next to the
paper's claims.
"""
from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro import MALLOC_ENV
from repro.sketch.pair_sketch import build_pair_sketch, new_sketch_dir, tile_path
from repro.tsio.validation import SlidingSpec

DEFAULT_BLOCK_SIZE = 16
# The driver heap of a job started with ``python``. It was sized when the
# cache held each tile's q, and T1's (10 tiles of ~49 MB) overflowed the
# JVM's 1 GiB default; the cache now holds manifests (~15 MB for T1), and
# a smaller heap is untested.
DRIVER_MEMORY = "4g"


def spark_session(app_name: str) -> SparkSession:
    """The jobs' SparkSession: Arrow on, a ``DRIVER_MEMORY`` heap, and
    ``repro``'s malloc thresholds handed to the Python workers.

    The heap applies only when this call starts the JVM; under
    ``spark-submit`` the JVM is already up and ``--driver-memory`` rules.
    There the JVM also starts before this process imports ``repro``, so
    its workers would not inherit the malloc variables from the driver's
    environment; ``spark.executorEnv.*`` passes them explicitly.
    """
    builder = (
        SparkSession.builder.appName(app_name)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.driver.memory", DRIVER_MEMORY)
    )
    for name in MALLOC_ENV:
        builder = builder.config(f"spark.executorEnv.{name}", os.environ[name])
    return builder.getOrCreate()


@dataclass
class SketchHandle:
    """A cached, materialised pair sketch plus its build time.

    The handle owns ``directory``, which holds the tiles' q files, and
    ``tile_bytes``: one (tid, bi, bj, manifest_bytes, file_bytes) row per
    tile, the cached payload's size and its q file's.
    """

    df: DataFrame
    build_seconds: float
    n_series: int
    block_size: int
    directory: str
    tile_bytes: pd.DataFrame

    def unpersist(self) -> None:
        """Release the cached manifests and remove the tile files.

        A query on ``df`` afterwards raises: the build does not make the
        removed directory again.
        """
        self.df.unpersist()
        shutil.rmtree(self.directory, ignore_errors=True)


def build_sketch(
    spark: SparkSession,
    X: np.ndarray,
    spec: SlidingSpec,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> SketchHandle:
    """Build and cache the block-pair sketch; the shared pre-query phase.

    Both engines consume this handle, so "pure query time" (the paper's
    metric) starts after it returns. Rejects a query that does not fit X.
    The tiles' q files go to a fresh directory that the handle owns; it
    is made inside the session's temporary directory, so a handle never
    released is removed when the session's JVM exits.
    """
    t0 = time.perf_counter()
    spec.validate_against(X.shape[1])
    directory = new_sketch_dir(spark)
    try:
        sketch = build_pair_sketch(spark, X, spec.bw, block_size, directory).cache()
        # the action that materialises the cache before any timing starts
        # also brings back each tile's sizes
        rows = sketch.select(
            "tid", "bi", "bj", F.length("payload").alias("manifest_bytes")
        ).collect()
    except BaseException:
        shutil.rmtree(directory, ignore_errors=True)
        raise
    tiles = pd.DataFrame(rows, columns=["tid", "bi", "bj", "manifest_bytes"])
    tiles["file_bytes"] = [os.path.getsize(tile_path(directory, t)) for t in tiles["tid"]]
    return SketchHandle(
        sketch, time.perf_counter() - t0, X.shape[0], block_size, directory,
        tiles.sort_values("tid", ignore_index=True),
    )


def timed_collect(df: DataFrame) -> tuple[pd.DataFrame, float]:
    """Run the query DataFrame to completion and return (rows, seconds)."""
    t0 = time.perf_counter()
    pdf = df.toPandas()
    return pdf, time.perf_counter() - t0


def timed_count(df: DataFrame) -> tuple[int, float]:
    """Run the query to completion and return (row count, seconds).

    The timed action for query benchmarks: the full computation and the
    worker→JVM Arrow transfer run, but the (engine-independent) driver
    materialisation of millions of edge rows is left out — at dense β a
    driver collect costs more than either engine's compute and buries
    the ratio under allocation noise.
    """
    t0 = time.perf_counter()
    n = df.count()
    return n, time.perf_counter() - t0


def format_table(rows: list[dict], title: str | None = None) -> str:
    """Fixed-width text table (markdown-pipe style) from dict rows."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    headers = list(rows[0].keys())

    def fmt(v) -> str:
        if isinstance(v, float):
            return f"{v:.4g}"
        return str(v)

    cells = [[fmt(r.get(h, "")) for h in headers] for r in rows]
    widths = [
        max(len(h), *(len(c[k]) for c in cells)) for k, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("-|-".join("-" * w for w in widths))
    for c in cells:
        lines.append(" | ".join(v.ljust(w) for v, w in zip(c, widths)))
    return "\n".join(lines)


def save_table(text: str, path: str) -> None:
    """Persist a formatted table under results/ for EXPERIMENTS.md."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")
