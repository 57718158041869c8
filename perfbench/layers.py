"""Per-layer probes of the traced run.

Each probe calls a layer's public entry points from outside, inside
spans, and derives that layer's metrics. Kernel metrics come from a
driver-side replay of every tile: the same per-tile functions the Spark
engines call in their ``mapInPandas`` tasks, run one after another. That
replay is also the single-threaded baseline.
"""
from __future__ import annotations

import copy
import os
import shutil
import statistics
import threading
import time

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from perfbench import gate
from perfbench.obs import Tracer
from perfbench.workloads import (
    STREAM_DAYS,
    STREAM_INTERVAL_S,
    STREAM_PRELOAD_BW,
    Workload,
    stream_spec,
)
from repro.baselines import tsubasa
from repro.core import bounds, horizontal
from repro.core.jumping import FrontierStats, frontier_query
from repro.harness import build_sketch
from repro.sketch import kernels
from repro.sketch.blocks import pack_blocks_from_matrix
from repro.sketch.pair_sketch import (
    build_pair_block_sketch,
    load_pair_payload,
    pair_tile_arrays,
)
from repro.streaming.query import query_dangoron, store_to_tile
from repro.streaming.sketch_stream import SketchStore, run_stream
from repro.tsio.matrix import to_long_pdf
from repro.tsio.validation import SlidingSpec

EDGE_ROW_BYTES = 32  # i, j, w as int64 and corr as float64


def cached_mb(spark: SparkSession) -> float:
    """Memory plus disk held by every cached RDD of the session, in MB."""
    infos = spark.sparkContext._jsc.sc().getRDDStorageInfo()
    return sum(int(r.memSize()) + int(r.diskSize()) for r in infos) / 1e6


# ---------------------------------------------------------------------------
# sketch.blocks, sketch.pair_sketch
# ---------------------------------------------------------------------------

def traced_setup(
    spark: SparkSession, X: np.ndarray, spec: SlidingSpec, block_size: int,
    tracer: Tracer, qid: str,
) -> tuple[DataFrame, DataFrame]:
    """The steps of ``harness.build_sketch``, each in its own span."""
    with tracer.span("setup", qid):
        with tracer.span("blocks.pack", qid):
            blocks = pack_blocks_from_matrix(spark, X, spec, block_size)
        with tracer.span("pair_sketch.build", qid):
            sketch = build_pair_block_sketch(blocks).cache()
            sketch.count()
    return blocks, sketch


def sketch_metrics(
    spark: SparkSession, blocks: DataFrame, sketch: DataFrame, tracer: Tracer
) -> tuple[list[dict], dict]:
    """Sizes of the cached sketch; its tiles, deserialised on the driver."""
    bundle_bytes = blocks.select(F.sum(F.length("payload"))).first()[0]
    pdf = sketch.select("bi", "bj", "payload").toPandas()
    tiles, load_s = [], 0.0
    for p in pdf["payload"]:
        with tracer.span("pair_sketch.load") as sp:
            tiles.append(load_pair_payload(p))
        load_s += sp.seconds
    sizes = pdf["payload"].map(len)
    return tiles, {
        "blocks.bundle_mb": bundle_bytes / 1e6,
        "pair_sketch.tiles": len(tiles),
        "pair_sketch.partitions": sketch.rdd.getNumPartitions(),
        "pair_sketch.cached_mb": cached_mb(spark),
        "pair_sketch.max_tile_mb": float(sizes.max()) / 1e6,
        "pair_sketch.load_s": load_s,
    }


# ---------------------------------------------------------------------------
# Spark plumbing of the engine wrappers
# ---------------------------------------------------------------------------

def spark_passes(sketch: DataFrame, tracer: Tracer) -> dict:
    """Engine-shaped ``mapInPandas`` passes that run no kernel.

    The task pass touches only (bi, bj); the ship pass also moves each
    payload into a Python worker and deserialises it, as every engine
    does before its kernel starts.
    """

    def task(it):
        for pdf in it:
            yield pdf.iloc[:0]

    def ship(it):
        for pdf in it:
            for payload in pdf["payload"]:
                load_pair_payload(payload)
            yield pdf[["bi", "bj"]].iloc[:0]

    with tracer.span("spark.task_pass") as t:
        sketch.select("bi", "bj").mapInPandas(task, "bi long, bj long").count()
    with tracer.span("spark.ship_pass") as s:
        sketch.mapInPandas(ship, "bi long, bj long").count()
    return {"spark.task_pass_s": t.seconds, "spark.ship_pass_s": s.seconds}


# ---------------------------------------------------------------------------
# sketch.kernels + core.jumping: per-tile driver replay
# ---------------------------------------------------------------------------

def replay(tiles: list[dict], spec: SlidingSpec, engine: str, tracer: Tracer):
    """Run one engine's tile kernel over every tile, one after another.

    Returns (per-tile seconds, summed FrontierStats, edges frame).
    """
    secs, stats, parts = [], FrontierStats(), []
    for k, tile in enumerate(tiles):
        with tracer.span(f"kernel.{engine}", qid=f"tile-{k}") as sp:
            if engine == "tsubasa":
                out = tsubasa.eval_tile_full(tile, spec)
            else:
                mode = "exact-ci" if engine == "dangoron" else "worst-case"
                res = frontier_query(tile, spec, mode)
                stats.merge(res.stats)
                out = pd.DataFrame(
                    {"i": res.i, "j": res.j, "w": res.w, "corr": res.corr}
                )
        secs.append(sp.seconds)
        parts.append(out)
    return secs, stats, pd.concat(parts, ignore_index=True)


def kernel_setup_metrics(tiles: list[dict], spec: SlidingSpec, tracer: Tracer) -> dict:
    """Tile setup shared by the evaluators, and exact-ci's slack prefix."""
    setup_s = slack_s = 0.0
    for tile in tiles:
        with tracer.span("kernel.setup") as sp:
            kernels.series_window_aggregates(tile["means_i"], tile["stds_i"], spec)
            kernels.series_window_aggregates(tile["means_j"], tile["stds_j"], spec)
            kernels.fuse_pair_terms(tile["q"], tile["means_i"], tile["means_j"])
        setup_s += sp.seconds
        _, _, rows = pair_tile_arrays(tile)
        n_bw = tile["q"].shape[2]
        with tracer.span("jump.slack_setup") as sp:
            c_bw = bounds.bw_correlations(tile["q"], tile["stds_i"], tile["stds_j"])
            bounds.slack_prefix(c_bw.reshape(-1, n_bw)[rows])
        slack_s += sp.seconds
    return {"kernel.setup_s": setup_s, "jump.slack_setup_s": slack_s}


def jump_metrics(stats: FrontierStats) -> dict:
    return {
        "jump.evals": stats.evals,
        "jump.eval_fraction": stats.evals / stats.cells if stats.cells else 0.0,
        "jump.probes_per_cell": stats.probes / stats.cells if stats.cells else 0.0,
        "jump.mean_jump": stats.jump_lengths / stats.jumps if stats.jumps else 0.0,
        "jump.emit_per_eval": stats.emitted / stats.evals if stats.evals else 0.0,
    }


# ---------------------------------------------------------------------------
# core.horizontal
# ---------------------------------------------------------------------------

def horizontal_probe(spark, wl: Workload, seed: int, tracer: Tracer, ledger) -> dict:
    """Pivot stage, triangle filter and the full horizontal query.

    The stages are timed as ``survival_fraction`` runs them (pivot frame
    cached, then the filter's survivors counted); the query's remainder
    after both is its cogrouped exact evaluation.

    ``horizontal.query`` leaves its pivot frame cached; the probe frees
    only what it cached itself, so ``spark.cached_mb_after`` shows it.
    """
    p = wl.probe
    b_surv, b_query = p.betas[:2]
    X = p.matrix(seed, p.spec(b_query).end)
    ref = gate.reference(X, p.spec(b_query))
    with tracer.span("horizontal.setup"):
        handle = build_sketch(spark, X, p.spec(b_query), wl.block_size)
    with tracer.span("horizontal.pivot") as piv:
        pivot_df = horizontal.pivot_correlations(handle.df, p.spec(b_surv), 0).cache()
        pivot_df.count()
    with tracer.span("horizontal.filter") as flt:
        survivors = horizontal.candidate_cells(pivot_df, b_surv).count()
    pivot_df.unpersist()
    n = X.shape[0]
    cells = (n - 1) * (n - 2) // 2 * p.spec(b_surv).n_windows
    with tracer.span("horizontal.query", qid=f"beta={b_query}") as q:
        edges = ledger.run(
            "horizontal query",
            lambda: horizontal.query(
                spark, handle.df, p.spec(b_query), 0, wl.block_size
            ).toPandas(),
        )
    if edges is not None:
        ledger.verdict("horizontal", gate.check_edges(edges, ref, b_query, exact=True))
    handle.unpersist()
    return {
        "horizontal.pivot_s": piv.seconds,
        "horizontal.filter_s": flt.seconds,
        "horizontal.candidates": survivors,
        "horizontal.survive_fraction": survivors / cells,
        "horizontal.query_s": q.seconds,
        "horizontal.cogroup_s": q.seconds - piv.seconds - flt.seconds,
        "horizontal.edges": 0 if edges is None else len(edges),
    }


# ---------------------------------------------------------------------------
# streaming.sketch_stream + streaming.query
# ---------------------------------------------------------------------------

def _generate(pdf: pd.DataFrame, bw: int, staging: str, t0: float, log: dict) -> None:
    """Open-loop generator: day d's file is due at t0 + d·interval."""
    for d in range(STREAM_DAYS):
        due = t0 + d * STREAM_INTERVAL_S
        time.sleep(max(0.0, due - time.perf_counter()))
        lo = (STREAM_PRELOAD_BW + d) * bw
        day = pdf[(pdf["t"] >= lo) & (pdf["t"] < lo + bw)]
        name = f"day-{d:04d}.parquet"
        tmp = os.path.join(staging, "." + name)
        day.to_parquet(tmp)
        log[name] = (due, time.perf_counter())  # before the driver can see it
        os.replace(tmp, os.path.join(staging, name))


def stream_probe(spark, wl: Workload, seed: int, workdir: str, tracer: Tracer, ledger) -> dict:
    """Writes beside reads: staged days drained and served from the store.

    A generator thread stages one basic window's file per interval. The
    driver drains whatever is pending with ``run_stream``, then asks
    ``query_dangoron`` for the latest windows. An update's latency runs
    from its file's due time to the refreshed network being returned.
    """
    p = wl.probe
    bw = p.spec(0.5).bw
    n_bw = STREAM_PRELOAD_BW + STREAM_DAYS
    X = p.matrix(seed, n_bw * bw)
    pdf = to_long_pdf(X)
    pre = pdf[pdf["t"] < STREAM_PRELOAD_BW * bw]
    store = SketchStore(os.path.join(workdir, "store"), bw=bw)
    with tracer.span("stream.preload") as pl:
        store.apply_batch(pre)

    shadow = copy.deepcopy(store)
    apply_s = []
    for d in range(3):
        lo = (STREAM_PRELOAD_BW + d) * bw
        day = pdf[(pdf["t"] >= lo) & (pdf["t"] < lo + bw)]
        with tracer.span("stream.apply") as sp:
            shadow.apply_batch(day)
        apply_s.append(sp.seconds)
    del shadow

    staging = os.path.join(workdir, "staging")
    os.makedirs(staging)
    log: dict = {}
    t0 = time.perf_counter() + 0.5
    gen = threading.Thread(target=_generate, args=(pdf, bw, staging, t0, log))
    gen.start()
    served, cycle, backlog_max = set(), 0, 0
    latencies, run_s, net, spec = [], [], None, None
    deadline = t0 + STREAM_DAYS * STREAM_INTERVAL_S + 120.0
    try:
        while len(served) < STREAM_DAYS and time.perf_counter() < deadline:
            pending = sorted(
                f for f in os.listdir(staging)
                if not f.startswith(".") and f not in served
            )
            if not pending:
                time.sleep(0.01)
                continue
            backlog_max = max(backlog_max, len(pending))
            cyc = os.path.join(workdir, f"cycle-{cycle:03d}")
            os.makedirs(cyc)
            for f in pending:
                shutil.move(os.path.join(staging, f), os.path.join(cyc, f))
            served.update(pending)
            spec = stream_spec(p, bw, STREAM_PRELOAD_BW + len(served))
            with tracer.span("stream.cycle", qid=f"cycle-{cycle}"):
                with tracer.span("stream.run_stream") as rs:
                    ledger.run("run_stream", lambda: run_stream(spark, cyc, store))
                with tracer.span("stream.query"):
                    net = ledger.run(
                        "query_dangoron", lambda: query_dangoron(store, spec)
                    )
            done = time.perf_counter()
            run_s.append(rs.seconds)
            latencies.extend(done - log[f][0] for f in pending)
            cycle += 1
    finally:
        gen.join(timeout=STREAM_DAYS * STREAM_INTERVAL_S + 60)
    if len(served) < STREAM_DAYS:
        raise RuntimeError(f"stream served {len(served)} of {STREAM_DAYS} days")

    if net is not None:
        ref = gate.reference(X, spec)
        ledger.verdict("stream", gate.check_edges(net, ref, spec.beta, exact=False))
    to_tile, frontier = [], []
    for _ in range(3):
        with tracer.span("stream.to_tile") as sp:
            tile = store_to_tile(store)
        to_tile.append(sp.seconds)
        with tracer.span("stream.frontier") as sp:
            frontier_query(tile, spec, "exact-ci")
        frontier.append(sp.seconds)
    lag = [actual - due for due, actual in log.values()]
    return {
        "stream.preload_s": pl.seconds,
        "stream.apply_s": statistics.median(apply_s),
        "stream.run_stream_s": statistics.median(run_s),
        "stream.to_tile_s": statistics.median(to_tile),
        "stream.frontier_s": statistics.median(frontier),
        "stream.update_latency_s": statistics.median(latencies),
        "stream.updates": len(latencies),
        "stream.state_rows": len(store.series_sketch()) + len(store.pair_sketch()),
        "stream.backlog_max": backlog_max,
        "stream.generator_lag_s": max(lag),
    }


def edge_metrics(engine: str, n_edges: int) -> dict:
    return {
        f"edges.{engine}": n_edges,
        f"edges_mb.{engine}": n_edges * EDGE_ROW_BYTES / 1e6,
    }
