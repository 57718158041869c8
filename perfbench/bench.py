"""One benchmark run: a plain run (end-to-end metrics) or a traced run.

The plain run measures with tracing off. It sets up the cached pair
sketch three times, then runs a closed loop — one client, queries back
to back, round-robin over the engines, each with a β never used before
in the session — until the run's seconds are spent. Every query is
timed to its edges collected on the driver and every result is checked
against the numpy reference. Timings are medians of their samples.

The traced run makes the same calls inside spans, then probes each
layer from outside (see ``layers``) and derives the per-layer metrics.
"""
from __future__ import annotations

import os
import platform
import shutil
import statistics
import sys
import time
import traceback
from subprocess import TimeoutExpired

import numpy as np
import pandas as pd
import pyarrow
import pyspark
from pyspark import SparkContext
from pyspark.sql import DataFrame, SparkSession

from perfbench import gate, layers
from perfbench.obs import RssSampler, Tracer
from perfbench.workloads import Workload
from repro.baselines import tsubasa
from repro.core import dangoron
from repro.harness import build_sketch, timed_collect

# The session of the test suite's ``spark`` fixture (conftest.py).
SESSION_CONF = {
    "spark.sql.shuffle.partitions": "64",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
}
SETUP_REPEATS = 3

# name -> (query constructor, exact?)
ENGINES = {
    "tsubasa": (lambda df, spec: tsubasa.query(df, spec), True),
    "dangoron": (lambda df, spec: dangoron.query(df, spec, "exact-ci"), False),
    "dangoron-wc": (lambda df, spec: dangoron.query(df, spec, "worst-case"), False),
}
TIMED_ENGINES = ("tsubasa", "dangoron")


_T0 = time.perf_counter()


def _log(msg: str) -> None:
    print(f"[perfbench] {time.perf_counter() - _T0:8.2f}s {msg}", file=sys.stderr, flush=True)


class Ledger:
    """Operations attempted and failed (raised, or returned a wrong result)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, label: str, fn):
        self.attempted += 1
        _log(label)
        try:
            return fn()
        except Exception:
            self.failed += 1
            print(f"[perfbench] {label} raised:", file=sys.stderr)
            traceback.print_exc()
            return None

    def verdict(self, label: str, check: gate.Check) -> None:
        """Count a wrong result against the operation that produced it."""
        print(f"[perfbench] check {label}: ok={check.ok} {check.describe()}", file=sys.stderr)
        if not check.ok:
            self.failed += 1


def make_session() -> SparkSession:
    spark = SparkSession.builder.appName("repro").config(map=SESSION_CONF).getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_session(spark: SparkSession) -> None:
    """Stop the session and wait for the driver JVM to exit."""
    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except TimeoutExpired:
            proc.kill()
            proc.wait()
    # a later session in this process launches a fresh JVM
    SparkContext._gateway = None
    SparkContext._jvm = None


def environment(spark: SparkSession, wl: Workload, seed: int) -> dict:
    sc = spark.sparkContext
    conf = dict(sc.getConf().getAll())
    keep = ("spark.master", "spark.driver.memory", "spark.local.dir", *SESSION_CONF)
    return {
        "workload": wl.name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "default_parallelism": sc.defaultParallelism,
        "block_size": wl.block_size,
        "spark_conf": {k: conf.get(k, spark.conf.get(k, None)) for k in keep},
        "versions": {
            "python": platform.python_version(),
            "pyspark": pyspark.__version__,
            "numpy": np.__version__,
            "pandas": pd.__version__,
            "pyarrow": pyarrow.__version__,
            "java": sc._jvm.System.getProperty("java.version"),
        },
    }


def checked_query(
    ledger: Ledger, engine: str, sketch: DataFrame, wl: Workload,
    ref: np.ndarray, beta: float,
) -> tuple[float, pd.DataFrame, gate.Check] | None:
    """One query: time to edges on the driver, then check them (untimed)."""
    build, exact = ENGINES[engine]
    r = ledger.run(f"query {engine} beta={beta}",
                   lambda: timed_collect(build(sketch, wl.spec(beta))))
    if r is None:
        return None
    edges, secs = r
    check = gate.check_edges(edges, ref, beta, exact)
    ledger.verdict(engine, check)
    return secs, edges, check


def run_plain(wl: Workload, seed: int, seconds: float) -> tuple[dict, Ledger, dict]:
    ledger = Ledger()
    setups: list[float] = []
    times: dict[str, list[float]] = {e: [] for e in TIMED_ENGINES}
    recall: list[float] = []
    spec0 = wl.spec(wl.betas[0])
    with RssSampler() as rss:
        spark = make_session()
        try:
            env = environment(spark, wl, seed)
            X = wl.matrix(seed)
            ref = gate.reference(X, spec0)
            handle = None
            for _ in range(SETUP_REPEATS):
                if handle is not None:
                    handle.unpersist()
                h = ledger.run("setup", lambda: build_sketch(spark, X, spec0, wl.block_size))
                if h is not None:
                    setups.append(h.build_seconds)
                    handle = h
            if handle is None:
                raise RuntimeError("no set-up succeeded")
            spark.range(1).toPandas()  # warms the Arrow collect path set-ups skip
            betas = list(wl.betas)
            t_end = time.perf_counter() + seconds
            while len(betas) >= len(TIMED_ENGINES) and (
                time.perf_counter() < t_end or not all(times.values())
            ):
                for e in TIMED_ENGINES:
                    r = checked_query(ledger, e, handle.df, wl, ref, betas.pop(0))
                    if r is not None:
                        times[e].append(r[0])
                        if e == "dangoron":
                            recall.append(r[2].recall)
        finally:
            _log("stop")
            stop_session(spark)
    metrics = {
        "setup_s": statistics.median(setups),
        **{f"query_s.{e}": statistics.median(t) for e, t in times.items()},
        "recall.dangoron": statistics.median(recall),
        "peak_rss_mb": rss.peak_mb,
    }
    env["samples"] = {
        "setup_s": len(setups),
        "recall.dangoron": len(recall),
        **{f"query_s.{e}": len(t) for e, t in times.items()},
    }
    return metrics, ledger, env


def run_traced(wl: Workload, seed: int, workdir: str, trace_path: str) -> tuple[dict, Ledger, dict]:
    ledger = Ledger()
    tracer = Tracer()
    m: dict = {}
    with RssSampler() as rss:
        with tracer.span("spark.session") as sp:
            spark = make_session()
        m["spark.session_s"] = sp.seconds
        try:
            env = environment(spark, wl, seed)
            # First: its set-up also pays the session's JVM and worker warm-up.
            m.update(layers.horizontal_probe(spark, wl, seed, tracer, ledger))

            X = wl.matrix(seed)
            spec0 = wl.spec(wl.betas[0])
            ref = gate.reference(X, spec0)
            blocks, sketch = layers.traced_setup(spark, X, spec0, wl.block_size, tracer, "setup")
            m["blocks.pack_s"] = tracer.seconds("blocks.pack")[-1]
            m["pair_sketch.build_s"] = tracer.seconds("pair_sketch.build")[-1]
            tiles, sk = layers.sketch_metrics(spark, blocks, sketch, tracer)
            m.update(sk)
            m.update(layers.spark_passes(sketch, tracer))

            query_s, work = {}, {}
            for e, beta in zip(ENGINES, wl.betas):
                with tracer.span(f"query.{e}", qid=f"beta={beta}"):
                    r = checked_query(ledger, e, sketch, wl, ref, beta)
                if r is None:
                    raise RuntimeError(f"traced {e} query failed")
                secs, stats, edges = layers.replay(tiles, wl.spec(beta), e, tracer)
                if len(edges) != len(r[1]):
                    print(f"[perfbench] {e}: Spark returned {len(r[1])} edges, "
                          f"the tile replay {len(edges)}", file=sys.stderr)
                    ledger.failed += 1
                query_s[e] = r[0]
                work[e] = sum(secs)
                m[f"trace.query_s.{e}"] = r[0]
                m[f"kernel.work_s.{e}"] = work[e]
                m[f"kernel.critical_s.{e}"] = max(secs)
                m[f"kernel.skew.{e}"] = max(secs) / (work[e] / len(secs))
                m[f"spark.residual_s.{e}"] = r[0] - m["spark.ship_pass_s"] - max(secs)
                m.update(layers.edge_metrics(e, len(r[1])))
                if e == "dangoron":
                    m.update(layers.jump_metrics(stats))
                if e == "dangoron-wc":
                    m["recall.dangoron-wc"] = r[2].recall
            m["speedup.dangoron_vs_tsubasa.wall"] = query_s["tsubasa"] / query_s["dangoron"]
            m["speedup.dangoron_vs_tsubasa.work"] = work["tsubasa"] / work["dangoron"]
            m.update(layers.kernel_setup_metrics(tiles, spec0, tracer))
            del tiles
            sketch.unpersist()
            m["spark.cached_mb_after"] = layers.cached_mb(spark)

            m.update(layers.stream_probe(spark, wl, seed, workdir, tracer, ledger))
        finally:
            stop_session(spark)
            shutil.rmtree(workdir, ignore_errors=True)
    m["peak_rss_mb.traced"] = rss.peak_mb
    m["trace.spans"] = len(tracer.spans)
    m["trace.span_cost_s"] = len(tracer.spans) * tracer.span_cost()
    m["error_rate"] = ledger.failed / ledger.attempted
    tracer.dump(trace_path, {**env, "metrics": m})
    return m, ledger, env
