"""Experiment definitions and runners for the reproduced tables T1–T5.

One place defines every workload/parameter set. ``TABLES`` registers
each table's runner, title and results file, and ``write_table`` runs,
formats and saves a table through it: ``jobs/run_table.py`` and the
full-table benchmarks of ``benchmarks/`` both call it, so the printed
tables and the pytest-benchmark timings come from identical code paths.
EXPERIMENTS.md records each table's paper claim next to the numbers
these runners produce.

Timing discipline: the pair sketch is built once per dataset (shared by
every engine — the paper's "pure query time" excludes it but we report
it), each engine's query is run ``reps`` times and the minimum wall time
is reported. The minimum matters here: a run that lands on a cold Python
worker, or on a moment of load on a shared host, pays seconds unrelated
to the engine.
"""
from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro import synth_data
from repro.baselines import naive, parcorr, statstream, tsubasa
from repro.core import dangoron, horizontal
from repro.harness import build_sketch, format_table, save_table, timed_count
from repro.metrics import edge_metrics
from repro.streaming.sketch_stream import SketchStore, run_stream
from repro.tomborg.generator import generate_named
from repro.tsio.matrix import to_long_pdf
from repro.tsio.validation import SlidingSpec

# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------

# T1 — pure query time on the climate-like (USCRN-substitute) panel.
# 128 stations × 4 variables = 512 series, one year of hourly data,
# daily basic windows, 90-day windows sliding by one day. Large blocks
# amortize per-tile overheads for BOTH engines identically.
T1_N_STATIONS = 128
T1_HOURS = 8760
T1_SPEC = lambda beta: SlidingSpec(  # noqa: E731
    start=0, end=8760, window=2160, step=24, beta=beta, bw=24
)
T1_BETAS = (0.5, 0.7, 0.85, 0.95)
T1_BLOCK = 128

# T2 — accuracy on the same kind of panel at moderate size.
T2_N_STATIONS = 32
T2_SPEC = SlidingSpec(start=0, end=8760, window=720, step=24, beta=0.7, bw=24)
T2_BLOCK = 64

# T3 — Tomborg robustness grid.
T3_N = 64
T3_LEN = 4096
T3_SPEC = SlidingSpec(start=0, end=4096, window=1024, step=64, beta=0.6, bw=32)
T3_BLOCK = 64
T3_GRID = [
    ("sparse-low", 0.0),
    ("sparse-low", 2.0),
    ("dense-high", 0.0),
    ("dense-high", 2.0),
    ("block", 0.0),
    ("block", 2.0),
]

# T4 — pruning mechanics sweep.
T4_N_STATIONS = 32
T4_BETAS = (0.3, 0.5, 0.7, 0.9)
T4_SPEC = lambda beta: SlidingSpec(  # noqa: E731
    start=0, end=8760, window=2160, step=24, beta=beta, bw=24
)
T4_BLOCK = 64

# T5 — streaming maintenance.
T5_N = 32
T5_INIT_DAYS = 330
T5_APPEND_DAYS = 30
T5_BATCHES = 5
T5_REPS = 5  # the apply and the rebuild take milliseconds: min of several
T5_SPEC = SlidingSpec(start=0, end=8640, window=720, step=24, beta=0.7, bw=24)


def _min_run(run_once, reps: int) -> tuple[pd.DataFrame, float]:
    """Repeat a timed run and report the MINIMUM (timeit-style).

    A run that lands on a cold Python worker pays its start-up and
    first-touch page faults (~2 µs per 4 KiB page on the 4-core host,
    ~25 ms per fresh 49 MB buffer) on top of the engine's work. The
    minimum over reps is the standard robust estimator of the warm-path
    cost and is what the tables report.
    """
    times, last = [], None
    for _ in range(reps):
        last, secs = run_once()
        times.append(secs)
    return last, min(times)


# ---------------------------------------------------------------------------
# T1 — pure query time
# ---------------------------------------------------------------------------

def run_table1(spark: SparkSession, reps: int = 3, n_stations: int = T1_N_STATIONS):
    """Dangoron vs TSUBASA pure query time per β. Returns (rows, meta)."""
    X = synth_data.uscrn_like(n_stations=n_stations, n_hours=T1_HOURS, seed=7)
    handle = build_sketch(spark, X, T1_SPEC(T1_BETAS[0]), block_size=T1_BLOCK)
    rows = []
    for beta in T1_BETAS:
        spec = T1_SPEC(beta)
        runs = {}
        for name, make_df in (
            ("tsubasa", lambda s: tsubasa.query(handle.df, spec, s)),
            ("dangoron", lambda s: dangoron.query(handle.df, spec, "exact-ci", s)),
            ("dangoron-wc", lambda s: dangoron.query(handle.df, spec, "worst-case", s)),
        ):
            # every timed run is instrumented; in-kernel work is the min
            # over the same runs, as the wall time is
            snaps = []

            def run_once():
                stats = dangoron.stats_accumulator(spark)
                out = timed_count(make_df(stats))
                snaps.append(stats.value)
                return out

            n, secs = _min_run(run_once, reps)
            runs[name] = (secs, n, min(snaps, key=lambda s: s.work_s))
        base_s, _, base = runs["tsubasa"]
        for name, (secs, n, stats) in runs.items():
            rows.append(
                {
                    "beta": beta,
                    "engine": name,
                    "query_s": secs,
                    "work_s": stats.work_s,
                    "speedup_wall": base_s / secs,
                    "speedup_work": base.work_s / stats.work_s,
                    "eval_frac": stats.eval_fraction,
                    "edges": n,
                }
            )
    meta = {
        "n_series": X.shape[0],
        "n_pairs": X.shape[0] * (X.shape[0] - 1) // 2,
        "n_windows": T1_SPEC(0.7).n_windows,
        "sketch_build_s": handle.build_seconds,
        # every query runs one task per partition, one tile each
        "tiles": len(handle.tile_bytes),
        "partitions": handle.df.rdd.getNumPartitions(),
    }
    handle.unpersist()
    return rows, meta


# ---------------------------------------------------------------------------
# T2 — accuracy
# ---------------------------------------------------------------------------

def run_table2(spark: SparkSession, n_stations: int = T2_N_STATIONS):
    """Accuracy of Dangoron / ParCorr / StatStream vs the exact engine."""
    X = synth_data.uscrn_like(n_stations=n_stations, n_hours=T1_HOURS, seed=8)
    spec = T2_SPEC
    handle = build_sketch(spark, X, spec, block_size=T2_BLOCK)
    exact = tsubasa.query(handle.df, spec).toPandas()
    methods = {
        "dangoron": dangoron.query(handle.df, spec, "exact-ci").toPandas(),
        "dangoron-wc": dangoron.query(handle.df, spec, "worst-case").toPandas(),
        "parcorr(d=32,raw)": parcorr.query(spark, X, spec, d=32, seed=1).toPandas(),
        "parcorr(d=32,verified)": parcorr.query(
            spark, X, spec, d=32, seed=1, verify=True
        ).toPandas(),
        "statstream(f=16)": statstream.query(spark, X, spec, n_coef=16).toPandas(),
        "statstream(f=64)": statstream.query(spark, X, spec, n_coef=64).toPandas(),
    }
    handle.unpersist()
    rows = []
    for name, got in methods.items():
        m = edge_metrics(exact, got)
        rows.append(
            {
                "method": name,
                "precision": m["precision"],
                "recall": m["recall"],
                "missed": m["n_exact"] - m["tp"],
                "f1": m["f1"],
                "value_mae": m["value_mae"],
                "edges": m["n_method"],
            }
        )
    return rows, {"exact_edges": len(exact), "beta": spec.beta}


# ---------------------------------------------------------------------------
# T3 — Tomborg robustness
# ---------------------------------------------------------------------------

def run_table3(spark: SparkSession, reps: int = 3):
    """Time + accuracy of all engines across the Tomborg grid."""
    rows = []
    spec = T3_SPEC
    for dist, alpha in T3_GRID:
        X, _ = generate_named(dist, T3_N, T3_LEN, alpha=alpha, seed=17)
        handle = build_sketch(spark, X, spec, block_size=T3_BLOCK)
        _, t_tsu = _min_run(
            lambda: timed_count(tsubasa.query(handle.df, spec)), reps
        )
        _, t_dg = _min_run(
            lambda: timed_count(dangoron.query(handle.df, spec, "exact-ci")), reps
        )
        _, t_nv = _min_run(
            lambda: timed_count(naive.query(spark, X, spec)), reps
        )
        exact = tsubasa.query(handle.df, spec).toPandas()
        dg = dangoron.query(handle.df, spec, "exact-ci").toPandas()
        nv = naive.query(spark, X, spec).toPandas()
        pc = parcorr.query(spark, X, spec, d=32, seed=2).toPandas()
        st = statstream.query(spark, X, spec, n_coef=16).toPandas()
        handle.unpersist()
        for name, secs, cells in (
            ("naive", t_nv, nv),
            ("tsubasa", t_tsu, exact),
            ("dangoron", t_dg, dg),
            ("parcorr(d=32,raw)", None, pc),
            ("statstream(f=16)", None, st),
        ):
            m = edge_metrics(exact, cells)
            rows.append(
                {
                    "dataset": f"{dist}/α={alpha:g}",
                    "engine": name,
                    "query_s": secs if secs is not None else float("nan"),
                    "f1": m["f1"],
                    "recall": m["recall"],
                    "missed": m["n_exact"] - m["tp"],
                    "edges": m["n_method"],
                }
            )
    return rows, {"n": T3_N, "len": T3_LEN, "beta": spec.beta}


# ---------------------------------------------------------------------------
# T4 — pruning mechanics
# ---------------------------------------------------------------------------

def run_table4(spark: SparkSession, n_stations: int = T4_N_STATIONS):
    """Eval/skip fractions, jump lengths, horizontal survival per β."""
    X = synth_data.uscrn_like(n_stations=n_stations, n_hours=T1_HOURS, seed=9)
    n = X.shape[0]
    rows = []
    handle = build_sketch(spark, X, T4_SPEC(0.5), block_size=T4_BLOCK)
    for beta in T4_BETAS:
        spec = T4_SPEC(beta)
        for mode in ("exact-ci", "worst-case"):
            stats = dangoron.stats_accumulator(spark)
            dangoron.query(handle.df, spec, mode, stats).toPandas()
            s = stats.value
            rows.append(
                {
                    "beta": beta,
                    "mechanism": f"jump/{mode}",
                    "eval_fraction": s.eval_fraction,
                    "skip_fraction": 1.0 - s.eval_fraction,
                    "mean_jump": s.mean_jump,
                    "probes_per_cell": s.probes / s.cells,
                }
            )
        # the masked sweep evaluates the pivot's (N−1)·W cells and every
        # non-pivot cell that survives the triangle bound
        stats = dangoron.stats_accumulator(spark)
        horizontal.query(spark, handle.df, spec, 0, T4_BLOCK, stats).count()
        survivors = stats.value.evals - (n - 1) * spec.n_windows
        survive = survivors / ((n - 1) * (n - 2) // 2 * spec.n_windows)
        rows.append(
            {
                "beta": beta,
                "mechanism": "horizontal/pivot-0",
                "eval_fraction": survive,
                "skip_fraction": 1.0 - survive,
                "mean_jump": float("nan"),
                "probes_per_cell": float("nan"),
            }
        )
    handle.unpersist()
    return rows, {"n_series": n, "n_windows": T4_SPEC(0.5).n_windows}


# ---------------------------------------------------------------------------
# T5 — streaming maintenance
# ---------------------------------------------------------------------------

def run_table5(spark: SparkSession):
    """Incremental streaming update vs full sketch rebuild.

    The stores and the staged stream live in a temporary directory that
    is removed on return. Raises unless the streamed store equals the
    rebuilt one.
    """
    rng_hours = (T5_INIT_DAYS + T5_APPEND_DAYS) * 24
    X = synth_data.uscrn_like(n_stations=T5_N // 4, n_hours=rng_hours, seed=10)
    init_h = T5_INIT_DAYS * 24
    pdf = to_long_pdf(X)

    with tempfile.TemporaryDirectory() as workdir:
        # initial load
        store = SketchStore(os.path.join(workdir, "store"), bw=T5_SPEC.bw)
        t0 = time.perf_counter()
        store.apply_batch(pdf[pdf["t"] < init_h])
        t_init = time.perf_counter() - t0

        # direct incremental apply (algorithmic update cost, no streaming
        # engine overhead), each time on a fresh copy of the initial store
        def direct_apply():
            direct = SketchStore(os.path.join(workdir, "direct"), bw=T5_SPEC.bw)
            direct.apply_batch(pdf[pdf["t"] < init_h])
            t0 = time.perf_counter()
            direct.apply_batch(pdf[pdf["t"] >= init_h])
            return direct, time.perf_counter() - t0

        _, t_direct = _min_run(direct_apply, T5_REPS)

        # stage the 30-day append as streaming files
        in_dir = os.path.join(workdir, "incoming")
        os.makedirs(in_dir, exist_ok=True)
        edges = np.linspace(init_h, rng_hours, T5_BATCHES + 1, dtype=int)
        for k, (lo, hi) in enumerate(zip(edges, edges[1:])):
            part = pdf[(pdf["t"] >= lo) & (pdf["t"] < hi)]
            part.to_parquet(os.path.join(in_dir, f"part-{k:03d}.parquet"))

        t0 = time.perf_counter()
        run_stream(spark, in_dir, store)
        t_inc = time.perf_counter() - t0

        # full rebuild for comparison
        def full_rebuild():
            t0 = time.perf_counter()
            rebuild = SketchStore(os.path.join(workdir, "rebuild"), bw=T5_SPEC.bw)
            rebuild.apply_batch(pdf)
            return rebuild, time.perf_counter() - t0

        rebuild, t_full = _min_run(full_rebuild, T5_REPS)

        # the streamed store must equal the rebuilt one, series and pair sums
        for view in ("series_sketch", "pair_sketch"):
            pd.testing.assert_frame_equal(
                getattr(store, view)().round(9), getattr(rebuild, view)().round(9)
            )

    appended_rows = int((pdf["t"] >= init_h).sum())
    rows = [
        {
            "phase": "initial-load (330d)",
            "rows": int((pdf["t"] < init_h).sum()),
            "seconds": t_init,
            "rows_per_s": int((pdf["t"] < init_h).sum() / t_init),
        },
        {
            "phase": "incremental-apply (30d, direct)",
            "rows": appended_rows,
            "seconds": t_direct,
            "rows_per_s": int(appended_rows / t_direct),
        },
        {
            "phase": f"streaming-append (30d, {T5_BATCHES}+ batches)",
            "rows": appended_rows,
            "seconds": t_inc,
            "rows_per_s": int(appended_rows / t_inc),
        },
        {
            "phase": "full-rebuild (360d)",
            "rows": len(pdf),
            "seconds": t_full,
            "rows_per_s": int(len(pdf) / t_full),
        },
    ]
    meta = {
        "update_speedup_vs_rebuild": t_full / t_direct,
        "batches": store.batches_applied,
        "store_matches": True,  # checked above
    }
    return rows, meta


# ---------------------------------------------------------------------------
# The table registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Table:
    """How a table is run, titled and written.

    ``title`` is filled from the runner's meta; ``path`` is where
    ``write_table`` saves the table unless told otherwise.
    """

    runner: Callable[..., tuple[list[dict], dict]]
    title: str
    path: str


TABLES = {
    1: Table(
        run_table1,
        "T1 — pure query time | series={n_series} pairs={n_pairs} windows={n_windows} "
        "sketch_build={sketch_build_s:.2f}s tiles={tiles} partitions={partitions}",
        "results/table1.txt",
    ),
    2: Table(
        run_table2, "T2 — accuracy vs exact | beta={beta} exact_edges={exact_edges}",
        "results/table2.txt",
    ),
    3: Table(run_table3, "T3 — Tomborg robustness | N={n} L={len} beta={beta}", "results/table3.txt"),
    4: Table(
        run_table4, "T4 — pruning mechanics | series={n_series} windows={n_windows}",
        "results/table4.txt",
    ),
    5: Table(
        run_table5,
        "T5 — sketch maintenance | update_speedup_vs_rebuild={update_speedup_vs_rebuild:.1f}x "
        "micro_batches={batches} store_matches={store_matches}",
        "results/table5.txt",
    ),
}


def table_text(table: int, rows: list[dict], meta: dict) -> str:
    """Table ``table`` (1–5) formatted under its title."""
    return format_table(rows, title=TABLES[table].title.format(**meta))


def write_table(spark: SparkSession, table: int, out: str | None = None, **overrides):
    """Run table ``table`` with the runner's keyword ``overrides``, format
    it and save it to ``out`` (default: the table's results path).

    Returns (rows, meta, text).
    """
    rows, meta = TABLES[table].runner(spark, **overrides)
    text = table_text(table, rows, meta)
    save_table(text, out or TABLES[table].path)
    return rows, meta, text
