"""T3 benchmarks — Tomborg robustness grid (time + accuracy).

Benchmarks the three exact engines on one Tomborg dataset, then runs
the full grid and writes results/table3.txt.
"""
import pytest

from repro import experiments
from repro.baselines import naive, tsubasa
from repro.core import dangoron
from repro.harness import build_sketch, timed_count
from repro.tomborg.generator import generate_named


@pytest.fixture(scope="module")
def dataset():
    X, _ = generate_named(
        "sparse-low", experiments.T3_N, experiments.T3_LEN, alpha=0.0, seed=17
    )
    return X


@pytest.fixture(scope="module")
def sketch(spark, dataset):
    h = build_sketch(
        spark, dataset, experiments.T3_SPEC, block_size=experiments.T3_BLOCK
    )
    yield h
    h.unpersist()


def test_naive_query(benchmark, spark, dataset):
    benchmark.pedantic(
        lambda: timed_count(naive.query(spark, dataset, experiments.T3_SPEC)),
        rounds=3,
        iterations=1,
    )


def test_tsubasa_query(benchmark, sketch):
    benchmark.pedantic(
        lambda: timed_count(tsubasa.query(sketch.df, experiments.T3_SPEC)),
        rounds=3,
        iterations=1,
    )


def test_dangoron_query(benchmark, sketch):
    benchmark.pedantic(
        lambda: timed_count(
            dangoron.query(sketch.df, experiments.T3_SPEC, "exact-ci")
        ),
        rounds=3,
        iterations=1,
    )


def test_full_table3(benchmark, spark):
    rows, _, _ = benchmark.pedantic(
        experiments.write_table, (spark, 3), kwargs={"reps": 1}, rounds=1, iterations=1
    )
    by = {(r["dataset"], r["engine"]): r for r in rows}
    for dist, alpha in experiments.T3_GRID:
        ds = f"{dist}/α={alpha:g}"
        # TSUBASA (exact, unpruned) is robust on every distribution
        assert by[(ds, "tsubasa")]["f1"] == 1.0
        if alpha == 0.0:
            # stable correlations: Dangoron's bound barely ever misses
            assert by[(ds, "dangoron")]["f1"] >= 0.95
        else:
            # concentrated spectra = drifting correlations: Tomborg
            # exposes the Eq.-2 stationarity assumption (still usable,
            # but visibly degraded — this is the benchmark's point)
            assert by[(ds, "dangoron")]["f1"] >= 0.6
    # frequency truncation collapses exactly on flat spectra
    assert (
        by[("dense-high/α=2", "statstream(f=16)")]["f1"]
        > by[("dense-high/α=0", "statstream(f=16)")]["f1"] + 0.5
    )
