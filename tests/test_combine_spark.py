"""The exact query engines against numpy and the DuckDB oracle.

At β = −1 an exact engine emits every defined (pair, window) cell, so
its output is the whole correlation-matrix sequence. TSUBASA over the
cached pair sketch, horizontal pruning (pivot 0) and the naive raw-data
engine must each equal DuckDB's ``corr()`` over the same long-form
input, on a query from t = 0 and on a sub-range query. Dangoron is
checked against TSUBASA in the engine tests (a subset with equal
values).
"""
from dataclasses import replace

import pytest

from repro.baselines import naive, tsubasa
from repro.core import horizontal
from repro.harness import build_sketch
from repro.oracle import assert_equivalent
from repro.sketch import kernels
from repro.synth_data import ar1_matrix
from repro.tsio.matrix import to_long_pdf, window_slices
from repro.tsio.validation import SlidingSpec

N, L = 6, 120
BLOCK = 4
SPEC = SlidingSpec(start=0, end=L, window=24, step=12, beta=0.4, bw=12)
ALL_CELLS = replace(SPEC, beta=-1.0)

ORACLE_SQL = """
SELECT a.series_id AS i, b.series_id AS j, w.w AS w,
       corr(a.value, b.value) AS corr
FROM ts a
JOIN ts b ON a.t = b.t AND a.series_id < b.series_id
JOIN wins w ON a.t >= w.ws AND a.t < w.we
GROUP BY 1, 2, 3
"""


@pytest.fixture(scope="module")
def X():
    return ar1_matrix(n=N, length=L, seed=13)


@pytest.fixture(scope="module")
def sketch(spark, X):
    h = build_sketch(spark, X, SPEC, block_size=BLOCK)
    yield h
    h.unpersist()


@pytest.fixture(scope="module")
def cells_df(sketch):
    df = tsubasa.query(sketch.df, ALL_CELLS).cache()
    df.count()
    yield df
    df.unpersist()


def exact_engines(spark, X, sketch, spec):
    """(name, edge DataFrame) of every exact engine on one query."""
    return [
        ("tsubasa", tsubasa.query(sketch.df, spec)),
        ("horizontal", horizontal.query(spark, sketch.df, spec, pivot=0, block_size=BLOCK)),
        ("naive", naive.query(spark, X, spec)),
    ]


def assert_engines_match_oracle(spark, X, sketch, spec):
    for name, df in exact_engines(spark, X, sketch, spec):
        try:
            assert_equivalent(df, ORACLE_SQL, ts=to_long_pdf(X), wins=window_slices(spec))
        except AssertionError as e:
            raise AssertionError(f"{name} differs from the DuckDB oracle") from e


class TestCatalystEq1:
    def test_matches_numpy_reference(self, cells_df, X):
        ref = kernels.exact_window_corr(X, ALL_CELLS)
        pdf = cells_df.toPandas()
        assert len(pdf) == (N * (N - 1) // 2) * SPEC.n_windows
        for row in pdf.itertuples():
            assert row.corr == pytest.approx(ref[row.i, row.j, row.w], abs=1e-9)

    def test_against_duckdb_oracle(self, spark, X, sketch):
        assert_engines_match_oracle(spark, X, sketch, ALL_CELLS)

    def test_threshold_keeps_only_edges(self, sketch, cells_df):
        key = ["i", "j", "w"]
        got = tsubasa.query(sketch.df, SPEC).toPandas().sort_values(key)
        full = cells_df.toPandas()
        want = full[full["corr"] >= SPEC.beta].sort_values(key)
        assert len(got) > 0
        assert got[key].to_numpy().tolist() == want[key].to_numpy().tolist()
        assert (got["corr"].to_numpy() == want["corr"].to_numpy()).all()


class TestOffsetQuery:
    def test_subrange_query_matches_oracle(self, spark, X):
        spec = SlidingSpec(start=24, end=120, window=48, step=24, beta=-1.0, bw=12)
        h = build_sketch(spark, X, spec, block_size=BLOCK)
        try:
            assert_engines_match_oracle(spark, X, h, spec)
        finally:
            h.unpersist()
