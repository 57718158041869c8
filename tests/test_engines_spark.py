"""End-to-end engine tests: TSUBASA, Dangoron, naive, horizontal.

One shared module-scope dataset/sketch; every engine's output is checked
against the raw-data numpy reference (and engines against each other).
"""
from dataclasses import fields

import numpy as np
import pandas as pd
import pytest
from pyspark.accumulators import _accumulatorRegistry

from repro.baselines import naive, tsubasa
from repro.core import dangoron, horizontal
from repro.core.jumping import FrontierStats, frontier_query, sweep
from repro.harness import build_sketch
from repro.sketch import kernels
from repro.sketch.pair_sketch import load_pair_payload, matrix_tile
from repro.synth_data import uscrn_like
from repro.tsio.validation import SlidingSpec

N_STATIONS, L = 5, 720  # 20 series
N = 20
SPEC = SlidingSpec(start=0, end=L, window=120, step=24, beta=0.6, bw=24)
BLOCK = 6  # deliberately not dividing N: exercises ragged blocks


@pytest.fixture(scope="module")
def X():
    return uscrn_like(n_stations=N_STATIONS, n_hours=L, seed=21)


@pytest.fixture(scope="module")
def ref_corr(X):
    """X's raw-data correlation of every (i, j, w) cell, (N, N, W)."""
    return kernels.exact_window_corr(X, SPEC)


@pytest.fixture(scope="module")
def ref_edges(ref_corr):
    return {
        (i, j, w): ref_corr[i, j, w]
        for i in range(N)
        for j in range(i + 1, N)
        for w in range(SPEC.n_windows)
        if ref_corr[i, j, w] >= SPEC.beta
    }


@pytest.fixture(scope="module")
def sketch(spark, X):
    h = build_sketch(spark, X, SPEC, block_size=BLOCK)
    yield h
    h.unpersist()


@pytest.fixture(scope="module")
def banded(spark, X):
    """One block of all N series: a single block pair, cut into row bands."""
    h = build_sketch(spark, X, SPEC, block_size=N)
    yield h
    h.unpersist()


@pytest.fixture(scope="module")
def both_layouts(sketch, banded):
    """(sketch, block size) of the block-pair layout and the banded one."""
    return [(sketch, BLOCK), (banded, N)]


def as_edge_dict(pdf: pd.DataFrame) -> dict:
    return {(r.i, r.j, r.w): r.corr for r in pdf.itertuples()}


def counters(stats: FrontierStats) -> dict:
    """Every deterministic field of ``stats``: all but the seconds ``work_s``."""
    return {f.name: getattr(stats, f.name) for f in fields(stats) if f.name != "work_s"}


class TestTsubasa:
    def test_exactly_matches_reference(self, sketch, ref_edges):
        got = as_edge_dict(tsubasa.query(sketch.df, SPEC).toPandas())
        assert set(got) == set(ref_edges)
        for k, v in got.items():
            assert v == pytest.approx(ref_edges[k], abs=1e-9)

    def test_stats_count_all_cells(self, spark, sketch):
        stats = dangoron.stats_accumulator(spark)
        tsubasa.query(sketch.df, SPEC, stats).toPandas()
        s = stats.value
        assert s.cells == s.evals == (N * (N - 1) // 2) * SPEC.n_windows
        assert s.eval_fraction == 1.0


class TestDangoron:
    @pytest.mark.parametrize("mode", ["exact-ci", "worst-case"])
    def test_no_false_positives_and_exact_values(self, sketch, ref_edges, mode):
        got = as_edge_dict(dangoron.query(sketch.df, SPEC, mode).toPandas())
        assert set(got) <= set(ref_edges)
        for k, v in got.items():
            assert v == pytest.approx(ref_edges[k], abs=1e-9)

    def test_recall_in_paper_band(self, sketch, ref_edges):
        got = as_edge_dict(dangoron.query(sketch.df, SPEC, "exact-ci").toPandas())
        recall = len(set(got) & set(ref_edges)) / len(ref_edges)
        assert recall >= 0.85

    def test_accumulators_account_for_all_cells(self, spark, sketch):
        stats = dangoron.stats_accumulator(spark)
        dangoron.query(sketch.df, SPEC, "exact-ci", stats).toPandas()
        s = stats.value
        assert s.cells == (N * (N - 1) // 2) * SPEC.n_windows
        assert s.evals + s.skipped == s.cells
        assert 0 < s.evals < s.cells  # it pruned something on this data

    def test_unknown_mode_raises_before_spark_runs(self, sketch):
        with pytest.raises(ValueError, match="bound mode"):
            dangoron.query(sketch.df, SPEC, "nope")

    @pytest.mark.parametrize(
        "spec, pattern",
        [
            (SlidingSpec(start=0, end=L, window=144, step=48, beta=0.6, bw=48),
             "query bw=48 does not match the sketch's bw=24"),
            (SlidingSpec(start=0, end=L + 240, window=120, step=24, beta=0.6, bw=24),
             "end=960 needs 40 basic windows, but the sketch holds 30"),
        ],
        ids=["other-bw", "past-the-data"],
    )
    def test_query_that_does_not_fit_the_sketch_raises(self, sketch, spec, pattern):
        with pytest.raises(Exception, match=pattern):
            dangoron.query(sketch.df, spec, "exact-ci").count()


class TestNaive:
    def test_matches_reference(self, spark, X, ref_edges):
        got = as_edge_dict(naive.query(spark, X, SPEC).toPandas())
        assert set(got) == set(ref_edges)
        for k, v in got.items():
            assert v == pytest.approx(ref_edges[k], abs=1e-9)


class TestHorizontal:
    @pytest.mark.parametrize("pivot", [0, 7])
    def test_sound_pruning_matches_reference(self, spark, both_layouts, ref_edges, pivot):
        for h, block in both_layouts:
            pdf = horizontal.query(spark, h.df, SPEC, pivot, block).toPandas()
            assert not pdf.duplicated(["i", "j", "w"]).any()
            got = as_edge_dict(pdf)
            assert set(got) == set(ref_edges)
            for k, v in got.items():
                assert v == pytest.approx(ref_edges[k], abs=1e-9)

    def test_pivot_correlations_match_reference(self, both_layouts, X):
        ref = kernels.exact_window_corr(X, SPEC)
        for h, _ in both_layouts:
            pdf = horizontal.pivot_correlations(h.df, SPEC, 3).toPandas()
            assert len(pdf) == (N - 1) * SPEC.n_windows
            assert not pdf.duplicated(["x", "w"]).any()
            for r in pdf.itertuples():
                expect = ref[min(3, r.x), max(3, r.x), r.w]
                if np.isnan(expect):
                    assert np.isnan(r.c)
                else:
                    assert r.c == pytest.approx(expect, abs=1e-9)

    def test_survival_fraction_on_structured_data(self, spark, sketch):
        # Table 4's reading: the masked sweep's evaluations less the
        # pivot's (N−1)·W cells are the survivors
        stats = dangoron.stats_accumulator(spark)
        horizontal.query(spark, sketch.df, SPEC, 0, BLOCK, stats).count()
        survivors = stats.value.evals - (N - 1) * SPEC.n_windows
        total = (N - 1) * (N - 2) // 2 * SPEC.n_windows
        assert 0 < survivors <= total
        # pivot 0 is a temperature series: strongly correlated with other
        # temperature series, so the triangle bound prunes some cells
        assert survivors / total < 1.0


def whole_tile(X) -> dict:
    """The unbanded tile of one block of every series."""
    return matrix_tile(X, SPEC.bw, slice(None), slice(None))


class TestBandedSketch:
    """Row bands change where a pair is evaluated, never what is evaluated."""

    @pytest.mark.parametrize(
        "engine, kernel",
        [
            ("tsubasa", lambda tile: sweep(tile, SPEC)),
            ("exact-ci", lambda tile: frontier_query(tile, SPEC, "exact-ci")),
            ("worst-case", lambda tile: frontier_query(tile, SPEC, "worst-case")),
        ],
    )
    def test_edges_and_stats_equal_the_whole_tile(self, spark, banded, X, engine, kernel):
        ref = kernel(whole_tile(X))
        stats = dangoron.stats_accumulator(spark)
        if engine == "tsubasa":
            df = tsubasa.query(banded.df, SPEC, stats)
        else:
            df = dangoron.query(banded.df, SPEC, engine, stats)
        got = df.toPandas().sort_values(["i", "j", "w"], ignore_index=True)
        want = ref.frame().sort_values(["i", "j", "w"], ignore_index=True)
        assert len(want) > 0
        pd.testing.assert_frame_equal(got, want, check_exact=True)
        assert counters(stats.value) == counters(ref.stats)

    def test_file_backed_tiles_equal_in_memory_tiles(self, spark, banded):
        # each tile as the runner loads it (q mapped read-only from its
        # file) and as plain in-memory arrays, the form the streaming
        # store's tiles take: every kernel gives the same bits on both
        pivot_corr = horizontal.pivot_matrix(banded.df, SPEC, 0)
        kernels_ = {
            "tsubasa": lambda tile: sweep(tile, SPEC),
            "exact-ci": lambda tile: frontier_query(tile, SPEC, "exact-ci"),
            "worst-case": lambda tile: frontier_query(tile, SPEC, "worst-case"),
            "horizontal": lambda tile: sweep(tile, SPEC, pivot_corr=pivot_corr),
        }
        payloads = [r.payload for r in banded.df.orderBy("tid").select("payload").collect()]
        assert len(payloads) > 1
        for payload in payloads:
            mapped = load_pair_payload(payload)
            assert not mapped["q"].flags.writeable
            in_memory = {k: np.array(v) for k, v in mapped.items()}
            assert in_memory["q"].flags.writeable
            for engine, kernel in kernels_.items():
                a, b = kernel(mapped), kernel(in_memory)
                for col in ("i", "j", "w", "corr"):
                    x, y = getattr(a, col), getattr(b, col)
                    assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), (engine, col)
                assert a.stats == b.stats, engine


class TestQueryCounters:
    """The query's one accumulator sums the kernels' own counters."""

    @pytest.mark.parametrize("engine", ["tsubasa", "exact-ci", "worst-case", "horizontal"])
    def test_equals_the_summed_tile_stats(self, spark, both_layouts, engine):
        for h, block in both_layouts:
            if engine == "horizontal":
                corr = horizontal.pivot_matrix(h.df, SPEC, 0)
                kernel = lambda tile: sweep(tile, SPEC, pivot_corr=corr)  # noqa: E731
                query = lambda s: horizontal.query(spark, h.df, SPEC, 0, block, s)  # noqa: E731
            elif engine == "tsubasa":
                kernel = lambda tile: sweep(tile, SPEC)  # noqa: E731
                query = lambda s: tsubasa.query(h.df, SPEC, s)  # noqa: E731
            else:
                kernel = lambda tile: frontier_query(tile, SPEC, engine)  # noqa: E731
                query = lambda s: dangoron.query(h.df, SPEC, engine, s)  # noqa: E731
            want = FrontierStats()
            for r in h.df.select("payload").collect():
                want.merge(kernel(load_pair_payload(r.payload)).stats)
            stats = dangoron.stats_accumulator(spark)
            query(stats).count()
            got = stats.value
            assert counters(got) == counters(want), (engine, block)
            assert want.work_s == 0.0 < got.work_s

    def test_a_query_registers_one_accumulator(self, spark, sketch):
        before = set(_accumulatorRegistry)
        stats = dangoron.stats_accumulator(spark)
        dangoron.query(sketch.df, SPEC, "exact-ci", stats).count()
        assert set(_accumulatorRegistry) - before == {stats.aid}


def rounding_tol(a: float, c: float) -> float:
    """The correlation error that the rounding of a·X + c itself allows.

    Each value of a·X + c is off by up to half an ulp of |c|, about
    1.1e-16·|c|, which is 1.1e-16·|c|/a in X's units. X's least window
    std is 3e-3 (a dry rain gauge), so a correlation can move by about
    4e-14·|c|/a.
    """
    return 1e-9 + 1e-13 * abs(c) / a


class TestAffineInvariance:
    """Every engine on the sketch of a·X + c gives X's correlations.

    The build centres each series' means on its first basic window, so an
    offset of up to 1e7 costs no more than the rounding of a·X + c.
    With raw means it moved correlations by up to 0.7 here.
    """

    @pytest.mark.parametrize(
        "a, c", [(2.0, 0.0), (1.0, 1e7), (3.5, -1e7), (0.01, 1e5), (100.0, -1e7)]
    )
    def test_engines_match_the_reference_of_x(self, spark, X, sketch, ref_corr, a, c):
        tol = rounding_tol(a, c)
        engines = {
            "tsubasa": lambda df: tsubasa.query(df, SPEC),
            "exact-ci": lambda df: dangoron.query(df, SPEC, "exact-ci"),
            "worst-case": lambda df: dangoron.query(df, SPEC, "worst-case"),
            "horizontal": lambda df: horizontal.query(spark, df, SPEC, 0, BLOCK),
        }
        h = build_sketch(spark, a * X + c, SPEC, block_size=BLOCK)
        try:
            for engine, query in engines.items():
                got = query(h.df).toPandas()
                np.testing.assert_allclose(
                    got["corr"], ref_corr[got["i"], got["j"], got["w"]],
                    rtol=0, atol=tol, err_msg=engine,
                )
                # the same edges as on X, but for cells within tol of β
                on_x = as_edge_dict(query(sketch.df).toPandas())
                for i, j, w in set(as_edge_dict(got)) ^ set(on_x):
                    assert abs(ref_corr[i, j, w] - SPEC.beta) <= tol, (engine, i, j, w)
        finally:
            h.unpersist()
