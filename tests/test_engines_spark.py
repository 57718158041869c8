"""End-to-end engine tests: TSUBASA, Dangoron, naive, horizontal.

One shared module-scope dataset/sketch; every engine's output is checked
against the raw-data numpy reference (and engines against each other).
"""
import numpy as np
import pandas as pd
import pytest

from repro.baselines import naive, tsubasa
from repro.core import dangoron, horizontal
from repro.core.jumping import FrontierStats, frontier_query, sweep
from repro.harness import build_sketch
from repro.sketch import kernels
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
def ref_edges(X):
    ref = kernels.exact_window_corr(X, SPEC)
    return {
        (i, j, w): ref[i, j, w]
        for i in range(N)
        for j in range(i + 1, N)
        for w in range(SPEC.n_windows)
        if ref[i, j, w] >= SPEC.beta
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


class TestTsubasa:
    def test_exactly_matches_reference(self, sketch, ref_edges):
        got = as_edge_dict(tsubasa.query(sketch.df, SPEC).toPandas())
        assert set(got) == set(ref_edges)
        for k, v in got.items():
            assert v == pytest.approx(ref_edges[k], abs=1e-9)

    def test_stats_count_all_cells(self, spark, sketch):
        stats = dangoron.StatsAccumulators(spark)
        tsubasa.query(sketch.df, SPEC, stats).toPandas()
        s = stats.snapshot()
        assert s["cells"] == s["evals"] == (N * (N - 1) // 2) * SPEC.n_windows
        assert s["eval_fraction"] == 1.0


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
        stats = dangoron.StatsAccumulators(spark)
        dangoron.query(sketch.df, SPEC, "exact-ci", stats).toPandas()
        s = stats.snapshot()
        assert s["cells"] == (N * (N - 1) // 2) * SPEC.n_windows
        assert s["evals"] + s["skipped"] == s["cells"]
        assert 0 < s["evals"] < s["cells"]  # it pruned something on this data

    def test_unknown_mode_raises_before_spark_runs(self, sketch):
        with pytest.raises(ValueError, match="bound mode"):
            dangoron.query(sketch.df, SPEC, "nope")


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
        stats = dangoron.StatsAccumulators(spark)
        horizontal.query(spark, sketch.df, SPEC, 0, BLOCK, stats).count()
        survivors = stats.snapshot()["evals"] - (N - 1) * SPEC.n_windows
        total = (N - 1) * (N - 2) // 2 * SPEC.n_windows
        assert 0 < survivors <= total
        # pivot 0 is a temperature series: strongly correlated with other
        # temperature series, so the triangle bound prunes some cells
        assert survivors / total < 1.0


def whole_tile(X) -> dict:
    """The unbanded tile of one block of every series, built as the sketch builds it."""
    means, stds = kernels.bw_means_stds(X, SPEC.bw)
    xc = kernels.bw_centered(X, SPEC.bw)
    ids = np.arange(N, dtype=np.int64)
    return {
        "ids_i": ids, "ids_j": ids, "means_i": means, "stds_i": stds,
        "means_j": means, "stds_j": stds, "q": kernels.pair_bw_cov(xc, xc),
        "diag": True,
    }


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
        stats = dangoron.StatsAccumulators(spark)
        if engine == "tsubasa":
            df = tsubasa.query(banded.df, SPEC, stats)
        else:
            df = dangoron.query(banded.df, SPEC, engine, stats)
        got = df.toPandas().sort_values(["i", "j", "w"], ignore_index=True)
        want = ref.frame().sort_values(["i", "j", "w"], ignore_index=True)
        assert len(want) > 0
        pd.testing.assert_frame_equal(got, want, check_exact=True)
        snap = stats.snapshot()
        for f in FrontierStats.__dataclass_fields__:
            assert snap[f] == getattr(ref.stats, f), f
