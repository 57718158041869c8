"""The horizontal pruning dataflow stage by stage."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core import bounds, dangoron, horizontal
from repro.core.jumping import sweep
from repro.sketch import kernels
from repro.sketch.pair_sketch import load_pair_payload
from repro.synth_data import uscrn_like
from repro.harness import build_sketch
from repro.tsio.validation import SlidingSpec

N = 12
L = 480
SPEC = SlidingSpec(start=0, end=L, window=96, step=48, beta=0.5, bw=24)


@pytest.fixture(scope="module")
def X():
    return uscrn_like(n_stations=3, n_hours=L, seed=33)


@pytest.fixture(scope="module")
def sketch(spark, X):
    h = build_sketch(spark, X, SPEC, block_size=5)
    yield h
    h.unpersist()


@pytest.fixture(scope="module")
def banded(spark, X):
    """One block of all N series: a single block pair, cut into row bands."""
    h = build_sketch(spark, X, SPEC, block_size=N)
    yield h
    h.unpersist()


class TestCandidateStage:
    def test_filter_matches_numpy_triangle_bound(self, spark, sketch, X):
        pivot = 2
        pivot_pdf = horizontal.pivot_correlations(sketch.df, SPEC, pivot).toPandas()
        cand = horizontal.candidate_cells(
            horizontal.pivot_correlations(sketch.df, SPEC, pivot), SPEC.beta
        ).toPandas()
        got = set(map(tuple, cand[["i", "j", "w"]].to_numpy()))
        # numpy reference of the same filter
        ref = kernels.exact_window_corr(X, SPEC)
        expect = set()
        for i in range(N):
            for j in range(i + 1, N):
                if pivot in (i, j):
                    continue
                for w in range(SPEC.n_windows):
                    ca, cb = ref[i, pivot, w], ref[j, pivot, w]
                    if np.isnan(ca) or np.isnan(cb):
                        expect.add((i, j, w))
                        continue
                    _, hi = bounds.triangle_bounds(np.array([ca]), np.array([cb]))
                    if hi[0] >= SPEC.beta:
                        expect.add((i, j, w))
        assert got == expect

    def test_candidates_are_catalyst_filter(self, sketch):
        # the pruning stage must be a Catalyst Filter over the joined
        # pivot frame — the "DataFrame filter" dataflow, not a UDF scan
        plan = horizontal.candidate_cells(
            horizontal.pivot_correlations(sketch.df, SPEC, 0), SPEC.beta
        )._jdf.queryExecution().optimizedPlan().toString()
        assert "Filter" in plan

    def test_soundness_no_true_edge_pruned(self, spark, sketch, X):
        pivot = 0
        cand = horizontal.candidate_cells(
            horizontal.pivot_correlations(sketch.df, SPEC, pivot), SPEC.beta
        ).toPandas()
        got = set(map(tuple, cand[["i", "j", "w"]].to_numpy()))
        ref = kernels.exact_window_corr(X, SPEC)
        for i in range(N):
            for j in range(i + 1, N):
                if pivot in (i, j):
                    continue
                for w in range(SPEC.n_windows):
                    if ref[i, j, w] >= SPEC.beta:
                        assert (i, j, w) in got, "sound bound pruned a true edge"


class TestTriangleMask:
    """The sweep's triangle mask is the Catalyst filter, cell for cell."""

    @pytest.mark.parametrize("layout", ["sketch", "banded"])
    @pytest.mark.parametrize("pivot", [0, 7])
    def test_mask_evaluates_exactly_the_filter_survivors(self, spark, request, layout, pivot):
        h = request.getfixturevalue(layout)
        corr = horizontal.pivot_matrix(h.df, SPEC, pivot)
        assert corr.shape == (N, SPEC.n_windows)
        assert np.isnan(corr[pivot]).all()
        tiles = [load_pair_payload(r.payload) for r in h.df.select("payload").collect()]
        evals = sum(sweep(t, SPEC, pivot_corr=corr).stats.evals for t in tiles)
        survivors = horizontal.candidate_cells(
            horizontal.pivot_correlations(h.df, SPEC, pivot), SPEC.beta
        ).count()
        # every surviving non-pivot cell, plus the pivot's pairs at every window
        assert evals == survivors + (N - 1) * SPEC.n_windows
        # the query's own counters, which Table 4 reads, count the same cells
        stats = dangoron.stats_accumulator(spark)
        horizontal.query(spark, h.df, SPEC, pivot, 5, stats).count()
        assert stats.value.evals == evals

    def test_query_leaves_nothing_cached(self, spark, sketch):
        persistent = spark.sparkContext._jsc.getPersistentRDDs
        before = persistent().size()
        horizontal.query(spark, sketch.df, SPEC, 2, 5).toPandas()
        assert persistent().size() == before
