"""The frontier (jumping) kernel against exhaustive evaluation."""
import numpy as np
import pytest

from repro.baselines.tsubasa import eval_tile_full
from repro.core.jumping import frontier_query
from repro.sketch import kernels
from repro.synth_data import ar1_matrix, uscrn_like
from repro.tomborg.generator import generate_drifting
from repro.tomborg.distributions import sample_target
from repro.tsio.validation import SlidingSpec


def make_tile(X, spec):
    means, stds = kernels.bw_means_stds(X, spec.bw)
    xc = kernels.bw_centered(X, spec.bw)
    q = kernels.pair_bw_cov(xc, xc)
    n = X.shape[0]
    return {
        "ids_i": np.arange(n, dtype=np.int64),
        "ids_j": np.arange(n, dtype=np.int64),
        "means_i": means,
        "stds_i": stds,
        "means_j": means,
        "stds_j": stds,
        "q": q,
        "diag": True,
    }


def exact_edges(X, spec):
    ref = kernels.exact_window_corr(X, spec)
    n = X.shape[0]
    return {
        (i, j, w): ref[i, j, w]
        for i in range(n)
        for j in range(i + 1, n)
        for w in range(spec.n_windows)
        if ref[i, j, w] >= spec.beta
    }


@pytest.fixture(scope="module")
def ar_case():
    X = ar1_matrix(n=8, length=360, seed=4)
    spec = SlidingSpec(start=0, end=360, window=72, step=12, beta=0.4, bw=12)
    return X, spec, make_tile(X, spec), exact_edges(X, spec)


class TestFrontierCorrectness:
    @pytest.mark.parametrize("mode", ["exact-ci", "worst-case"])
    def test_emitted_values_are_exact(self, ar_case, mode):
        X, spec, tile, exact = ar_case
        res = frontier_query(tile, spec, mode)
        for i, j, w, c in zip(res.i, res.j, res.w, res.corr):
            assert (i, j, w) in exact, "emitted a below-threshold cell"
            assert c == pytest.approx(exact[(i, j, w)], abs=1e-10)

    @pytest.mark.parametrize("mode", ["exact-ci", "worst-case"])
    def test_no_false_positives(self, ar_case, mode):
        X, spec, tile, exact = ar_case
        res = frontier_query(tile, spec, mode)
        got = set(zip(res.i.tolist(), res.j.tolist(), res.w.tolist()))
        assert got <= set(exact)

    def test_beta_minus_one_evaluates_everything(self, ar_case):
        X, spec, tile, _ = ar_case
        full = SlidingSpec(
            start=spec.start, end=spec.end, window=spec.window,
            step=spec.step, beta=-1.0, bw=spec.bw,
        )
        res = frontier_query(make_tile(X, full), full, "exact-ci")
        # every defined cell is >= -1, so nothing can be skipped or dropped
        assert res.stats.evals == res.stats.cells
        assert res.stats.emitted == res.stats.cells
        ref = kernels.exact_window_corr(X, full)
        for i, j, w, c in zip(res.i, res.j, res.w, res.corr):
            assert c == pytest.approx(ref[i, j, w], abs=1e-10)

    @pytest.mark.parametrize("mode", ["exact-ci", "worst-case"])
    def test_work_accounting(self, ar_case, mode):
        X, spec, tile, _ = ar_case
        res = frontier_query(tile, spec, mode)
        s = res.stats
        n_pairs = 8 * 7 // 2
        assert s.cells == n_pairs * spec.n_windows
        assert 0 < s.evals <= s.cells
        assert s.evals + s.jump_lengths == s.cells  # every cell evaluated or certified-skipped
        assert s.emitted <= s.evals

    def test_exact_ci_skips_at_least_as_much_as_worst_case(self, ar_case):
        X, spec, tile, _ = ar_case
        e = frontier_query(tile, spec, "exact-ci").stats
        w = frontier_query(tile, spec, "worst-case").stats
        assert e.evals <= w.evals  # tighter bound -> longer jumps

    def test_unknown_mode_rejected(self, ar_case):
        X, spec, tile, _ = ar_case
        with pytest.raises(ValueError, match="bound mode"):
            frontier_query(tile, spec, "magic")

    def test_empty_tile(self):
        X = ar1_matrix(n=1, length=120, seed=0)
        spec = SlidingSpec(start=0, end=120, window=24, step=12, beta=0.5, bw=12)
        res = frontier_query(make_tile(X, spec), spec)  # single series: no pairs
        assert res.i.size == 0 and res.stats.cells == 0


def make_cross_tile(X, split, spec):
    """Off-diagonal tile of series [0, split) against [split, N)."""
    mi, si = kernels.bw_means_stds(X[:split], spec.bw)
    mj, sj = kernels.bw_means_stds(X[split:], spec.bw)
    return {
        "ids_i": np.arange(split, dtype=np.int64),
        "ids_j": np.arange(split, X.shape[0], dtype=np.int64),
        "means_i": mi, "stds_i": si, "means_j": mj, "stds_j": sj,
        "q": kernels.pair_bw_cov(
            kernels.bw_centered(X[:split], spec.bw), kernels.bw_centered(X[split:], spec.bw)
        ),
        "diag": False,
    }


class TestOffDiagonalTile:
    def test_cross_block_matches_reference(self):
        X = ar1_matrix(n=9, length=240, seed=6)
        spec = SlidingSpec(start=0, end=240, window=48, step=12, beta=0.3, bw=12)
        tile = make_cross_tile(X, 4, spec)
        res = frontier_query(tile, spec, "worst-case")
        assert res.stats.cells == 4 * 5 * spec.n_windows
        ref = kernels.exact_window_corr(X, spec)
        for i, j, w, c in zip(res.i, res.j, res.w, res.corr):
            assert c == pytest.approx(ref[i, j, w], abs=1e-10)


    def test_sweep_engines_agree_on_cross_tile(self):
        X = ar1_matrix(n=11, length=360, seed=12)
        spec = SlidingSpec(start=0, end=360, window=72, step=12, beta=0.3, bw=12)
        tile = make_cross_tile(X, 4, spec)  # 4 × 7 series, ids 0..3 × 4..10
        ref = kernels.exact_window_corr(X, spec)
        exact = {
            (i, j, w): ref[i, j, w]
            for i in range(4)
            for j in range(4, 11)
            for w in range(spec.n_windows)
            if ref[i, j, w] >= spec.beta
        }
        full = eval_tile_full(tile, spec)
        assert len(full) == len(exact) > 0
        for i, j, w, c in full.itertuples(index=False):
            assert c == pytest.approx(exact[(i, j, w)], abs=1e-10)
        for mode in ("exact-ci", "worst-case"):
            res = frontier_query(tile, spec, mode)
            assert res.stats.cells == 4 * 7 * spec.n_windows
            for i, j, w, c in zip(res.i, res.j, res.w, res.corr):
                assert c == pytest.approx(exact[(i, j, w)], abs=1e-10)


class TestHighThresholdPruning:
    def test_mostly_uncorrelated_data_is_mostly_skipped(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(10, 720))  # iid noise: all correlations ~0
        spec = SlidingSpec(start=0, end=720, window=144, step=24, beta=0.9, bw=24)
        res = frontier_query(make_tile(X, spec), spec, "exact-ci")
        assert res.stats.emitted == 0
        assert res.stats.evals < 0.35 * res.stats.cells

    def test_highly_correlated_data_cannot_skip(self):
        rng = np.random.default_rng(1)
        base = rng.normal(size=720)
        X = base[None, :] + 0.05 * rng.normal(size=(6, 720))
        spec = SlidingSpec(start=0, end=720, window=144, step=24, beta=0.5, bw=24)
        res = frontier_query(make_tile(X, spec), spec, "exact-ci")
        # everything above threshold: exact values required for every cell
        assert res.stats.evals == res.stats.cells
        assert res.stats.emitted == res.stats.cells


class TestAccuracyOnRealisticData:
    """The Eq.-2 bound is heuristic; these tests pin the expected band."""

    def test_recall_on_climate_like_data(self):
        X = uscrn_like(n_stations=6, n_hours=1440, seed=2)
        spec = SlidingSpec(start=0, end=1440, window=240, step=24, beta=0.7, bw=24)
        tile = make_tile(X, spec)
        exact = exact_edges(X, spec)
        res = frontier_query(tile, spec, "exact-ci")
        got = set(zip(res.i.tolist(), res.j.tolist(), res.w.tolist()))
        recall = len(got & set(exact)) / len(exact)
        assert recall >= 0.85, f"recall {recall:.3f} below the paper's accuracy band"
        assert res.stats.evals < res.stats.cells  # and it actually pruned

    def test_drifting_correlations_worst_case_recall(self):
        ca = sample_target("sparse-low", 10, seed=3)
        cb = sample_target("dense-high", 10, seed=4)
        X = generate_drifting(ca, cb, 1200, alpha=0.5, seed=5)
        spec = SlidingSpec(start=0, end=1200, window=240, step=24, beta=0.6, bw=24)
        exact = exact_edges(X, spec)
        res = frontier_query(make_tile(X, spec), spec, "worst-case")
        got = set(zip(res.i.tolist(), res.j.tolist(), res.w.tolist()))
        recall = len(got & set(exact)) / max(len(exact), 1)
        assert recall >= 0.8
