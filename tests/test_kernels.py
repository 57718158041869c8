"""Eq.-1 kernels against numpy ground truth across many configurations."""
import numpy as np
import pytest

from repro.sketch import kernels
from repro.sketch.pair_sketch import matrix_tile
from repro.synth_data import ar1_matrix, uscrn_like
from repro.tsio.validation import SlidingSpec


ALL = slice(None)


class TestBwStats:
    def test_means_match_numpy(self):
        X = ar1_matrix(n=4, length=120, seed=0)
        means, stds = kernels.bw_means_stds(X, 12)
        assert means.shape == (4, 10)
        for s in range(4):
            for b in range(10):
                seg = X[s, b * 12 : (b + 1) * 12]
                assert means[s, b] == pytest.approx(seg.mean())
                assert stds[s, b] == pytest.approx(seg.std())

    def test_ragged_length_rejected(self):
        with pytest.raises(ValueError, match="not a multiple"):
            kernels.bw_means_stds(np.zeros((2, 100)), 12)

    def test_centered_zero_mean(self):
        X = ar1_matrix(n=3, length=96, seed=1)
        xc = kernels.bw_centered(X, 8)
        assert np.abs(xc.mean(axis=2)).max() < 1e-12

    def test_pair_bw_cov_matches_numpy(self):
        X = ar1_matrix(n=5, length=60, seed=2)
        xc = kernels.bw_centered(X, 12)
        q = kernels.pair_bw_cov(xc, xc)
        for i in range(5):
            for j in range(5):
                for b in range(5):
                    a = X[i, b * 12 : (b + 1) * 12]
                    c = X[j, b * 12 : (b + 1) * 12]
                    expect = np.mean((a - a.mean()) * (c - c.mean()))
                    assert q[i, j, b] == pytest.approx(expect, abs=1e-12)


class TestSlidingSums:
    @pytest.mark.parametrize("step", [12, 24, 48])
    def test_matches_direct_sum(self, step):
        spec = SlidingSpec(start=0, end=240, window=48, step=step, beta=0.0, bw=12)
        arr = np.arange(3 * 20, dtype=float).reshape(3, 20)
        got = kernels.sliding_window_sums(arr, spec)
        assert got.shape == (3, spec.n_windows)
        for w in range(spec.n_windows):
            a = spec.window_bw_start(w)
            np.testing.assert_allclose(got[:, w], arr[:, a : a + spec.n_s].sum(axis=1))

    def test_offset_start(self):
        spec = SlidingSpec(start=48, end=240, window=48, step=24, beta=0.0, bw=12)
        arr = np.random.default_rng(0).random((2, 20))
        got = kernels.sliding_window_sums(arr, spec)
        for w in range(spec.n_windows):
            a = spec.window_bw_start(w)
            np.testing.assert_allclose(got[:, w], arr[:, a : a + spec.n_s].sum(axis=1))

    def test_3d_input(self):
        spec = SlidingSpec(start=0, end=120, window=24, step=12, beta=0.0, bw=12)
        arr = np.random.default_rng(1).random((4, 5, 10))
        got = kernels.sliding_window_sums(arr, spec)
        assert got.shape == (4, 5, spec.n_windows)
        np.testing.assert_allclose(got[2, 3], kernels.sliding_window_sums(arr[2, 3][None, :], spec)[0])

    def test_window_past_the_data_rejected(self):
        # the last of 35 windows ends at basic window 40 of 30
        spec = SlidingSpec(start=0, end=480, window=72, step=12, beta=0.0, bw=12)
        with pytest.raises(ValueError):
            kernels.sliding_window_sums(np.zeros((3, 30)), spec)


CONFIGS = [
    dict(start=0, end=240, window=48, step=12, bw=12),
    dict(start=0, end=240, window=48, step=48, bw=12),
    dict(start=24, end=240, window=72, step=24, bw=24),
    dict(start=0, end=240, window=240, step=12, bw=12),
    dict(start=0, end=240, window=24, step=12, bw=6),
    dict(start=60, end=240, window=60, step=30, bw=30),
]


def eval_every_cell(X, spec, rows=ALL, cols=ALL):
    """(ni, nj, W) correlations of X's series ``rows`` against ``cols``,
    one ``eval_at_window`` call per window.

    The terms cover every pair row, and each call sums a view of them for
    every pair (``slice(None)``), as TSUBASA's sweep does.
    """
    tile = matrix_tile(X, spec.bw, rows, cols)
    ni, nj, _ = tile["q"].shape
    terms = kernels.tile_terms(tile, spec, np.arange(ni * nj))
    corr = np.stack(
        [kernels.eval_at_window(terms, slice(None), w, spec) for w in range(spec.n_windows)],
        axis=1,
    )
    return corr.reshape(ni, nj, spec.n_windows)


class TestEq1Exactness:
    """``eval_at_window`` at every cell against correlations from raw data."""

    @pytest.mark.parametrize("cfg", CONFIGS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_eval_all_windows_equals_corrcoef(self, cfg, seed):
        X = ar1_matrix(n=6, length=240, seed=seed)
        spec = SlidingSpec(beta=0.0, **cfg)
        corr = eval_every_cell(X, spec)
        ref = kernels.exact_window_corr(X, spec)
        np.testing.assert_allclose(corr, ref, atol=1e-10)

    def test_on_climate_like_data(self):
        X = uscrn_like(n_stations=4, n_hours=480, seed=0)
        spec = SlidingSpec(start=0, end=480, window=96, step=24, beta=0.0, bw=24)
        corr = eval_every_cell(X, spec)
        ref = kernels.exact_window_corr(X, spec)
        np.testing.assert_allclose(corr, ref, atol=1e-9)

    def test_constant_series_gives_nan(self):
        X = ar1_matrix(n=3, length=120, seed=0)
        X[1] = 7.0  # constant: correlation undefined
        spec = SlidingSpec(start=0, end=120, window=24, step=12, beta=0.0, bw=12)
        corr = eval_every_cell(X, spec)
        assert np.isnan(corr[1, 0]).all() and np.isnan(corr[0, 1]).all()
        assert not np.isnan(corr[0, 2]).any()

    def test_perfectly_correlated_pair(self):
        rng = np.random.default_rng(3)
        base = rng.normal(size=120)
        X = np.stack([base, 2.0 * base + 5.0, -base])
        spec = SlidingSpec(start=0, end=120, window=24, step=12, beta=0.0, bw=12)
        corr = eval_every_cell(X, spec)
        np.testing.assert_allclose(corr[0, 1], 1.0, atol=1e-10)
        np.testing.assert_allclose(corr[0, 2], -1.0, atol=1e-10)

    def test_cross_block_evaluation(self):
        X = ar1_matrix(n=7, length=240, seed=5)
        spec = SlidingSpec(start=0, end=240, window=48, step=24, beta=0.0, bw=12)
        corr = eval_every_cell(X, spec, slice(None, 3), slice(3, None))
        ref = kernels.exact_window_corr(X, spec)
        np.testing.assert_allclose(corr, ref[:3, 3:, :], atol=1e-10)


class TestEvalAtWindow:
    """The one Eq.-1 evaluator, one window at a time, against raw data."""

    @pytest.mark.parametrize("cfg", CONFIGS[:4])
    def test_matches_eval_all_windows(self, cfg):
        X = ar1_matrix(n=6, length=240, seed=8)
        spec = SlidingSpec(beta=0.0, **cfg)
        tile = matrix_tile(X, spec.bw, ALL, ALL)
        rows = np.arange(36)
        terms = kernels.tile_terms(tile, spec, rows)
        ref = kernels.exact_window_corr(X, spec)
        for w in range(spec.n_windows):
            got = kernels.eval_at_window(terms, rows, w, spec)
            assert got.tobytes() == kernels.eval_at_window(terms, slice(None), w, spec).tobytes()
            np.testing.assert_allclose(got.reshape(6, 6), ref[:, :, w], atol=1e-10)

    def test_row_subset(self):
        X = ar1_matrix(n=5, length=120, seed=9)
        spec = SlidingSpec(start=0, end=120, window=24, step=12, beta=0.0, bw=12)
        tile = matrix_tile(X, spec.bw, ALL, ALL)
        terms = kernels.tile_terms(tile, spec, np.arange(25))
        sub = np.array([1, 7, 23])  # positions, here equal to the flat rows
        got = kernels.eval_at_window(terms, sub, 3, spec)
        ref = kernels.exact_window_corr(X, spec)
        for r, v in zip(sub, got):
            assert v == pytest.approx(ref[r // 5, r % 5, 3], abs=1e-10)


class TestFusePairTerms:
    def test_fused_equals_q_plus_mean_product(self):
        X = ar1_matrix(n=4, length=96, seed=10)
        means, stds = kernels.bw_means_stds(X, 12)
        q = kernels.pair_bw_cov(kernels.bw_centered(X, 12), kernels.bw_centered(X, 12))
        g = kernels.fuse_pair_terms(q, means, means)
        assert g.shape == (16, 8)
        expect = q + means[:, None, :] * means[None, :, :]
        np.testing.assert_allclose(g, expect.reshape(16, 8), atol=1e-12)

    def test_kept_rows_are_the_same_bits(self):
        X = ar1_matrix(n=5, length=96, seed=11)
        means, _ = kernels.bw_means_stds(X, 12)
        xc = kernels.bw_centered(X, 12)
        q = kernels.pair_bw_cov(xc[:2], xc)
        rows = np.array([1, 2, 4, 5, 7, 9])  # 4, 5 cross from i row 0 to 1
        g = kernels.fuse_pair_terms(q, means[:2], means, rows)
        assert g.shape == (6, 8) and g.flags.c_contiguous
        np.testing.assert_array_equal(g, kernels.fuse_pair_terms(q, means[:2], means)[rows])


class TestTileTerms:
    def test_kept_pairs_only(self):
        X = ar1_matrix(n=5, length=120, seed=12)
        spec = SlidingSpec(start=0, end=120, window=24, step=12, beta=0.0, bw=12)
        tile = matrix_tile(X, spec.bw, ALL, ALL)
        rows = np.array([1, 2, 8, 14, 19])  # (0,1) (0,2) (1,3) (2,4) (3,4)
        terms = kernels.tile_terms(tile, spec, rows)
        assert terms.g.shape == (5, tile["q"].shape[2])
        np.testing.assert_array_equal(terms.pi, [0, 0, 1, 2, 3])
        np.testing.assert_array_equal(terms.pj, [1, 2, 3, 4, 4])
        assert terms.mbar_i.shape == (spec.n_windows, 5) and terms.ss_j.flags.c_contiguous
        mbar, _ = kernels.series_window_aggregates(tile["means_i"], tile["stds_i"], spec)
        np.testing.assert_array_equal(terms.mbar_i, mbar.T)
        ref = kernels.exact_window_corr(X, spec)
        for w in range(spec.n_windows):
            got = kernels.eval_at_window(terms, slice(None), w, spec)
            np.testing.assert_allclose(got, ref[terms.pi, terms.pj, w], atol=1e-10)


class TestExactWindowCorr:
    def test_matches_corrcoef_per_window(self):
        X = ar1_matrix(n=4, length=96, seed=9)
        spec = SlidingSpec(start=0, end=96, window=48, step=24, beta=0.0, bw=24)
        ref = kernels.exact_window_corr(X, spec)
        for w in range(spec.n_windows):
            ws, we = spec.window_t_range(w)
            np.testing.assert_allclose(ref[:, :, w], np.corrcoef(X[:, ws:we]), atol=1e-12)
