"""Eq.-2 temporal bounds and the triangle (horizontal) bound.

Eq. 2 is written out directly below (``temporal_upper_bound`` and its
c_i = −1 form ``worst_case_upper_bound``, over ``ci_prefix`` sums) as the
reference that the engine's forms, ``bounds.slack_prefix`` and
``bounds.worst_case_jump``, are compared against.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import bounds
from repro.sketch import kernels
from repro.synth_data import ar1_matrix
from repro.tsio.validation import SlidingSpec


def ci_prefix(c_bw: np.ndarray) -> np.ndarray:
    """Prefix sums of c_i along the basic-window axis, with a leading 0.

    Output shape (..., n_bw + 1); Σ_{b∈[a,b)} c = pref[b] − pref[a].
    """
    pref = np.zeros(c_bw.shape[:-1] + (c_bw.shape[-1] + 1,), dtype=np.float64)
    np.cumsum(c_bw, axis=-1, out=pref[..., 1:])
    return pref


def temporal_upper_bound(
    c: np.ndarray, k: np.ndarray, m: int, n_s: int, ci_sum: np.ndarray
) -> np.ndarray:
    """Eq. 2: upper bound on the correlation k slides ahead of c.

    ``ci_sum`` is the sum of the m·k entering basic-window correlations.
    """
    return c + (m * k - ci_sum) / n_s


def worst_case_upper_bound(c: np.ndarray, k: np.ndarray, m: int, n_s: int) -> np.ndarray:
    """Eq. 2 with c_i = −1 for every entering basic window."""
    return c + (2.0 * m * k) / n_s


class TestBwCorrelations:
    def test_matches_direct_correlation(self):
        X = ar1_matrix(n=4, length=60, seed=0)
        xc = kernels.bw_centered(X, 12)
        means, stds = kernels.bw_means_stds(X, 12)
        q = kernels.pair_bw_cov(xc, xc)
        c = bounds.bw_correlations(q, stds, stds)
        for i in range(4):
            for j in range(4):
                if i == j:
                    continue
                for b in range(5):
                    expect = np.corrcoef(
                        X[i, b * 12 : (b + 1) * 12], X[j, b * 12 : (b + 1) * 12]
                    )[0, 1]
                    assert c[i, j, b] == pytest.approx(expect, abs=1e-10)

    def test_degenerate_bw_floors_to_minus_one(self):
        X = ar1_matrix(n=2, length=24, seed=1)
        X[1, :12] = 3.0  # first bw constant
        xc = kernels.bw_centered(X, 12)
        means, stds = kernels.bw_means_stds(X, 12)
        q = kernels.pair_bw_cov(xc, xc)
        c = bounds.bw_correlations(q, stds, stds)
        assert c[0, 1, 0] == -1.0
        assert -1.0 <= c[0, 1, 1] <= 1.0

    def test_clipped_to_unit_interval(self):
        X = ar1_matrix(n=6, length=120, seed=2)
        xc = kernels.bw_centered(X, 12)
        _, stds = kernels.bw_means_stds(X, 12)
        c = bounds.bw_correlations(kernels.pair_bw_cov(xc, xc), stds, stds)
        assert c.min() >= -1.0 and c.max() <= 1.0


class TestCiPrefix:
    def test_prefix_reconstructs_range_sums(self):
        c = np.random.default_rng(0).uniform(-1, 1, size=(3, 4, 10))
        pref = ci_prefix(c)
        assert pref.shape == (3, 4, 11)
        for a in range(10):
            for b in range(a, 11):
                np.testing.assert_allclose(
                    pref[..., b] - pref[..., a], c[..., a:b].sum(axis=-1), atol=1e-12
                )

    def test_leading_zero(self):
        c = np.ones((2, 5))
        assert (ci_prefix(c)[..., 0] == 0).all()


class TestSlackPrefix:
    def test_monotone_nondecreasing(self):
        c = np.random.default_rng(1).uniform(-1, 1, size=(4, 20))
        g = bounds.slack_prefix(c)
        assert (np.diff(g, axis=-1) >= -1e-12).all()

    def test_equivalent_to_bound(self):
        # UB(k) via slack == UB(k) via Eq. 2 directly
        rng = np.random.default_rng(2)
        ci = rng.uniform(-1, 1, 30)
        g = bounds.slack_prefix(ci[None, :])[0]
        pref = ci_prefix(ci)
        c0, m, n_s, a0 = 0.1, 1, 8, 5
        for k in range(1, 20):
            ci_sum = pref[a0 + m * k] - pref[a0]
            direct = temporal_upper_bound(
                np.array([c0]), np.array([k]), m, n_s, np.array([ci_sum])
            )[0]
            via_slack = c0 + (g[a0 + m * k] - g[a0]) / n_s
            assert via_slack == pytest.approx(direct, abs=1e-12)

    def test_leading_zero(self):
        g = bounds.slack_prefix(np.full((2, 5), 0.5))
        assert (g[:, 0] == 0).all()
        np.testing.assert_allclose(g[:, -1], 2.5)

    def test_leading_axis_is_the_transpose(self):
        # the exact-ci rule's layout: one contiguous row per basic-window boundary
        c = np.random.default_rng(4).uniform(-1, 1, size=(6, 20))
        g = bounds.slack_prefix(c.T, axis=0)
        assert g.shape == (21, 6) and g.flags.c_contiguous
        np.testing.assert_array_equal(g, bounds.slack_prefix(c).T)


class TestTemporalBound:
    def test_monotone_in_k(self):
        # since every c_i <= 1, UB(k+1) >= UB(k) for any c_i sequence
        rng = np.random.default_rng(3)
        ci = rng.uniform(-1, 1, 50)
        pref = np.concatenate([[0.0], np.cumsum(ci)])
        c0, m, n_s = -0.2, 1, 8
        ub = [
            temporal_upper_bound(
                np.array([c0]), np.array([k]), m, n_s, np.array([pref[m * k] - pref[0]])
            )[0]
            for k in range(1, 40)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(ub, ub[1:]))

    def test_reduces_to_current_corr_at_zero(self):
        ub = temporal_upper_bound(np.array([0.3]), np.array([0]), 2, 10, np.array([0.0]))
        assert ub[0] == pytest.approx(0.3)

    def test_perfectly_correlated_entering_windows_freeze_bound(self):
        # c_i = 1 for all entering bws -> UB(k) = c for every k
        k = np.arange(1, 10)
        ub = temporal_upper_bound(np.full(9, 0.1), k, 1, 5, k.astype(float))
        np.testing.assert_allclose(ub, 0.1)

    def test_worst_case_matches_ci_minus_one(self):
        k = np.arange(1, 6)
        via_ci = temporal_upper_bound(np.zeros(5), k, 3, 7, -3.0 * k)
        direct = worst_case_upper_bound(np.zeros(5), k, 3, 7)
        np.testing.assert_allclose(via_ci, direct)

    @given(
        c=st.floats(-0.99, 0.99),
        beta=st.floats(-0.9, 0.999),
        m=st.integers(1, 4),
        n_s=st.integers(2, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_worst_case_jump_is_minimal_crossing(self, c, beta, m, n_s):
        if c >= beta:
            return
        k = bounds.worst_case_jump(np.array([c]), beta, m, n_s)[0]
        assert k >= 1
        assert worst_case_upper_bound(np.array([c]), np.array([k]), m, n_s)[0] >= beta - 1e-9
        if k > 1:
            assert (
                worst_case_upper_bound(np.array([c]), np.array([k - 1]), m, n_s)[0]
                < beta + 1e-9
            )


class TestTriangleBound:
    @given(st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_sound_on_random_gaussian_triples(self, seed):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(3, 40)) @ rng.normal(size=(40, 40))
        cm = np.corrcoef(z)
        lo, hi = bounds.triangle_bounds(np.array([cm[0, 2]]), np.array([cm[1, 2]]))
        assert lo[0] - 1e-9 <= cm[0, 1] <= hi[0] + 1e-9

    def test_identical_pivot_correlations_tighten(self):
        lo, hi = bounds.triangle_bounds(np.array([1.0]), np.array([1.0]))
        assert lo[0] == pytest.approx(1.0) and hi[0] == pytest.approx(1.0)

    def test_orthogonal_pivot_gives_vacuous_bound(self):
        lo, hi = bounds.triangle_bounds(np.array([0.0]), np.array([0.0]))
        assert lo[0] == pytest.approx(-1.0) and hi[0] == pytest.approx(1.0)

    def test_high_low_mix_prunes(self):
        # one series strongly pivot-correlated, the other not: UB well below 1
        lo, hi = bounds.triangle_bounds(np.array([0.95]), np.array([0.0]))
        assert hi[0] == pytest.approx(np.sqrt(1 - 0.95**2), abs=1e-12)

    def test_vectorized_shapes(self):
        a = np.linspace(-1, 1, 7)
        lo, hi = bounds.triangle_bounds(a, a[::-1])
        assert lo.shape == hi.shape == (7,)
        assert (lo <= hi + 1e-12).all()
