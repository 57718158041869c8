"""The frontier (jumping) kernel against exhaustive evaluation."""
import numpy as np
import pandas as pd
import pytest

from repro.baselines.tsubasa import eval_tile_full
from repro.core import bounds
from repro.core.jumping import frontier_query, slack_rows, sweep
from repro.sketch import kernels
from repro.sketch.pair_sketch import matrix_tile, pair_tile_arrays
from repro.synth_data import ar1_matrix, uscrn_like
from repro.tomborg.generator import generate_drifting
from repro.tomborg.distributions import sample_target
from repro.tsio.validation import SlidingSpec
from tests.test_bounds import ci_prefix, temporal_upper_bound, worst_case_upper_bound


def make_tile(X, spec):
    """The unbanded diagonal tile of every series."""
    return matrix_tile(X, spec.bw, slice(None), slice(None))


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


class TestSlackRows:
    @pytest.mark.parametrize("mode", ["exact-ci", "worst-case"])
    def test_slack_prefix_of_the_modes_ci(self, ar_case, mode):
        # worst-case's broadcast 2b is the slack of every c_i at −1, bit for bit
        _, _, tile, _ = ar_case
        rows = pair_tile_arrays(tile)[2]
        c_bw = bounds.bw_correlations(tile["q"], tile["stds_i"], tile["stds_j"])[rows]
        if mode == "worst-case":
            c_bw = np.full_like(c_bw, -1.0)
        got = slack_rows(tile, rows, mode)
        assert got.shape == (c_bw.shape[1] + 1, rows.size)
        np.testing.assert_array_equal(got, bounds.slack_prefix(c_bw.T, axis=0))


class TestSpecMustFitTheSketch:
    """A query the tile cannot answer is refused by every engine, not answered.

    The tile is built at bw 12 over 360 steps (30 basic windows).
    """

    @staticmethod
    def run(tile, spec, mode):
        return sweep(tile, spec) if mode is None else frontier_query(tile, spec, mode)

    @pytest.mark.parametrize("mode", [None, "exact-ci", "worst-case"])
    def test_range_past_the_data(self, ar_case, mode):
        _, _, tile, _ = ar_case
        past = SlidingSpec(start=0, end=480, window=72, step=12, beta=0.4, bw=12)
        with pytest.raises(ValueError, match="end=480 needs 40 basic windows, but the sketch holds 30"):
            self.run(tile, past, mode)

    @pytest.mark.parametrize("mode", [None, "exact-ci", "worst-case"])
    def test_other_basic_window(self, ar_case, mode):
        _, _, tile, _ = ar_case
        coarse = SlidingSpec(start=0, end=360, window=72, step=24, beta=0.4, bw=24)
        with pytest.raises(ValueError, match="query bw=24 does not match the sketch's bw=12"):
            self.run(tile, coarse, mode)


def make_cross_tile(X, split, spec):
    """Off-diagonal tile of series [0, split) against [split, N)."""
    return matrix_tile(X, spec.bw, slice(None, split), slice(split, None))


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


# ---------------------------------------------------------------------------
# Reference walker: Fig. 2, one pair and one window at a time
# ---------------------------------------------------------------------------

def walk(tile, spec, mode):
    """Walk every pair of ``tile`` through the windows as in Fig. 2.

    Each visited cell is evaluated by Eq. 1 from the tile on its own. A
    cell ≥ β is emitted, and the pair steps to the next window; so does
    an undefined (NaN) one. From a defined below-β cell the pair jumps
    to the smallest k with UB(k) ≥ β, found by trying k = 1, 2, … on
    Eq. 2 directly (``ci_prefix`` sums of the entering c_i, or c_i = −1
    for worst-case); if no k within the range qualifies, the pair is
    done. Returns the edges as a frame sorted by (i, j, w), the counters,
    and the number of jumps whose landing bound equals β exactly. The
    c_i come from every pair row of q, not the kept rows the sweep reads.
    """
    pi, pj, rows = pair_tile_arrays(tile)
    terms = kernels.tile_terms(tile, spec, rows)
    c_bw = bounds.bw_correlations(tile["q"], tile["stds_i"], tile["stds_j"])
    n_s, m, n_w, beta = spec.n_s, spec.m, spec.n_windows, spec.beta
    edges, ties = [], 0
    stats = {"evals": 0, "jumps": 0, "jump_lengths": 0, "emitted": 0}
    for p, row in enumerate(rows.tolist()):
        pref = ci_prefix(c_bw[row])
        w = 0
        while w < n_w:
            c = float(kernels.eval_at_window(terms, np.array([p]), w, spec)[0])
            stats["evals"] += 1
            if c >= beta:
                edges.append((tile["ids_i"][pi[p]], tile["ids_j"][pj[p]], w, c))
                stats["emitted"] += 1
            if not c < beta:
                w += 1
                continue
            a0 = spec.bw0 + w * m + n_s  # first basic window entering after w
            k = 1
            while k < n_w - w:
                if mode == "exact-ci":
                    ub = temporal_upper_bound(c, k, m, n_s, pref[a0 + m * k] - pref[a0])
                else:
                    ub = worst_case_upper_bound(c, k, m, n_s)
                if ub >= beta:
                    ties += ub == beta
                    break
                k += 1
            if k > 1:
                stats["jumps"] += 1
                stats["jump_lengths"] += k - 1
            w += k
    frame = pd.DataFrame(edges, columns=["i", "j", "w", "corr"]).astype(
        {"i": np.int64, "j": np.int64, "w": np.int64}
    )
    return frame.sort_values(["i", "j", "w"], ignore_index=True), stats, ties


def assert_sweep_walks(tile, spec, mode):
    """The sweep's edges and counters equal the walker's; returns the walk.

    TSUBASA's sweep sums a view of every pair's terms at once, and the
    walker gathers one pair's row; at every cell the walker emits, the
    two values must be the same bits.
    """
    res = frontier_query(tile, spec, mode)
    edges, stats, ties = walk(tile, spec, mode)
    got = res.frame().sort_values(["i", "j", "w"], ignore_index=True)
    pd.testing.assert_frame_equal(got, edges, check_exact=True)
    assert {k: getattr(res.stats, k) for k in stats} == stats
    full = sweep(tile, spec).frame()
    shared = edges.merge(full, on=["i", "j", "w"], how="left", suffixes=("", "_full"))
    assert shared["corr_full"].notna().all(), "TSUBASA missed a cell the walker emits"
    assert shared["corr_full"].to_numpy().tobytes() == shared["corr"].to_numpy().tobytes()
    return edges, stats, ties


def make_band(X, lo, hi, spec):
    """Rows [lo, hi) of a diagonal tile, paired with the series from lo on."""
    return matrix_tile(X, spec.bw, slice(lo, hi), slice(lo, None))


def dyadic_tile(n, n_bw, seed):
    """A diagonal tile whose Eq.-1 and Eq.-2 arithmetic is exact.

    Zero means and unit stds make each basic-window covariance its c_i,
    and every c_i is one of −1, −½, 0, ½, 1, so with n_s a power of two
    correlations, bounds and slack prefixes are short dyadic fractions:
    a bound that equals β in exact arithmetic equals it in floating
    point too, on both the sweep's side and the walker's. Basic windows
    10–19 have c_i = 1, where G is flat.
    """
    rng = np.random.default_rng(seed)
    q = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=(n, n, n_bw))
    q[:, :, 10:20] = 1.0
    ids = np.arange(n, dtype=np.int64)
    zeros, ones = np.zeros((n, n_bw)), np.ones((n, n_bw))
    return {
        "bw": 1, "ids_i": ids, "ids_j": ids, "means_i": zeros, "stds_i": ones,
        "means_j": zeros, "stds_j": ones, "q": q,
    }


MODES = ["exact-ci", "worst-case"]


class TestSweepMatchesReferenceWalker:
    """Edges, evaluations and jumps of the sweep equal a per-pair walk of Fig. 2."""

    @pytest.mark.parametrize("mode", MODES)
    def test_diagonal_tile(self, ar_case, mode):
        X, spec, tile, _ = ar_case
        _, stats, _ = assert_sweep_walks(tile, spec, mode)
        assert stats["jumps"] > 0 and stats["emitted"] > 0

    @pytest.mark.parametrize("mode", MODES)
    def test_off_diagonal_tile(self, mode):
        X = ar1_matrix(n=9, length=360, seed=21)
        spec = SlidingSpec(start=0, end=360, window=72, step=12, beta=0.3, bw=12)
        assert_sweep_walks(make_cross_tile(X, 4, spec), spec, mode)

    @pytest.mark.parametrize("mode", MODES)
    def test_banded_tiles(self, ar_case, mode):
        X, spec, _, _ = ar_case
        for lo, hi in ((0, 3), (3, 5), (5, 8)):
            assert_sweep_walks(make_band(X, lo, hi, spec), spec, mode)

    @pytest.mark.parametrize("mode", MODES)
    def test_constant_series_nan_windows(self, mode):
        X = ar1_matrix(n=6, length=360, seed=22)
        X[2] = 5.0          # undefined at every window
        X[4, 96:240] = -1.0  # undefined at the windows inside the stretch
        spec = SlidingSpec(start=0, end=360, window=72, step=12, beta=0.3, bw=12)
        ref = kernels.exact_window_corr(X, spec)
        assert np.isnan(ref[0, 4]).any() and np.isnan(ref[0, 2]).all()
        assert_sweep_walks(make_tile(X, spec), spec, mode)

    @pytest.mark.parametrize(
        "mode, m",
        [pytest.param(mode, 2, id=mode) for mode in MODES]
        + [pytest.param(mode, 3, id=f"{mode}-m3") for mode in MODES],
    )
    def test_two_basic_windows_per_step(self, mode, m):
        # m = 3: worst-case's slack steps by 2m = 6 per window, not a power of two
        X = ar1_matrix(n=7, length=480, seed=23)
        spec = SlidingSpec(start=24, end=480, window=96, step=12 * m, beta=0.35, bw=12)
        assert spec.m == m and spec.bw0 == 2
        _, stats, _ = assert_sweep_walks(make_tile(X, spec), spec, mode)
        assert stats["jumps"] > 0

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("mode", MODES)
    def test_flat_slack_and_exact_ties(self, mode, m):
        tile = dyadic_tile(n=7, n_bw=48, seed=24 + m)
        spec = SlidingSpec(start=0, end=48, window=4, step=m, beta=0.5, bw=1)
        _, stats, ties = assert_sweep_walks(tile, spec, mode)
        assert ties > 0 and stats["jumps"] > 0
