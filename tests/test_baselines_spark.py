"""Raw-data baselines: ParCorr and StatStream estimate quality, and the
one window runner that naive, ParCorr and StatStream share."""
from dataclasses import replace

import numpy as np
import pandas as pd
import pytest

from repro.baselines import naive, parcorr, statstream
from repro.metrics import edge_metrics
from repro.sketch import kernels
from repro.tomborg.distributions import sample_target
from repro.tomborg.generator import generate
from repro.tsio.validation import SlidingSpec

N, L = 16, 960
SPEC = SlidingSpec(start=0, end=L, window=192, step=96, beta=0.5, bw=24)


@pytest.fixture(scope="module")
def X_flat():
    return generate(sample_target("block", N, seed=31), L, alpha=0.0, seed=32)


@pytest.fixture(scope="module")
def X_conc():
    return generate(sample_target("block", N, seed=31), L, alpha=2.0, seed=32)


def with_constant(X, value):
    """X with series 5 constant at ``value`` over t in [200, 600): windows 3 and 4."""
    X = X.copy()
    X[5, 200:600] = value
    return X


@pytest.fixture(scope="module")
def X_const(X_conc):
    return with_constant(X_conc, 2.0)


def exact_cells(X):
    ref = kernels.exact_window_corr(X, SPEC)
    rows = [
        (i, j, w, ref[i, j, w])
        for i in range(N)
        for j in range(i + 1, N)
        for w in range(SPEC.n_windows)
        if ref[i, j, w] >= SPEC.beta
    ]
    return pd.DataFrame(rows, columns=["i", "j", "w", "corr"])


class TestParCorr:
    def test_sketch_estimates_unit_diagonal(self, X_flat):
        # self-correlation estimate ‖Rx̂‖²/d has relative std √(2/d)
        r = np.random.default_rng(0).normal(size=(4096, SPEC.window))
        est = parcorr.estimate_window(X_flat[:, : SPEC.window], r)
        np.testing.assert_allclose(np.diag(est), 1.0, atol=0.12)

    def test_estimate_converges_with_d(self, X_flat):
        seg = X_flat[:, : SPEC.window]
        truth = np.corrcoef(seg)
        errs = []
        for d in (8, 2048):
            r = np.random.default_rng(1).normal(size=(d, SPEC.window))
            errs.append(np.abs(parcorr.estimate_window(seg, r) - truth).max())
        assert errs[1] < errs[0]

    def test_accuracy_band_on_spark(self, spark, X_flat):
        got = parcorr.query(spark, X_flat, SPEC, d=64, seed=3).toPandas()
        m = edge_metrics(exact_cells(X_flat), got)
        assert m["f1"] >= 0.8  # JL estimate with d=64 tracks the paper's ~90%

    def test_verified_mode_has_perfect_precision(self, spark, X_flat):
        got = parcorr.query(spark, X_flat, SPEC, d=32, seed=3, verify=True).toPandas()
        m = edge_metrics(exact_cells(X_flat), got)
        assert m["precision"] == 1.0       # exact verification filters FPs
        assert m["recall"] >= 0.95         # 2σ candidate margin catches edges
        assert m["value_mae"] == pytest.approx(0.0, abs=1e-9)

    def test_verified_beats_raw(self, spark, X_flat):
        raw = parcorr.query(spark, X_flat, SPEC, d=16, seed=4).toPandas()
        ver = parcorr.query(spark, X_flat, SPEC, d=16, seed=4, verify=True).toPandas()
        e = exact_cells(X_flat)
        assert edge_metrics(e, ver)["f1"] >= edge_metrics(e, raw)["f1"]

    def test_deterministic_in_seed(self, spark, X_flat):
        a = parcorr.query(spark, X_flat, SPEC, d=16, seed=5).toPandas()
        b = parcorr.query(spark, X_flat, SPEC, d=16, seed=5).toPandas()
        key = ["i", "j", "w"]
        assert a.sort_values(key).reset_index(drop=True).equals(
            b.sort_values(key).reset_index(drop=True)
        )


class TestStatStream:
    def test_full_coefficients_recover_exact(self, X_flat):
        seg = X_flat[:, : SPEC.window]
        est = statstream.estimate_window(seg, SPEC.window)
        np.testing.assert_allclose(est, np.corrcoef(seg), atol=1e-8)

    def test_truncation_only_underestimates_energy(self, X_conc):
        # dropped tail energy ⇒ |est| <= 1 and est(self) <= 1
        est = statstream.estimate_window(X_conc[:, : SPEC.window], 16)
        assert est.max() <= 1.0 + 1e-9

    def test_good_on_concentrated_bad_on_flat(self, spark, X_flat, X_conc):
        """Tomborg's robustness point: frequency truncation is data-dependent."""
        m_conc = edge_metrics(
            exact_cells(X_conc),
            statstream.query(spark, X_conc, SPEC, n_coef=16).toPandas(),
        )
        m_flat = edge_metrics(
            exact_cells(X_flat),
            statstream.query(spark, X_flat, SPEC, n_coef=16).toPandas(),
        )
        assert m_conc["f1"] > m_flat["f1"] + 0.2
        assert m_conc["f1"] >= 0.8


# engine -> (its Spark query, its numpy cells function for a spec)
ENGINES = {
    "naive": (naive.query, lambda spec: naive.cells),
    "parcorr-raw": (
        lambda spark, X, spec: parcorr.query(spark, X, spec, d=16, seed=3),
        lambda spec: parcorr.cells(spec, 16, 3, False),
    ),
    "parcorr-verified": (
        lambda spark, X, spec: parcorr.query(spark, X, spec, d=16, seed=3, verify=True),
        lambda spec: parcorr.cells(spec, 16, 3, True),
    ),
    "statstream": (
        lambda spark, X, spec: statstream.query(spark, X, spec, n_coef=16),
        lambda spec: statstream.cells(16),
    ),
}


def sorted_edges(pdf):
    return pdf.sort_values(["i", "j", "w"], ignore_index=True)


class TestRunWindows:
    """``naive.run_windows`` emits exactly each engine's thresholded numpy cells."""

    @pytest.mark.parametrize("beta", [0.5, 0.0])
    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_spark_edges_equal_numpy_cells(self, spark, X_const, engine, beta):
        spec = replace(SPEC, beta=beta)
        query, cells_for = ENGINES[engine]
        cells = cells_for(spec)
        iu, ju = np.triu_indices(N, k=1)
        want = []
        for w in range(spec.n_windows):
            ws, we = spec.window_t_range(w)
            i, j, c = cells(X_const[:, ws:we], iu, ju)
            keep = c >= beta
            want.append(pd.DataFrame({"i": i[keep], "j": j[keep], "w": w, "corr": c[keep]}))
        want = sorted_edges(pd.concat(want)).astype({"w": np.int64})
        got = sorted_edges(query(spark, X_const, spec).toPandas())
        assert len(want) > 0
        pd.testing.assert_frame_equal(got[["i", "j", "w"]], want[["i", "j", "w"]])
        np.testing.assert_allclose(got["corr"], want["corr"], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_constant_window_emits_no_edge_at_beta_zero(self, spark, X_const, engine):
        # a constant row has no correlation: at β = 0 an engine that reads
        # it as 0 would emit corr-0 edges no exact engine emits
        spec = replace(SPEC, beta=0.0)
        ref = kernels.exact_window_corr(X_const, spec)
        assert np.isnan(ref[5, :, 3:5]).all()
        got = ENGINES[engine][0](spark, X_const, spec).toPandas()
        assert len(got) > 0
        undefined = np.isnan(ref[got["i"], got["j"], got["w"]])
        assert not undefined.any(), f"{int(undefined.sum())} undefined cells emitted"


class TestRunWindowsInexactMean(TestRunWindows):
    """The same checks with a constant whose window mean does not round-trip
    (13.7, unlike 2.0): centring leaves rounding residue in the row, which
    must still read as constant, not as a tiny direction with corr ≈ 0."""

    @pytest.fixture(scope="class")
    def X_const(self, X_conc):
        return with_constant(X_conc, 13.7)
