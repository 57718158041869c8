"""Streaming sketch maintenance: the store against numpy sums, input
rejection, and serving queries from the store."""
import os

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import tsubasa
from repro.core import jumping
from repro.harness import build_sketch
from repro.sketch.pair_sketch import matrix_tile
from repro.streaming.query import query_dangoron, store_to_tile
from repro.streaming.sketch_stream import SketchStore, run_stream
from repro.synth_data import ar1_matrix
from repro.tsio.matrix import to_long_pdf
from repro.tsio.validation import SlidingSpec

N, L = 8, 480
SPEC = SlidingSpec(start=0, end=L, window=96, step=24, beta=0.4, bw=24)
ALL = slice(None)


@pytest.fixture(scope="module")
def X():
    return ar1_matrix(n=N, length=L, seed=41)


def stage_files(X, directory, n_files):
    """Write the long form as n_files parquet files split along time."""
    os.makedirs(directory, exist_ok=True)
    pdf = to_long_pdf(X)
    bounds = np.linspace(0, X.shape[1], n_files + 1, dtype=int)
    for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        part = pdf[(pdf["t"] >= lo) & (pdf["t"] < hi)]
        part.to_parquet(os.path.join(directory, f"part-{k:03d}.parquet"))


class TestForeachBatchStore:
    @pytest.fixture(scope="class")
    def store(self, spark, X, tmp_path_factory):
        root = tmp_path_factory.mktemp("stream")
        stage_files(X, str(root / "in"), n_files=6)
        store = SketchStore(str(root / "store"), bw=SPEC.bw)
        run_stream(spark, str(root / "in"), store)
        return store

    def test_processed_in_multiple_batches(self, store):
        assert store.batches_applied >= 2  # maxFilesPerTrigger=1 over 6 files

    def test_series_store_equals_batch_builder(self, store, X):
        xb = X.reshape(N, -1, SPEC.bw)
        got = store.series_sketch()
        assert len(got) == N * xb.shape[1]
        assert (got["cnt"] == SPEC.bw).all()
        for col, want in (("s1", xb.sum(axis=2)), ("s2", (xb * xb).sum(axis=2))):
            np.testing.assert_allclose(
                got[col].to_numpy().reshape(N, -1), want, rtol=0, atol=1e-9
            )

    def test_pair_store_matches_numpy(self, store, X):
        q = matrix_tile(X, SPEC.bw, ALL, ALL)["q"]
        pdf = store.pair_sketch()
        assert len(pdf) == (N * (N - 1) // 2) * (L // SPEC.bw)
        for r in pdf.itertuples():
            assert r.q == pytest.approx(q[r.i, r.j, r.bw_id], abs=1e-9)

    @pytest.fixture(scope="class")
    def batch_edges(self, spark, X):
        """TSUBASA's edges on the batch-built block-pair sketch."""
        h = build_sketch(spark, X, SPEC, block_size=4)
        edges = tsubasa.query(h.df, SPEC).toPandas()
        h.unpersist()
        return edges.sort_values(["i", "j", "w"]).reset_index(drop=True)

    def test_dangoron_on_store_matches_batch_engine(self, store, batch_edges):
        streamed = query_dangoron(store, SPEC, "worst-case")
        key = ["i", "j", "w"]
        s = streamed.sort_values(key).reset_index(drop=True)
        b = batch_edges
        # worst-case Dangoron may skip (miss) some cells; it must never
        # invent cells, and shared cells must agree exactly
        sk = set(map(tuple, s[key].to_numpy()))
        bk = set(map(tuple, b[key].to_numpy()))
        assert sk <= bk
        assert len(sk) >= 0.8 * len(bk)
        merged = s.merge(b, on=key, suffixes=("_s", "_b"))
        np.testing.assert_allclose(merged["corr_s"], merged["corr_b"], atol=1e-9)

    def test_full_sweep_on_store_equals_batch_engine(self, store, batch_edges):
        # no rule: every cell evaluated, so the edge sets must be equal
        key = ["i", "j", "w"]
        got = jumping.sweep(store_to_tile(store), SPEC).frame()
        got = got.sort_values(key).reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got[key].astype("int64"), batch_edges[key].astype("int64")
        )
        np.testing.assert_allclose(got["corr"], batch_edges["corr"], rtol=0, atol=1e-9)

    def test_incremental_append_extends_store(self, spark, store, X, tmp_path_factory):
        # stream 2 more days for the same series; store grows, old bws intact
        extra_root = tmp_path_factory.mktemp("stream-extra")
        rng = np.random.default_rng(99)
        X2 = rng.normal(size=(N, 48))
        pdf = to_long_pdf(X2)
        pdf["t"] += L
        os.makedirs(extra_root / "in", exist_ok=True)
        pdf.to_parquet(str(extra_root / "in" / "part-000.parquet"))
        before = len(store.series_sketch())
        run_stream(spark, str(extra_root / "in"), store)
        after = store.series_sketch()
        assert len(after) == before + N * 2
        assert after["bw_id"].max() == L // SPEC.bw + 1

    def test_partial_cross_section_rejected(self, store):
        bad = pd.DataFrame({"series_id": [0], "t": [10_000], "value": [1.0]})
        if N > 1:
            with pytest.raises(ValueError, match="complete timesteps"):
                store.apply_batch(bad)


class TestBatchingInvariance:
    """A streamed store's tile equals the batch tile of ``matrix_tile``,
    whatever the batching."""

    @given(
        cuts=st.lists(st.integers(1, L - 1), max_size=12, unique=True),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_split_and_order(self, X, tmp_path_factory, cuts, data):
        pdf = to_long_pdf(X)
        bounds = [0, *sorted(cuts), L]
        parts = [pdf[(pdf["t"] >= lo) & (pdf["t"] < hi)] for lo, hi in zip(bounds, bounds[1:])]
        store = SketchStore(str(tmp_path_factory.getbasetemp()), bw=SPEC.bw)
        for k in data.draw(st.permutations(range(len(parts)))):
            store.apply_batch(parts[k])
        tile = store_to_tile(store)
        batch = matrix_tile(X, SPEC.bw, ALL, ALL)
        assert tile.keys() == batch.keys()
        for key, want in batch.items():
            np.testing.assert_allclose(tile[key], want, rtol=0, atol=1e-9, err_msg=key)


class TestStoreAssembly:
    def test_store_to_tile_roundtrip(self, spark, X, tmp_path_factory):
        root = tmp_path_factory.mktemp("tile")
        store = SketchStore(str(root), bw=SPEC.bw)
        store.apply_batch(to_long_pdf(X))
        tile = store_to_tile(store)
        batch = matrix_tile(X, SPEC.bw, ALL, ALL)
        np.testing.assert_allclose(tile["means_i"], batch["means_i"], atol=1e-9)
        np.testing.assert_allclose(tile["stds_i"], batch["stds_i"], atol=1e-9)

    def test_save_load(self, X, tmp_path_factory):
        root = tmp_path_factory.mktemp("persist")
        store = SketchStore(str(root), bw=SPEC.bw)
        store.apply_batch(to_long_pdf(X))
        store.save()
        loaded = SketchStore(str(root), bw=SPEC.bw).load()
        pd.testing.assert_frame_equal(store.series_sketch(), loaded.series_sketch())
        pd.testing.assert_frame_equal(store.pair_sketch(), loaded.pair_sketch())

    def test_ragged_store_rejected(self, X, tmp_path_factory):
        root = tmp_path_factory.mktemp("ragged")
        store = SketchStore(str(root), bw=SPEC.bw)
        pdf = to_long_pdf(X[:4, :48])
        # series 0 alone for the first basic window, then every series
        # joins: series 0 has two basic windows, the others one
        store.apply_batch(pdf[(pdf["series_id"] == 0) & (pdf["t"] < 24)])
        store.apply_batch(pdf[pdf["t"] >= 24])
        with pytest.raises(ValueError, match="ragged: 5 rows != 4 series"):
            store_to_tile(store)

    def test_partial_basic_window_rejected(self, X, tmp_path_factory):
        # t < 30 with bw = 24: the second basic window holds 6 of 24
        # timesteps, so its statistics would stand in for a whole window
        store = SketchStore(str(tmp_path_factory.mktemp("partial")), bw=SPEC.bw)
        store.apply_batch(to_long_pdf(X[:, :30]))
        spec = SlidingSpec(start=0, end=48, window=48, step=24, beta=-1.0, bw=SPEC.bw)
        with pytest.raises(ValueError, match="series 0 has 6 timesteps in basic window 1"):
            query_dangoron(store, spec)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_value_rejected(self, X, tmp_path_factory, bad):
        store = SketchStore(str(tmp_path_factory.mktemp("nonfinite")), bw=SPEC.bw)
        pdf = to_long_pdf(X[:, :48])
        pdf.loc[(pdf["series_id"] == 3) & (pdf["t"] == 30), "value"] = bad
        with pytest.raises(ValueError, match="series 3 has a non-finite value .* at t=30"):
            store.apply_batch(pdf)
        # rejected before any fold: the store is still empty
        assert len(store.series_sketch()) == 0 and len(store.pair_sketch()) == 0

    def test_duplicate_row_rejected(self, X, tmp_path_factory):
        store = SketchStore(str(tmp_path_factory.mktemp("dup")), bw=SPEC.bw)
        pdf = to_long_pdf(X[:, :48])
        pdf = pd.concat([pdf, pdf[(pdf["series_id"] == 2) & (pdf["t"] == 5)]])
        with pytest.raises(ValueError, match="series 2 has more than one row at t=5"):
            store.apply_batch(pdf)
        # rejected before any fold: the store is still empty
        assert len(store.series_sketch()) == 0 and len(store.pair_sketch()) == 0

    def test_replayed_timestep_rejected(self, tmp_path_factory):
        # t in [30, 36) re-sent in place of the missing [24, 30): basic
        # window 1 would count 24 rows and the query would accept it
        X = np.random.default_rng(1).normal(size=(4, 48))
        pdf = to_long_pdf(X)
        store = SketchStore(str(tmp_path_factory.mktemp("replay")), bw=SPEC.bw)
        store.apply_batch(pdf[(pdf["t"] < 24) | (pdf["t"] >= 30)])
        store.save()
        replay = pdf[(pdf["t"] >= 30) & (pdf["t"] < 36)]
        # the record of folded timesteps survives a save and load
        for s in (store, SketchStore(store.path, bw=SPEC.bw).load()):
            before = [a.copy() for a in (s.cnt, s.s1, s.sxy, s.folded)]
            with pytest.raises(ValueError, match="t=30 is already folded into the store"):
                s.apply_batch(replay)
            for a, b in zip(before, (s.cnt, s.s1, s.sxy, s.folded)):
                np.testing.assert_array_equal(a, b)
        # the missing timesteps still complete the store
        store.apply_batch(pdf[(pdf["t"] >= 24) & (pdf["t"] < 30)])
        batch = matrix_tile(X, SPEC.bw, ALL, ALL)
        tile = store_to_tile(store)
        np.testing.assert_allclose(tile["means_i"], batch["means_i"], rtol=0, atol=1e-12)
        np.testing.assert_allclose(tile["stds_i"], batch["stds_i"], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("beta", [0.0, -1.0])
    def test_constant_series_gets_the_batch_edges(self, spark, tmp_path_factory, beta):
        # a constant basic window leaves one-pass variance residue; it
        # must not give the constant series (0) defined cells
        X = np.random.default_rng(5).normal(size=(4, L))
        X[0] = 1.1
        spec = SlidingSpec(start=0, end=L, window=96, step=24, beta=beta, bw=SPEC.bw)
        store = SketchStore(str(tmp_path_factory.mktemp("constant")), bw=spec.bw)
        store.apply_batch(to_long_pdf(X))
        h = build_sketch(spark, X, spec, block_size=2)
        try:
            want = tsubasa.query(h.df, spec).toPandas()
        finally:
            h.unpersist()
        got = jumping.sweep(store_to_tile(store), spec).frame()
        key = ["i", "j", "w"]
        want = want.sort_values(key).reset_index(drop=True)
        got = got.sort_values(key).reset_index(drop=True)
        assert not (want["i"] == 0).any()
        pd.testing.assert_frame_equal(got[key].astype("int64"), want[key].astype("int64"))
        np.testing.assert_allclose(got["corr"], want["corr"], rtol=0, atol=1e-9)

    def test_negative_timestep_rejected(self, X, tmp_path_factory):
        # a negative basic-window index would wrap onto the last window
        store = SketchStore(str(tmp_path_factory.mktemp("negative")), bw=SPEC.bw)
        pdf = to_long_pdf(X[:, :48])
        pdf["t"] -= 30
        with pytest.raises(ValueError, match="t=-30 is negative"):
            store.apply_batch(pdf)
        assert len(store.series_sketch()) == 0
