"""Catalyst sketch builders against the numpy kernels."""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.sketch import kernels
from repro.sketch.basic_window import build_series_sketch, with_mean_std
from repro.sketch.blocks import (
    load_bundle,
    pack_blocks_from_long,
    pack_blocks_from_matrix,
)
from repro.sketch.pair_sketch import (
    build_pair_block_sketch,
    build_pair_sketch_rows,
    load_pair_payload,
)
from repro.synth_data import ar1_matrix
from repro.tsio.matrix import to_long_df
from repro.tsio.validation import SlidingSpec

N, L = 7, 120
SPEC = SlidingSpec(start=0, end=L, window=24, step=12, beta=0.5, bw=12)


@pytest.fixture(scope="module")
def X():
    return ar1_matrix(n=N, length=L, seed=11)


@pytest.fixture(scope="module")
def long_df(spark, X):
    df = to_long_df(spark, X)
    df.cache().count()
    return df


class TestSeriesSketch:
    def test_matches_numpy(self, long_df, X):
        pdf = (
            with_mean_std(build_series_sketch(long_df, SPEC.bw))
            .toPandas()
            .sort_values(["series_id", "bw_id"])
        )
        means, stds = kernels.bw_means_stds(X, SPEC.bw)
        assert len(pdf) == N * (L // SPEC.bw)
        np.testing.assert_allclose(
            pdf["mean"].to_numpy().reshape(N, -1), means, atol=1e-9
        )
        np.testing.assert_allclose(
            pdf["std"].to_numpy().reshape(N, -1), stds, atol=1e-9
        )

    def test_counts_full(self, long_df):
        pdf = build_series_sketch(long_df, SPEC.bw).toPandas()
        assert (pdf["cnt"] == SPEC.bw).all()


class TestBadInputRejected:
    """Holes, duplicate rows and non-finite values fail packing loudly."""

    def test_dropped_row(self, long_df):
        holed = long_df.where(~((F.col("series_id") == 4) & (F.col("t") == 50)))
        with pytest.raises(Exception, match="series 4 has 119 of 120 timesteps"):
            pack_blocks_from_long(holed, SPEC, block_size=3).collect()

    def test_duplicated_row(self, long_df):
        dup = long_df.unionByName(
            long_df.where((F.col("series_id") == 5) & (F.col("t") == 7))
        )
        with pytest.raises(Exception, match="series 5 has more than one row at t=7"):
            pack_blocks_from_long(dup, SPEC, block_size=3).collect()

    def test_nan_from_matrix(self, spark, X):
        bad = X.copy()
        bad[2, 30] = np.nan
        with pytest.raises(ValueError, match="series 2 has a non-finite value"):
            pack_blocks_from_matrix(spark, bad, SPEC, block_size=3)

    def test_nan_from_long(self, long_df):
        value = F.when(
            (F.col("series_id") == 6) & (F.col("t") == 60), F.lit(float("nan"))
        ).otherwise(F.col("value"))
        bad = long_df.withColumn("value", value)
        with pytest.raises(Exception, match="series 6 has a non-finite value"):
            pack_blocks_from_long(bad, SPEC, block_size=3).collect()


class TestBlockPacking:
    def test_matrix_and_long_paths_agree(self, spark, long_df, X):
        a = pack_blocks_from_matrix(spark, X, SPEC, block_size=3).toPandas()
        b = pack_blocks_from_long(long_df, SPEC, block_size=3).toPandas()
        assert sorted(a["block_id"]) == sorted(b["block_id"])
        for blk in a["block_id"]:
            ba = load_bundle(a.set_index("block_id").loc[blk, "payload"])
            bb = load_bundle(b.set_index("block_id").loc[blk, "payload"])
            np.testing.assert_array_equal(ba["ids"], bb["ids"])
            np.testing.assert_allclose(ba["means"], bb["means"], atol=1e-12)
            np.testing.assert_allclose(ba["centred"], bb["centred"], atol=1e-12)

    def test_bundle_contents(self, spark, X):
        pdf = pack_blocks_from_matrix(spark, X, SPEC, block_size=4).toPandas()
        assert pdf["n"].sum() == N
        b0 = load_bundle(pdf.sort_values("block_id")["payload"].iloc[0])
        means, _ = kernels.bw_means_stds(X[:4], SPEC.bw)
        np.testing.assert_allclose(b0["means"], means, atol=1e-12)


class TestPairBlockSketch:
    def test_tiles_cover_all_pairs_once(self, spark, X):
        blocks = pack_blocks_from_matrix(spark, X, SPEC, block_size=3)
        tiles = build_pair_block_sketch(blocks).toPandas()
        seen = set()
        for _, row in tiles.iterrows():
            t = load_pair_payload(row["payload"])
            from repro.sketch.pair_sketch import pair_tile_arrays

            pi, pj, _ = pair_tile_arrays(t)
            for a, b in zip(t["ids_i"][pi], t["ids_j"][pj]):
                key = (min(a, b), max(a, b))
                assert key not in seen, f"pair {key} appears in two tiles"
                seen.add(key)
        assert len(seen) == N * (N - 1) // 2

    def test_q_matches_numpy(self, spark, X):
        blocks = pack_blocks_from_matrix(spark, X, SPEC, block_size=4)
        tiles = build_pair_block_sketch(blocks).toPandas()
        xc = kernels.bw_centered(X, SPEC.bw)
        qfull = kernels.pair_bw_cov(xc, xc)
        for _, row in tiles.iterrows():
            t = load_pair_payload(row["payload"])
            ii = t["ids_i"][:, None]
            jj = t["ids_j"][None, :]
            np.testing.assert_allclose(t["q"], qfull[ii, jj, :], atol=1e-10)


class TestPairSketchRows:
    def test_matches_numpy(self, long_df, X):
        pdf = build_pair_sketch_rows(long_df, SPEC).toPandas()
        xc = kernels.bw_centered(X, SPEC.bw)
        qfull = kernels.pair_bw_cov(xc, xc)
        assert len(pdf) == (N * (N - 1) // 2) * (L // SPEC.bw)
        for row in pdf.itertuples():
            assert row.q == pytest.approx(
                qfull[row.i, row.j, row.bw_id], abs=1e-9
            )
