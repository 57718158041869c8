"""Block packing and the pair-sketch build against the numpy kernels.

Long-form input reaches the sketch as a matrix read by
``tsio.matrix.from_long_pdf``; the tests here hold that path to the
matrix path and to numpy."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.harness import build_sketch
from repro.sketch import kernels
from repro.sketch.blocks import load_bundle, pack_blocks_from_matrix, pack_bundles
from repro.sketch.pair_sketch import (
    band_edges,
    build_pair_block_sketch,
    build_pair_sketch,
    load_pair_payload,
    pair_tile_arrays,
    tile_layout,
)
from repro.synth_data import ar1_matrix
from repro.tsio.matrix import from_long_pdf, to_long_df
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


def long_bundles(long_df, block_size):
    """Block bundles packed from the long form read into a matrix."""
    return pack_bundles(from_long_pdf(long_df.toPandas()), SPEC, block_size)


def sketch_payloads(spark, X, block_size):
    """The built sketch's (tid, bi, bj, payload) rows, in tile order."""
    h = build_sketch(spark, X, SPEC, block_size)
    try:
        return h.df.toPandas().sort_values("tid").reset_index(drop=True)
    finally:
        h.unpersist()


class TestSeriesSketch:
    """Per-series basic-window statistics of the long-form path."""

    def test_matches_numpy(self, long_df, X):
        means, stds = kernels.bw_means_stds(X, SPEC.bw)
        seen = 0
        for payload in long_bundles(long_df, 3)["payload"]:
            b = load_bundle(payload)
            np.testing.assert_allclose(b["means"], means[b["ids"]], atol=1e-9)
            np.testing.assert_allclose(b["stds"], stds[b["ids"]], atol=1e-9)
            seen += len(b["ids"])
        assert seen == N

    def test_counts_full(self, long_df):
        pdf = long_bundles(long_df, 3)
        assert pdf["n"].sum() == N
        assert (pdf["n_bw"] == L // SPEC.bw).all()
        for payload in pdf["payload"]:
            assert load_bundle(payload)["means"].shape[1] == L // SPEC.bw


class TestBadInputRejected:
    """Holes, duplicate rows and non-finite values fail before any bundle is built."""

    def test_dropped_row(self, long_df):
        holed = long_df.where(~((F.col("series_id") == 4) & (F.col("t") == 50)))
        with pytest.raises(ValueError, match="series 4 has 119 of 120 timesteps"):
            from_long_pdf(holed.toPandas())

    def test_duplicated_row(self, long_df):
        dup = long_df.unionByName(
            long_df.where((F.col("series_id") == 5) & (F.col("t") == 7))
        )
        with pytest.raises(ValueError, match="series 5 has more than one row at t=7"):
            from_long_pdf(dup.toPandas())

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
        with pytest.raises(ValueError, match="series 6 has a non-finite value"):
            from_long_pdf(bad.toPandas())

    def test_block_shorter_than_query(self, X):
        # the matrix lacks the query's last basic window
        with pytest.raises(ValueError, match="exceeds series length 108"):
            pack_bundles(X[:, :108], SPEC, block_size=3)

    def test_unequal_bundles_rejected_by_pair_build(self, spark, X):
        # each frame fits a shorter query, so packing accepts it; the
        # pair build must still refuse to pair bundles of unequal length
        spec = SlidingSpec(start=0, end=96, window=24, step=12, beta=0.5, bw=12)
        full = pack_bundles(X, spec, block_size=3)
        short = pack_bundles(X[:, :108], spec, block_size=3)
        bundles = pd.concat([full.iloc[:2], short.iloc[2:]], ignore_index=True)
        with pytest.raises(ValueError, match="block 2 has 9 basic windows, other blocks have 10"):
            build_pair_sketch(spark, bundles)


class TestBlockPacking:
    def test_matrix_and_long_paths_agree(self, spark, long_df, X):
        # the long rows read into a matrix give the matrix path's bundles
        # and tile payloads byte for byte
        Xl = from_long_pdf(long_df.toPandas())
        for block_size in BLOCK_SIZES:
            a = pack_bundles(X, SPEC, block_size)
            b = pack_bundles(Xl, SPEC, block_size)
            pd.testing.assert_frame_equal(a, b)
            a = sketch_payloads(spark, X, block_size)
            b = sketch_payloads(spark, Xl, block_size)
            pd.testing.assert_frame_equal(a, b)
            assert len(a) > 0

    def test_bundle_contents(self, spark, X):
        pdf = pack_blocks_from_matrix(spark, X, SPEC, block_size=4).toPandas()
        assert pdf["n"].sum() == N
        b0 = load_bundle(pdf.sort_values("block_id")["payload"].iloc[0])
        means, _ = kernels.bw_means_stds(X[:4], SPEC.bw)
        np.testing.assert_allclose(b0["means"], means, atol=1e-12)


# Block sizes of the sketches the pair-sketch tests run over. One block
# of all N rows is a single block pair, so it is cut into row bands on
# any host with more than one core. The layouts are looped over inside
# each test, which keeps the tests' ids.
BLOCK_SIZES = (3, 4, N)


def sketch_tiles(spark, X, block_size):
    blocks = pack_blocks_from_matrix(spark, X, SPEC, block_size=block_size)
    return build_pair_block_sketch(blocks).toPandas()


class TestPairBlockSketch:
    def test_tiles_cover_all_pairs_once(self, spark, X):
        for block_size in BLOCK_SIZES:
            seen = set()
            for _, row in sketch_tiles(spark, X, block_size).iterrows():
                t = load_pair_payload(row["payload"])
                pi, pj, _ = pair_tile_arrays(t)
                for key in zip(t["ids_i"][pi], t["ids_j"][pj]):
                    assert key[0] < key[1]
                    assert key not in seen, f"pair {key} appears in two tiles"
                    seen.add(key)
            assert len(seen) == N * (N - 1) // 2, block_size

    def test_q_matches_numpy(self, spark, X):
        xc = kernels.bw_centered(X, SPEC.bw)
        qfull = kernels.pair_bw_cov(xc, xc)
        for block_size in BLOCK_SIZES:
            for _, row in sketch_tiles(spark, X, block_size).iterrows():
                t = load_pair_payload(row["payload"])
                ii = t["ids_i"][:, None]
                jj = t["ids_j"][None, :]
                np.testing.assert_allclose(t["q"], qfull[ii, jj, :], atol=1e-10)

    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    def test_one_partition_per_tile(self, spark, X, block_size):
        blocks = pack_blocks_from_matrix(spark, X, SPEC, block_size=block_size)
        sketch = build_pair_block_sketch(blocks).cache()
        try:
            n_tiles = sketch.count()
            assert sketch.rdd.getNumPartitions() == n_tiles
            assert sketch.rdd.glom().map(len).collect() == [1] * n_tiles
            tids = [r.tid for r in sketch.select("tid").collect()]
            assert tids == list(range(n_tiles))
            # the build is one stage: no join, no range partitioning
            plan = sketch._jdf.queryExecution().executedPlan().toString()
            assert "Exchange" not in plan, plan
        finally:
            sketch.unpersist()

    def test_single_block_pair_is_banded(self, spark, X):
        tiles = sketch_tiles(spark, X, N)
        # a diagonal block of N rows has N − 1 rows that hold a pair
        assert len(tiles) >= min(spark.sparkContext.defaultParallelism, N - 1)
        assert (tiles["bi"] == 0).all() and (tiles["bj"] == 0).all()


class TestTileLayout:
    """The layout rule as pure functions of block sizes and core count."""

    @pytest.mark.parametrize("n_bands", [1, 2, 4, 7, 20])
    @pytest.mark.parametrize("n, diag", [(7, True), (128, True), (5, False), (64, False)])
    def test_band_edges(self, n, diag, n_bands):
        row_pairs = np.arange(n - 1, -1, -1) if diag else np.full(n, 9)
        edges = band_edges(row_pairs, n_bands)
        assert edges[0] == 0 and edges[-1] == n
        assert (np.diff(edges) > 0).all()
        sums = np.add.reduceat(row_pairs, edges[:-1])
        assert len(sums) <= n_bands and (sums > 0).all()
        if n >= 2 * n_bands:  # then one row never outweighs a band
            assert len(sums) == n_bands
            assert sums.max() - sums.min() <= 2 * row_pairs.max()

    def test_diagonal_bands_hold_equal_pair_counts(self):
        row_pairs = np.arange(127, -1, -1)
        edges = band_edges(row_pairs, 4)
        sums = np.add.reduceat(row_pairs, edges[:-1])
        assert sums.sum() == 128 * 127 // 2
        assert sums.max() - sums.min() < 127  # less than one row apart
        rows = np.diff(edges)
        assert rows[0] < rows[-1]  # the triangle's short rows come last

    def test_no_band_for_a_tile_without_pairs(self):
        assert band_edges(np.zeros(1, dtype=np.int64), 4).tolist() == [0]
        assert tile_layout({0: 1}, 4) == []

    @pytest.mark.parametrize("parallelism", [1, 3, 4, 16])
    def test_one_block_is_split_to_the_core_count(self, parallelism):
        layout = tile_layout({0: 40}, parallelism)
        assert len(layout) == parallelism
        rows = [(lo, hi) for _, _, _, lo, hi in sorted(layout, key=lambda t: t[3])]
        assert rows[0][0] == 0 and rows[-1][1] == 40
        assert all(a[1] == b[0] for a, b in zip(rows, rows[1:]))

    def test_enough_block_pairs_are_not_split(self):
        layout = tile_layout({b: 16 for b in range(4)}, 4)
        assert len(layout) == 10
        assert all((lo, hi) == (0, 16) for _, _, _, lo, hi in layout)

    def test_largest_tiles_first(self):
        sizes = {0: 16, 1: 16, 2: 5}
        layout = tile_layout(sizes, 8)
        assert [t[0] for t in layout] == list(range(len(layout)))

        def pairs(bi, bj, lo, hi):
            if bi == bj:
                return sum(sizes[bi] - 1 - r for r in range(lo, hi))
            return (hi - lo) * sizes[bj]

        counts = [pairs(*t[1:]) for t in layout]
        assert counts == sorted(counts, reverse=True)
        assert sum(counts) == 37 * 36 // 2


class TestPairSketchRows:
    def test_matches_numpy(self, spark, long_df, X):
        # the pair sketch built from the long form, not the matrix
        xc = kernels.bw_centered(X, SPEC.bw)
        qfull = kernels.pair_bw_cov(xc, xc)
        pairs = 0
        Xl = from_long_pdf(long_df.toPandas())
        for _, row in sketch_payloads(spark, Xl, 3).iterrows():
            t = load_pair_payload(row["payload"])
            ii = t["ids_i"][:, None]
            jj = t["ids_j"][None, :]
            np.testing.assert_allclose(t["q"], qfull[ii, jj, :], atol=1e-10)
            pairs += len(pair_tile_arrays(t)[0])
        assert pairs == N * (N - 1) // 2
