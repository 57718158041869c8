"""The pair-sketch build against the numpy kernels.

Long-form input reaches the sketch as a matrix read by
``tsio.matrix.from_long_pdf``; the tests here hold that path to the
matrix path and to numpy. Tiles are loaded while the handle that owns
their files is alive; ``TestTileFiles`` pins the files' lifecycle."""
import os
import pickle
import re
from contextlib import contextmanager

import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.core import dangoron
from repro.harness import build_sketch
from repro.sketch import kernels
from repro.sketch.blocks import pack_blocks_from_matrix
from repro.sketch.pair_sketch import (
    band_edges,
    build_pair_block_sketch,
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


@contextmanager
def built_tiles(spark, X, block_size):
    """The built sketch's (tid, bi, bj, tile) rows in tile order, loaded
    and used while the handle that owns the tile files is alive."""
    h = build_sketch(spark, X, SPEC, block_size)
    try:
        pdf = h.df.toPandas().sort_values("tid")
        yield [
            (r.tid, r.bi, r.bj, load_pair_payload(r.payload))
            for r in pdf.itertuples(index=False)
        ]
    finally:
        h.unpersist()


@contextmanager
def long_tiles(spark, long_df, block_size):
    """The tiles of the sketch built from the long form read into a matrix."""
    with built_tiles(spark, from_long_pdf(long_df.toPandas()), block_size) as rows:
        yield [t for *_, t in rows]


class TestSeriesSketch:
    """Per-series basic-window statistics in the tiles of the long-form path."""

    def test_matches_numpy(self, spark, long_df, X):
        # the means are centred on each series' first basic-window mean
        means, stds = kernels.bw_means_stds(X, SPEC.bw)
        means = means - means[:, :1]
        seen = set()
        with long_tiles(spark, long_df, 3) as tiles:
            for t in tiles:
                for side in ("i", "j"):
                    ids = t[f"ids_{side}"]
                    np.testing.assert_allclose(t[f"means_{side}"], means[ids], atol=1e-9)
                    np.testing.assert_allclose(t[f"stds_{side}"], stds[ids], atol=1e-9)
                    seen.update(ids.tolist())
        assert seen == set(range(N))

    def test_counts_full(self, spark, long_df):
        with long_tiles(spark, long_df, 3) as tiles:
            for t in tiles:
                assert t["means_i"].shape == (len(t["ids_i"]), L // SPEC.bw)
                assert t["stds_j"].shape == (len(t["ids_j"]), L // SPEC.bw)


class TestBadInputRejected:
    """Holes, duplicate rows and non-finite values fail before any tile is built."""

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
            build_sketch(spark, bad, SPEC, block_size=3)

    def test_nan_from_long(self, long_df):
        value = F.when(
            (F.col("series_id") == 6) & (F.col("t") == 60), F.lit(float("nan"))
        ).otherwise(F.col("value"))
        bad = long_df.withColumn("value", value)
        with pytest.raises(ValueError, match="series 6 has a non-finite value"):
            from_long_pdf(bad.toPandas())

    def test_block_shorter_than_query(self, spark, X):
        # the matrix lacks the query's last basic window
        with pytest.raises(ValueError, match="exceeds series length 108"):
            build_sketch(spark, X[:, :108], SPEC, block_size=3)


class TestBlockPacking:
    def test_matrix_and_long_paths_agree(self, spark, long_df, X):
        # the long rows read into a matrix give the matrix path's tiles:
        # every loaded value (arrays, and the scalar bw) equal in dtype,
        # shape and bytes
        Xl = from_long_pdf(long_df.toPandas())
        for block_size in BLOCK_SIZES:
            with built_tiles(spark, X, block_size) as a, built_tiles(spark, Xl, block_size) as b:
                assert len(a) == len(b) > 0
                for (*key_a, ta), (*key_b, tb) in zip(a, b):
                    assert key_a == key_b
                    assert list(ta) == list(tb)
                    for k in ta:
                        va, vb = np.asarray(ta[k]), np.asarray(tb[k])
                        assert va.dtype == vb.dtype, k
                        assert va.shape == vb.shape, k
                        assert va.tobytes() == vb.tobytes(), k

    def test_bundle_contents(self, spark, X):
        # the traced setup's blocks are X's raw rows, block_size at a time
        pdf = pack_blocks_from_matrix(spark, X, SPEC, block_size=4).toPandas()
        pdf = pdf.sort_values("block_id")
        assert pdf["n"].tolist() == [4, 3]
        assert (pdf["n_bw"] == L // SPEC.bw).all()
        blocks = [pickle.loads(p) for p in pdf["payload"]]
        np.testing.assert_array_equal(np.concatenate(blocks), X)


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
        with built_tiles(spark, Xl, 3) as rows:
            for *_, t in rows:
                ii = t["ids_i"][:, None]
                jj = t["ids_j"][None, :]
                np.testing.assert_allclose(t["q"], qfull[ii, jj, :], atol=1e-10)
                pairs += len(pair_tile_arrays(t)[0])
        assert pairs == N * (N - 1) // 2


def sketch_dirs(spark) -> list[str]:
    """The pair-sketch directories in the session's temporary directory."""
    return sorted(
        d for d in os.listdir(spark.sparkContext._temp_dir) if d.startswith("pair-sketch-")
    )


class TestTileFiles:
    """Each tile's q lives in a file of the sketch's directory: the handle
    owns it, and a missing or damaged file fails loudly."""

    def test_unpersist_leaves_no_file(self, spark, X):
        before = sketch_dirs(spark)
        h = build_sketch(spark, X, SPEC, block_size=3)
        files = sorted(os.listdir(h.directory))
        assert files == sorted(f"tile-{t}.npy" for t in h.tile_bytes["tid"])
        sizes = [os.path.getsize(os.path.join(h.directory, f"tile-{t}.npy"))
                 for t in h.tile_bytes["tid"]]
        assert h.tile_bytes["file_bytes"].tolist() == sizes
        assert (h.tile_bytes["manifest_bytes"] > 0).all()
        assert sketch_dirs(spark) == sorted([*before, os.path.basename(h.directory)])
        h.unpersist()
        assert not os.path.exists(h.directory)
        assert sketch_dirs(spark) == before

    def test_stale_query_raises(self, spark, X):
        h = build_sketch(spark, X, SPEC, block_size=3)
        h.unpersist()
        before = sketch_dirs(spark)
        with pytest.raises(Exception, match="sketch directory .* is gone"):
            dangoron.query(h.df, SPEC).toPandas()
        assert not os.path.exists(h.directory)
        assert sketch_dirs(spark) == before

    @pytest.mark.parametrize("damage", ["deleted", "truncated", "reshaped", "retyped"])
    def test_bad_file_raises(self, spark, X, damage):
        h = build_sketch(spark, X, SPEC, block_size=3)
        try:
            row = h.df.where("tid = 1").first()
            path = os.path.join(h.directory, "tile-1.npy")
            q = np.load(path)
            if damage == "deleted":
                os.remove(path)
            elif damage == "truncated":
                os.truncate(path, os.path.getsize(path) - 8)
            elif damage == "reshaped":
                np.save(path, q.reshape(-1, q.shape[-1]))
            else:
                np.save(path, q.view(np.int64))
            pattern = rf"sketch tile 1: .*{re.escape(path)}"
            with pytest.raises(ValueError, match=pattern):
                load_pair_payload(row.payload)
            # a query fails rather than yield the other tiles' edges
            with pytest.raises(Exception, match=pattern):
                dangoron.query(h.df, SPEC).toPandas()
        finally:
            h.unpersist()

    def test_loaded_q_is_read_only(self, spark, X):
        h = build_sketch(spark, X, SPEC, block_size=3)
        try:
            tile = load_pair_payload(h.df.first().payload)
            with pytest.raises(ValueError, match="read-only"):
                tile["q"][0, 0, 0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                np.add(tile["q"], 1.0, out=tile["q"])
        finally:
            h.unpersist()
