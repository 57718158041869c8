"""Pairwise basic-window covariance sketch.

``build_pair_sketch`` takes the dense matrix, lays the sketch's tiles
out on the driver over blocks of consecutive series and makes each with
``matrix_tile``, the one tile recipe, in one shuffle-free
``mapInPandas`` stage. The result — one binary payload per
tile, one tile per Spark partition — is what every query engine
(TSUBASA, Dangoron, horizontal pruning) consumes; building it is the
shared "sketch build" phase that pure query time excludes.

A tile's q, about 90% of its bytes, does not travel in the payload: the
build task writes it as an uncompressed ``.npy`` file into the sketch's
directory, and the payload is a small pickled manifest (the per-series
arrays, plus q's path, dtype, shape and file size). ``load_pair_payload``
maps the file read-only, so a query moves only the manifests through
the JVM, and the OS page cache shares q across workers and queries.
"""
from __future__ import annotations

import contextlib
import math
import os
import pickle
import tempfile
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.sketch import kernels

PAIR_BLOCK_SCHEMA = "tid long, bi long, bj long, payload binary"


def band_edges(row_pairs: np.ndarray, n_bands: int) -> np.ndarray:
    """Row boundaries that cut a tile's i axis into bands of near-equal pair count.

    ``row_pairs[r]`` is the number of pairs row r holds (nj for an
    off-diagonal tile, n − 1 − r for a diagonal one). Returns increasing
    boundaries [0, …, len(row_pairs)]: at most ``n_bands`` bands, each
    holding at least one pair. A tile without pairs gets no band.
    """
    cum = np.cumsum(row_pairs)
    if cum.size == 0 or cum[-1] == 0:
        return np.zeros(1, dtype=np.int64)
    last = int(np.flatnonzero(row_pairs)[-1])  # trailing rows with no pair join the last band
    targets = cum[-1] * np.arange(1, n_bands) / n_bands
    # cut before or after the row whose cumulative count first reaches
    # the target, whichever lands closer to it
    idx = np.searchsorted(cum, targets)
    below = cum[np.maximum(idx - 1, 0)]
    cuts = np.where((idx > 0) & (targets - below < cum[idx] - targets), idx, idx + 1)
    cuts = np.minimum(cuts, last)
    return np.unique(np.concatenate([[0], cuts, [len(row_pairs)]])).astype(np.int64)


def tile_layout(
    block_rows: dict[int, int], parallelism: int
) -> list[tuple[int, int, int, int, int]]:
    """The sketch's tiles as (tid, bi, bj, lo, hi), largest first.

    One tile per block pair bi ≤ bj, over rows [lo, hi) of block bi
    against block bj (on a diagonal tile, against rows lo… of the same
    block: a row pairs only with later series). With fewer block pairs
    than ``parallelism``, each block pair's i axis is cut into row bands
    (``band_edges``) so that the sketch has at least ``parallelism``
    tiles, as far as rows allow: a block pair gets bands in proportion
    to its pairs. Tiles are numbered by decreasing pair count, so Spark,
    which runs partitions in order, starts the largest tiles first.
    """
    blocks = sorted(block_rows)
    pairs = {}
    for a, bi in enumerate(blocks):
        ni = block_rows[bi]
        for bj in blocks[a:]:
            nj = block_rows[bj]
            pairs[bi, bj] = (
                np.arange(ni - 1, -1, -1) if bi == bj else np.full(ni, nj)
            ).astype(np.int64)
    total = sum(int(p.sum()) for p in pairs.values())
    split = total > 0 and len(pairs) < parallelism
    tiles = []
    for (bi, bj), row_pairs in pairs.items():
        n_bands = math.ceil(parallelism * int(row_pairs.sum()) / total) if split else 1
        edges = band_edges(row_pairs, n_bands)
        for lo, hi in zip(edges[:-1], edges[1:]):
            tiles.append((int(row_pairs[lo:hi].sum()), bi, bj, int(lo), int(hi)))
    tiles.sort(key=lambda t: (-t[0], t[1:]))
    return [(tid, *t[1:]) for tid, t in enumerate(tiles)]


def require_finite(X: np.ndarray) -> None:
    """Reject NaN and inf values, naming the first one's series and t.

    Either would silently turn every window it touches into an undefined
    cell and drop that window's edges.
    """
    finite = np.isfinite(X)
    if not finite.all():
        s, t = np.argwhere(~finite)[0]
        raise ValueError(
            f"series {int(s)} has a non-finite value ({X[s, t]}) at t={int(t)}; "
            "fill or drop it before building the sketch"
        )


def new_sketch_dir(spark: SparkSession) -> str:
    """A fresh, empty directory for one sketch's tile files.

    It is made inside the directory PySpark creates for the context
    under ``spark.local.dir`` (``SparkContext._temp_dir``, a private
    name: PySpark keeps its own broadcast files there, and the JVM
    registered it with its shutdown hook, which removes it when the JVM
    exits). So a sketch that no handle releases is removed with its
    session, and nothing is left in the temp directory.
    """
    return tempfile.mkdtemp(prefix="pair-sketch-", dir=spark.sparkContext._temp_dir)


def tile_path(directory: str, tid: int) -> str:
    """The file that holds tile ``tid``'s q."""
    return os.path.join(directory, f"tile-{tid}.npy")


def write_tile_q(directory: str, tid: int, q: np.ndarray) -> int:
    """Write q to the tile's file and return the file's size in bytes.

    The bytes go to a temporary name in the same directory, which then
    replaces the tile's file, so a reader never maps a partial file and a
    recomputed partition swaps in the same bytes. A removed directory is
    never made again: a sketch that was released cannot be rebuilt.
    """
    try:
        fd, tmp = tempfile.mkstemp(prefix=f".tile-{tid}-", dir=directory)
    except FileNotFoundError:
        raise FileNotFoundError(
            f"sketch directory {directory} is gone: the sketch was released "
            "(unpersist) and its tiles are not rebuilt"
        ) from None
    try:
        with os.fdopen(fd, "wb") as fh:
            np.save(fh, q)
            size = fh.tell()
        os.replace(tmp, tile_path(directory, tid))
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    return size


def matrix_tile(X: np.ndarray, bw: int, rows: slice, cols: slice) -> dict:
    """The sketch tile of series ``rows`` against series ``cols`` of X.

    The one tile recipe, for the build's tasks and the tests: bw, each
    side's global ids, per-bw means and population stds, and the pairwise
    bw covariances q (ni, nj, n_bw) of the two sides' bw-centred rows.

    Each series' means are centred on its first basic-window mean. Eq. 1
    and the window variances are shift-invariant, but their sums of
    squared means cancel when a series sits far from 0: with raw means,
    adding 1e7 to a climate-like panel moved correlations by up to
    7.9e-2. Centring leaves q and the stds as they are and bounds that
    error by the rounding of the input itself.
    """
    ids = np.arange(X.shape[0], dtype=np.int64)
    tile = {"bw": bw, "ids_i": ids[rows], "ids_j": ids[cols]}
    for side, sel in (("i", rows), ("j", cols)):
        means, stds = kernels.bw_means_stds(X[sel], bw)
        tile[f"means_{side}"], tile[f"stds_{side}"] = means - means[:, :1], stds
    xc_i, xc_j = (kernels.bw_centered(X[sel], bw) for sel in (rows, cols))
    return tile | {"q": kernels.pair_bw_cov(xc_i, xc_j)}


def build_pair_sketch(
    spark: SparkSession,
    X: np.ndarray,
    bw: int,
    block_size: int,
    directory: str,
) -> DataFrame:
    """The dense (N, L) matrix -> one sketch tile per partition.

    Rejects a non-finite value (``require_finite``), lays out the tiles
    with ``tile_layout`` over blocks of ``block_size`` consecutive
    series and ``defaultParallelism``, and builds them in one
    ``mapInPandas`` stage over ``spark.range(0, T, 1, T)``: partition t
    holds tile id t alone, so the stage needs no shuffle. X travels in
    the task closure, which PySpark ships as a broadcast once it passes
    1 MiB: it crosses to the workers once, Θ(N·L) bytes. Each task makes
    its tile with ``matrix_tile`` from its global rows and columns of X.

    The tile holds everything Eq.-1 evaluation needs: its basic-window
    size, global series ids and per-bw means/stds of its i rows and j
    columns, which the payload carries, and the pairwise bw covariance
    tensor q (ni, nj, n_bw), which the task writes to
    ``tile_path(directory, tid)`` (``write_tile_q``); the payload names
    that file. ``directory`` must exist and is owned by the caller
    (``harness.build_sketch`` hands its handle's, the traced shim one
    from ``new_sketch_dir``). The raw data is *not* carried forward —
    after this stage every engine works purely from sketch statistics,
    as the paper's framework prescribes.
    """
    require_finite(X)
    n = X.shape[0]
    layout = tile_layout(
        {b: min(block_size, n - lo) for b, lo in enumerate(range(0, n, block_size))},
        spark.sparkContext.defaultParallelism,
    )

    def build(it: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in it:
            out = []
            for tid in pdf["id"].tolist():
                _, bi, bj, lo, hi = layout[tid]
                rows = slice(bi * block_size + lo, bi * block_size + hi)
                # a diagonal band pairs its rows only with later series
                first = rows.start if bi == bj else bj * block_size
                cols = slice(first, min((bj + 1) * block_size, n))
                tile = matrix_tile(X, bw, rows, cols)
                q = tile.pop("q")
                payload = pickle.dumps(
                    tile | {
                        "tid": tid,
                        "q_path": tile_path(directory, tid),
                        "q_dtype": q.dtype,
                        "q_shape": q.shape,
                        "q_bytes": write_tile_q(directory, tid, q),
                    },
                    protocol=4,
                )
                out.append((tid, bi, bj, payload))
            yield pd.DataFrame(out, columns=["tid", "bi", "bj", "payload"])

    n_tiles = len(layout)
    tids = spark.range(0, n_tiles, 1, max(n_tiles, 1))
    return tids.mapInPandas(build, schema=PAIR_BLOCK_SCHEMA)


def build_pair_block_sketch(blocks_df: DataFrame) -> DataFrame:
    """``build_pair_sketch`` over the raw row blocks of
    ``blocks.pack_blocks_from_matrix``, collected once to the driver and
    stacked back into the matrix. The blocks' n_bw gives bw, since the
    packer checked that bw divides the series length. No handle owns
    this sketch, so its tile files stay until the session's JVM exits."""
    pdf = blocks_df.toPandas().sort_values("block_id")
    X = np.concatenate([pickle.loads(p) for p in pdf["payload"]])
    bw = X.shape[1] // int(pdf["n_bw"].iloc[0])
    spark = blocks_df.sparkSession
    return build_pair_sketch(spark, X, bw, int(pdf["n"].max()), new_sketch_dir(spark))


def load_pair_payload(payload: bytes) -> dict:
    """The tile a payload names: its per-series arrays, and q mapped
    read-only from the tile's file.

    The file must match the manifest in size, dtype and shape; a missing
    or disagreeing file raises a ``ValueError`` that names the tile id
    and the path, so a damaged sketch never yields edges. q is a plain
    read-only ndarray over the mapping: a kernel that writes into it
    raises.
    """
    tile = pickle.loads(payload)
    tid, path = tile.pop("tid"), tile.pop("q_path")
    dtype, shape, size = tile.pop("q_dtype"), tile.pop("q_shape"), tile.pop("q_bytes")
    try:
        found = os.path.getsize(path)
        q = np.load(path, mmap_mode="r") if found == size else None
    except (OSError, ValueError, EOFError) as e:
        raise ValueError(f"sketch tile {tid}: cannot map q from {path}: {e}") from None
    if q is None or q.dtype != dtype or q.shape != shape:
        held = f"{found} bytes" if q is None else f"{q.dtype} {q.shape}"
        raise ValueError(
            f"sketch tile {tid}: q file {path} holds {held}, but the manifest "
            f"says {dtype} {shape} in {size} bytes"
        )
    # a base-class view: the kernels' arithmetic skips np.memmap's hooks
    tile["q"] = np.asarray(q)
    return tile


def pair_tile_arrays(tile: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten a tile into per-pair arrays, excluding self/duplicate pairs.

    Returns (pi, pj, rows) where pi/pj index into the tile's local
    series axes and rows selects the flattened (ni·nj) pair axis. Only
    pairs with global ids_i < ids_j are kept, in row-major order: all of
    an off-diagonal tile's (the build makes no tile with bi > bj), the
    upper triangle of a diagonal one or of its row band.
    """
    pi, pj = np.nonzero(tile["ids_i"][:, None] < tile["ids_j"][None, :])
    return pi, pj, pi * len(tile["ids_j"]) + pj
