"""Pairwise basic-window covariance sketch.

``build_pair_sketch`` lays the sketch's tiles out on the driver from
the block bundles and computes each tile's pairwise bw-covariance
tensor with an einsum kernel, in one shuffle-free ``mapInPandas``
stage. The result — one binary payload per tile, one tile per Spark
partition — is what every query engine (TSUBASA, Dangoron, horizontal
pruning) consumes; building it is the shared "sketch build" phase that
pure query time excludes.
"""
from __future__ import annotations

import math
import pickle
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.sketch import kernels
from repro.sketch.blocks import load_bundle

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


def build_pair_sketch(spark: SparkSession, bundles: pd.DataFrame) -> DataFrame:
    """Block bundles held on the driver -> one sketch tile per partition.

    ``bundles`` has one (block_id, n, n_bw, payload) row per block
    (``blocks.pack_bundles``). Rejects blocks of unequal basic-window
    counts before any tile is built, lays out the tiles with
    ``tile_layout`` over ``defaultParallelism``, and builds them in one
    ``mapInPandas`` stage over ``spark.range(0, T, 1, T)``: partition t
    holds tile id t alone, so the stage needs no shuffle. Each task reads
    its tile's layout row and block bundles from the task closure, which
    PySpark ships as a broadcast once it passes 1 MiB; the bundles cross
    to the workers once, Θ(N·L) bytes.

    The payload holds everything Eq.-1 evaluation needs for the tile:
    global series ids and per-bw means/stds of its i rows and j columns,
    and the pairwise bw covariance tensor q (ni, nj, n_bw). The centred
    raw data is *not* carried forward — after this stage every engine
    works purely from sketch statistics, as the paper's framework
    prescribes.
    """
    n_bw = int(bundles["n_bw"].max()) if len(bundles) else 0
    short = bundles[bundles["n_bw"] != n_bw]
    if len(short):
        r = short.loc[short["block_id"].idxmin()]
        raise ValueError(
            f"block {r.block_id} has {r.n_bw} basic windows, other blocks have {n_bw}; "
            "every block must cover the same timesteps"
        )
    layout = tile_layout(
        dict(zip(bundles["block_id"].tolist(), bundles["n"].tolist())),
        spark.sparkContext.defaultParallelism,
    )
    payloads = dict(zip(bundles["block_id"].tolist(), bundles["payload"]))

    def build(it: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in it:
            out = []
            for tid in pdf["id"].tolist():
                _, bi, bj, lo, hi = layout[tid]
                diag = bi == bj
                ba = load_bundle(payloads[bi])
                bb = ba if diag else load_bundle(payloads[bj])
                band = slice(lo, hi)
                # a diagonal band pairs its rows only with later series
                cols = slice(lo if diag else 0, None)
                payload = pickle.dumps(
                    {
                        "ids_i": ba["ids"][band],
                        "ids_j": bb["ids"][cols],
                        "means_i": ba["means"][band],
                        "stds_i": ba["stds"][band],
                        "means_j": bb["means"][cols],
                        "stds_j": bb["stds"][cols],
                        "q": kernels.pair_bw_cov(ba["centred"][band], bb["centred"][cols]),
                        "diag": diag,
                    },
                    protocol=4,
                )
                out.append((tid, bi, bj, payload))
            yield pd.DataFrame(out, columns=["tid", "bi", "bj", "payload"])

    n_tiles = len(layout)
    tids = spark.range(0, n_tiles, 1, max(n_tiles, 1))
    return tids.mapInPandas(build, schema=PAIR_BLOCK_SCHEMA)


def build_pair_block_sketch(blocks_df: DataFrame) -> DataFrame:
    """``build_pair_sketch`` over a block-bundle DataFrame
    (``blocks.pack_blocks_from_matrix``), collected once to the driver."""
    return build_pair_sketch(blocks_df.sparkSession, blocks_df.toPandas())


def load_pair_payload(payload: bytes) -> dict:
    """Deserialize a sketch tile payload."""
    return pickle.loads(payload)


def pair_tile_arrays(tile: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten a tile into per-pair arrays, excluding self/duplicate pairs.

    Returns (pi, pj, rows) where pi/pj index into the tile's local
    series axes and rows selects the flattened (ni·nj) pair axis. For a
    diagonal tile (or a row band of one) only pairs with global
    ids_i < ids_j are kept; off-diagonal tiles keep the full cross
    product.
    """
    ni = len(tile["ids_i"])
    nj = len(tile["ids_j"])
    gi, gj = np.meshgrid(np.arange(ni), np.arange(nj), indexing="ij")
    pi, pj = gi.reshape(-1), gj.reshape(-1)
    if tile["diag"]:
        keep = tile["ids_i"][pi] < tile["ids_j"][pj]
        pi, pj = pi[keep], pj[keep]
    rows = pi * nj + pj
    return pi, pj, rows
