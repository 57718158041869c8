"""Serving sliding correlation queries from the streaming sketch store.

The store's mergeable sums are held in the tile's own layout, so a few
array operations turn them into one in-memory tile in the format of
``pair_sketch.matrix_tile`` (the structure the block-pair engines
consume). Both the exact evaluator and Dangoron's frontier run
unchanged on streamed state — construction *and* updates share one
query path.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.jumping import frontier_query
from repro.streaming.sketch_stream import SketchStore
from repro.tsio.validation import SlidingSpec


def store_to_tile(store: SketchStore) -> dict:
    """Assemble the store into a single (diagonal) sketch tile.

    Its means are centred as ``pair_sketch.matrix_tile`` centres them; q
    and the stds still come from raw one-pass sums, which cancel when a
    series sits far from 0.

    Requires a dense store: every series has every basic window and each
    basic window is full (``bw`` timesteps); the pair sums then cover
    all i < j (guaranteed when ingestion saw complete timesteps). Raises
    if the store has holes or a partially filled basic window, whose
    statistics would stand in for the whole window.
    """
    ids, cnt, s1, sxy = store.sorted_sums()
    has = cnt > 0
    rows, n, nb = int(has.sum()), len(ids), int(has.any(axis=0).sum())
    if rows != n * nb:
        raise ValueError(
            f"sketch store is ragged: {rows} rows != {n} series × {nb} bws"
        )
    if nb != cnt.shape[1]:
        raise ValueError("store must cover contiguous basic windows from 0")
    short = np.argwhere(cnt != store.bw)
    if len(short):
        k, b = short[0]
        raise ValueError(
            f"series {ids[k]} has {cnt[k, b]} timesteps in basic window {b}, "
            f"expected {store.bw}; query only full basic windows"
        )
    means = s1 / cnt
    q = sxy / cnt[:, None, :] - means[:, None, :] * means[None, :, :]
    d = np.arange(n)
    ex2 = sxy[d, d] / cnt
    var = ex2 - means * means
    # One-pass variance cancels: a constant basic window leaves rounding
    # residue of a few ε·E[x²] instead of 0, which would give a constant
    # series a std and defined correlations. At or below that floor the
    # variance is zero, as the batch sketch's two-pass std makes it.
    var = np.where(var > 64 * np.finfo(np.float64).eps * ex2, var, 0.0)
    q[d, d] = var
    stds = np.sqrt(var)
    centred = means - means[:, :1]
    return {"bw": store.bw, "ids_i": ids, "ids_j": ids, "means_i": centred,
            "stds_i": stds, "means_j": centred, "stds_j": stds, "q": q}


def query_dangoron(
    store: SketchStore, spec: SlidingSpec, mode: str = "exact-ci"
) -> pd.DataFrame:
    """Dangoron over the streamed store; returns the (i, j, w, corr) edges."""
    return frontier_query(store_to_tile(store), spec, mode).frame()
