"""Serving sliding correlation queries from the streaming sketch store.

The store's mergeable sums are assembled into one in-memory tile (the
same structure the block-pair engines consume), so both the exact
evaluator and Dangoron's frontier run unchanged on streamed state —
construction *and* updates share one query path.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.jumping import frontier_query
from repro.streaming.sketch_stream import SketchStore
from repro.tsio.validation import SlidingSpec


def store_to_tile(store: SketchStore) -> dict:
    """Assemble the store into a single (diagonal) sketch tile.

    Requires a dense store: every series has every basic window, each
    basic window is full (``bw`` timesteps) and the pair store covers
    all i < j (guaranteed when ingestion saw complete timesteps). Raises
    if the store has holes or a partially filled basic window, whose
    statistics would stand in for the whole window.
    """
    s = store.series_sketch()
    ids = np.sort(s["series_id"].unique()).astype(np.int64)
    bws = np.sort(s["bw_id"].unique()).astype(np.int64)
    n, nb = len(ids), len(bws)
    if len(s) != n * nb:
        raise ValueError(
            f"sketch store is ragged: {len(s)} rows != {n} series × {nb} bws"
        )
    if not np.array_equal(bws, np.arange(nb)):
        raise ValueError("store must cover contiguous basic windows from 0")
    cnt = s["cnt"].to_numpy().reshape(n, nb)
    short = np.argwhere(cnt != store.bw)
    if len(short):
        k, b = short[0]
        raise ValueError(
            f"series {ids[k]} has {cnt[k, b]} timesteps in basic window {bws[b]}, "
            f"expected {store.bw}; query only full basic windows"
        )
    s1 = s["s1"].to_numpy().reshape(n, nb)
    s2 = s["s2"].to_numpy().reshape(n, nb)
    means = s1 / cnt
    var = np.clip(s2 / cnt - means * means, 0.0, None)
    stds = np.sqrt(var)

    p = store.pair_sketch()
    q = np.zeros((n, n, nb))
    pos = {int(g): k for k, g in enumerate(ids)}
    li = p["i"].map(pos).to_numpy()
    lj = p["j"].map(pos).to_numpy()
    lb = p["bw_id"].to_numpy()
    q[li, lj, lb] = p["q"].to_numpy()
    q[lj, li, lb] = p["q"].to_numpy()
    q[np.arange(n)[:, None], np.arange(n)[:, None], np.arange(nb)[None, :]] = var
    return {
        "ids_i": ids,
        "ids_j": ids,
        "means_i": means,
        "stds_i": stds,
        "means_j": means,
        "stds_j": stds,
        "q": q,
        "diag": True,
    }


def query_dangoron(
    store: SketchStore, spec: SlidingSpec, mode: str = "exact-ci"
) -> pd.DataFrame:
    """Dangoron over the streamed store; returns the (i, j, w, corr) edges."""
    return frontier_query(store_to_tile(store), spec, mode).frame()
