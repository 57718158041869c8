"""Streaming maintenance of the basic-window sketch store.

The store keeps mergeable sums only, as dense arrays in the sketch
tile's own layout:

- ``ids`` (n,)            — series ids, in arrival order;
- ``cnt``, ``s1`` (n, n_bw) — count and Σx per series and basic window;
- ``sxy`` (n, n, n_bw)      — Σ x·y per pair and basic window; its
  diagonal is Σx²;
- ``folded`` (n_bw·bw,)    — which timesteps have been folded in.

A batch is folded in by addition, so any batching of the input rows
yields the same store — the tests check a streamed store against numpy
sums; ``folded`` lets each timestep be folded in only once. Derived
statistics (mean, std, per-bw covariance q) are computed at query time
from the sums. The ``foreachBatch`` upsert is the production idiom for
merge-into-store sinks (a Delta/JDBC MERGE in a real deployment; one
local ``.npz`` file here).
"""
from __future__ import annotations

import os
import uuid

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.tsio.matrix import LONG_SCHEMA, from_long_pdf


class SketchStore:
    """Mergeable basic-window sketch sums, persisted as one npz file."""

    def __init__(self, path: str, bw: int):
        self.path = path
        self.bw = bw
        os.makedirs(path, exist_ok=True)
        self.ids = np.zeros(0, dtype=np.int64)
        self.cnt = np.zeros((0, 0), dtype=np.int64)
        self.s1 = np.zeros((0, 0))
        self.sxy = np.zeros((0, 0, 0))
        self.folded = np.zeros(0, dtype=bool)
        self.batches_applied = 0

    # -- ingestion ---------------------------------------------------------

    def apply_batch(self, pdf: pd.DataFrame) -> None:
        """Fold one micro-batch of long rows (series_id, t, value) in.

        The batch must carry complete timesteps (every known series
        present for each t it contains) — the synchronized-series
        assumption; arrival order across batches is free. The batch is
        read by ``tsio.matrix.from_long_pdf`` over the known and new
        series ids and the batch's own timesteps, so a hole, a duplicate
        row, a negative id or t or a non-finite value is rejected and
        leaves the store untouched. So is a timestep already folded in
        by an earlier batch: a re-sent timestep would be summed twice,
        and where it stands in for one that never arrived, its basic
        window's count would still read full.
        """
        if len(pdf) == 0:
            return
        ts = np.unique(pdf["t"].to_numpy(dtype=np.int64))
        new = np.setdiff1d(pdf["series_id"].to_numpy(dtype=np.int64), self.ids)
        ids = np.concatenate([self.ids, new])
        X = from_long_pdf(pdf, ids=ids, ts=ts)
        again = ts[ts < self.folded.size]
        again = again[self.folded[again]]
        if again.size:
            raise ValueError(
                f"t={again[0]} is already folded into the store; "
                "each timestep may arrive once"
            )

        bws = ts // self.bw
        dn, db = len(new), max(0, int(bws[-1]) + 1 - self.cnt.shape[1])
        if dn or db:
            self.ids = ids
            self.cnt = np.pad(self.cnt, ((0, dn), (0, db)))
            self.s1 = np.pad(self.s1, ((0, dn), (0, db)))
            self.sxy = np.pad(self.sxy, ((0, dn), (0, dn), (0, db)))
            self.folded = np.pad(self.folded, (0, db * self.bw))
        ub, first = np.unique(bws, return_index=True)
        for b, cols in zip(ub, np.split(X, first[1:], axis=1)):
            self.cnt[:, b] += cols.shape[1]
            self.s1[:, b] += cols.sum(axis=1)
            self.sxy[:, :, b] += cols @ cols.T
        self.folded[ts] = True
        self.batches_applied += 1

    # -- derived views -----------------------------------------------------

    def sorted_sums(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(ids, cnt, s1, sxy) with the series ordered by id."""
        o = np.argsort(self.ids)
        return self.ids[o], self.cnt[o], self.s1[o], self.sxy[np.ix_(o, o)]

    def series_sketch(self) -> pd.DataFrame:
        """(series_id, bw_id, cnt, s1, s2), one row per series and basic window."""
        ids, cnt, s1, sxy = self.sorted_sums()
        k, b = np.nonzero(cnt)
        return pd.DataFrame({
            "series_id": ids[k],
            "bw_id": b.astype(np.int64),
            "cnt": cnt[k, b],
            "s1": s1[k, b],
            "s2": sxy[k, k, b],
        })

    def pair_sketch(self) -> pd.DataFrame:
        """(i, j, bw_id, q) with q the per-bw population covariance (i < j)."""
        ids, cnt, s1, sxy = self.sorted_sums()
        iu, ju = np.triu_indices(len(ids), k=1)
        p, b = np.nonzero((cnt[iu] > 0) & (cnt[ju] > 0))
        i, j = iu[p], ju[p]
        c = cnt[i, b]
        return pd.DataFrame({
            "i": ids[i],
            "j": ids[j],
            "bw_id": b.astype(np.int64),
            "q": sxy[i, j, b] / c - (s1[i, b] / c) * (s1[j, b] / c),
        })

    # -- persistence -------------------------------------------------------

    def save(self) -> None:
        np.savez(os.path.join(self.path, "store.npz"),
                 ids=self.ids, cnt=self.cnt, s1=self.s1, sxy=self.sxy,
                 folded=self.folded)

    def load(self) -> "SketchStore":
        with np.load(os.path.join(self.path, "store.npz")) as z:
            self.ids, self.cnt, self.s1, self.sxy, self.folded = (
                z["ids"], z["cnt"], z["s1"], z["sxy"], z["folded"]
            )
        return self


def run_stream(
    spark: SparkSession, input_dir: str, store: SketchStore
) -> None:
    """Drain ``input_dir`` (parquet files of long rows) into the store.

    File-source stream with ``availableNow`` trigger: processes every
    staged file in micro-batches, then stops — the standard way to test
    and to run catch-up ingestion with production streaming code paths.
    ``foreachBatch`` runs on the driver, where the store lives.
    """
    checkpoint = os.path.join(store.path, f"chk-{uuid.uuid4().hex[:8]}")
    stream = (
        spark.readStream.schema(LONG_SCHEMA)
        .option("maxFilesPerTrigger", 1)
        .parquet(input_dir)
    )
    q = (
        stream.writeStream.foreachBatch(
            lambda df, _bid: store.apply_batch(df.toPandas())
        )
        .option("checkpointLocation", checkpoint)
        .trigger(availableNow=True)
        .start()
    )
    q.awaitTermination()
