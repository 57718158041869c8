"""Streaming maintenance of the basic-window sketch store.

The store keeps mergeable sums only:

- series store: (series_id, bw_id) → cnt, Σx, Σx²;
- pair store:   (i, j, bw_id)      → Σ x·y   (i < j).

Derived statistics (mean, std, per-bw covariance q) are computed at
query time from the sums, so any batching of the input rows yields the
same store — the tests check a streamed store against numpy sums. The
``foreachBatch`` upsert is the production idiom for merge-into-store
sinks (a Delta/JDBC MERGE in a real deployment; local parquet here).
"""
from __future__ import annotations

import os
import uuid

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.tsio.matrix import LONG_SCHEMA


class SketchStore:
    """Mergeable basic-window sketch sums, persisted as parquet."""

    def __init__(self, path: str, bw: int):
        self.path = path
        self.bw = bw
        os.makedirs(path, exist_ok=True)
        self._series = pd.DataFrame(
            columns=["series_id", "bw_id", "cnt", "s1", "s2"]
        ).astype({"series_id": "int64", "bw_id": "int64", "cnt": "int64",
                  "s1": "float64", "s2": "float64"})
        self._pairs = pd.DataFrame(
            columns=["i", "j", "bw_id", "sxy"]
        ).astype({"i": "int64", "j": "int64", "bw_id": "int64", "sxy": "float64"})
        self.batches_applied = 0

    # -- ingestion ---------------------------------------------------------

    def apply_batch(self, pdf: pd.DataFrame) -> None:
        """Fold one micro-batch of long rows (series_id, t, value) in."""
        if len(pdf) == 0:
            return
        bad = ~np.isfinite(pdf["value"].to_numpy(dtype=np.float64))
        if bad.any():
            r = pdf[bad].sort_values(["series_id", "t"]).iloc[0]
            raise ValueError(
                f"series {int(r['series_id'])} has a non-finite value ({r['value']}) "
                f"at t={int(r['t'])}; fill or drop it before streaming"
            )
        pdf = pdf.copy()
        pdf["bw_id"] = pdf["t"] // self.bw
        # validate + fold pairs first so a rejected batch leaves the
        # series store untouched (no partial commit)
        self._apply_pair_batch(pdf)
        part = pdf.groupby(["series_id", "bw_id"], as_index=False).agg(
            cnt=("value", "size"),
            s1=("value", "sum"),
            s2=("value", lambda v: float((v * v).sum())),
        )
        self._series = (
            pd.concat([self._series, part], ignore_index=True)
            .groupby(["series_id", "bw_id"], as_index=False)[["cnt", "s1", "s2"]]
            .sum()
        )
        self.batches_applied += 1

    def _apply_pair_batch(self, pdf: pd.DataFrame) -> None:
        """Pairwise Σxy per basic window for the batch's timesteps.

        Requires the batch to carry complete timesteps (every series
        present for each t it contains) — the synchronized-series
        assumption; arrival order across batches is free.
        """
        wide = pdf.pivot_table(index="t", columns="series_id", values="value")
        known = set(self._series["series_id"].unique()) | set(wide.columns)
        if wide.isna().any().any() or len(wide.columns) != len(known):
            raise ValueError(
                "pair maintenance needs complete timesteps per batch; "
                "got a partial cross-section (a series is missing for some t)"
            )
        ids = wide.columns.to_numpy().astype(np.int64)
        t_idx = wide.index.to_numpy()
        bw_ids = np.unique(t_idx // self.bw)
        parts = []
        iu, ju = np.triu_indices(len(ids), k=1)
        for b in bw_ids:
            rows = wide.to_numpy()[(t_idx // self.bw) == b]
            sxy = rows.T @ rows
            parts.append(
                pd.DataFrame(
                    {
                        "i": ids[iu],
                        "j": ids[ju],
                        "bw_id": np.int64(b),
                        "sxy": sxy[iu, ju],
                    }
                )
            )
        self._pairs = (
            pd.concat([self._pairs, *parts], ignore_index=True)
            .groupby(["i", "j", "bw_id"], as_index=False)[["sxy"]]
            .sum()
        )

    # -- derived views -----------------------------------------------------

    def series_sketch(self) -> pd.DataFrame:
        """(series_id, bw_id, cnt, s1, s2), one row per series and basic window."""
        return self._series.sort_values(["series_id", "bw_id"]).reset_index(drop=True)

    def pair_sketch(self) -> pd.DataFrame:
        """(i, j, bw_id, q) with q the per-bw population covariance."""
        s = self._series.rename(columns={"series_id": "sid"})
        p = self._pairs.merge(
            s.rename(columns={"sid": "i", "cnt": "cnt_i", "s1": "s1_i", "s2": "s2_i"}),
            on=["i", "bw_id"],
        ).merge(
            s.rename(columns={"sid": "j", "cnt": "cnt_j", "s1": "s1_j", "s2": "s2_j"}),
            on=["j", "bw_id"],
        )
        cnt = p["cnt_i"]
        q = p["sxy"] / cnt - (p["s1_i"] / cnt) * (p["s1_j"] / cnt)
        out = p[["i", "j", "bw_id"]].copy()
        out["q"] = q
        return out.sort_values(["i", "j", "bw_id"]).reset_index(drop=True)

    # -- persistence -------------------------------------------------------

    def save(self) -> None:
        self._series.to_parquet(os.path.join(self.path, "series.parquet"))
        self._pairs.to_parquet(os.path.join(self.path, "pairs.parquet"))

    def load(self) -> "SketchStore":
        self._series = pd.read_parquet(os.path.join(self.path, "series.parquet"))
        self._pairs = pd.read_parquet(os.path.join(self.path, "pairs.parquet"))
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

