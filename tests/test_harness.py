"""Harness helpers: sketch handle, timing, table formatting."""
import os

import pytest

from repro.harness import build_sketch, format_table, save_table, timed_collect
from repro.sketch.pair_sketch import tile_layout
from repro.synth_data import ar1_matrix
from repro.tsio.validation import SlidingSpec


class TestFormatTable:
    def test_basic_layout(self):
        text = format_table(
            [{"engine": "dangoron", "s": 1.23456}, {"engine": "tsubasa", "s": 12.0}],
            title="T1",
        )
        lines = text.splitlines()
        assert lines[0] == "T1"
        assert "engine" in lines[1] and "s" in lines[1]
        assert "dangoron" in lines[3] and "1.235" in lines[3]

    def test_empty_rows(self):
        assert "(no rows)" in format_table([], title="T")

    def test_missing_keys_fill_blank(self):
        text = format_table([{"a": 1, "b": 2}, {"a": 3}])
        assert text.splitlines()[-1].startswith("3")

    def test_save_table(self, tmp_path):
        p = str(tmp_path / "sub" / "t.txt")
        save_table("hello", p)
        assert open(p).read() == "hello\n"


class TestBuildSketch:
    def test_handle_and_timing(self, spark):
        X = ar1_matrix(n=6, length=120, seed=0)
        spec = SlidingSpec(start=0, end=120, window=24, step=12, beta=0.5, bw=12)
        h = build_sketch(spark, X, spec, block_size=4)
        try:
            assert h.build_seconds > 0
            # blocks {0: 4 rows, 1: 2 rows}: block pairs (0,0),(0,1),(1,1),
            # cut into row bands when the host has more than three cores
            layout = tile_layout({0: 4, 1: 2}, spark.sparkContext.defaultParallelism)
            assert len(layout) >= 3
            assert h.df.count() == len(h.tile_bytes) == len(layout)
            assert h.df.rdd.getNumPartitions() == len(layout)
        finally:
            h.unpersist()

    def test_timed_collect(self, spark):
        df = spark.range(10).toDF("x")
        pdf, secs = timed_collect(df)
        assert len(pdf) == 10 and secs > 0
