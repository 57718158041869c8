"""Sanity checks on the experiment configuration (no Spark needed)."""
import pytest

from repro import experiments
from repro.harness import format_table
from repro.tsio.validation import SlidingSpec


class TestConfigs:
    @pytest.mark.parametrize("beta", experiments.T1_BETAS)
    def test_t1_specs_valid(self, beta):
        spec = experiments.T1_SPEC(beta)
        assert isinstance(spec, SlidingSpec)
        spec.validate_against(experiments.T1_HOURS)
        assert spec.n_windows > 100  # enough windows for jumping to matter

    def test_t2_spec_valid(self):
        experiments.T2_SPEC.validate_against(experiments.T1_HOURS)

    def test_t3_spec_valid(self):
        experiments.T3_SPEC.validate_against(experiments.T3_LEN)
        names = {d for d, _ in experiments.T3_GRID}
        from repro.tomborg.distributions import DISTRIBUTIONS

        assert names <= set(DISTRIBUTIONS)
        alphas = {a for _, a in experiments.T3_GRID}
        assert 0.0 in alphas and max(alphas) > 0  # flat and concentrated

    @pytest.mark.parametrize("beta", experiments.T4_BETAS)
    def test_t4_specs_valid(self, beta):
        experiments.T4_SPEC(beta).validate_against(experiments.T1_HOURS)

    def test_t4_betas_ascending(self):
        assert list(experiments.T4_BETAS) == sorted(experiments.T4_BETAS)

    def test_t5_range_covers_append(self):
        total_h = (experiments.T5_INIT_DAYS + experiments.T5_APPEND_DAYS) * 24
        experiments.T5_SPEC.validate_against(total_h)

    def test_blocks_divide_sensibly(self):
        # block sizes must not exceed the series counts they tile
        assert experiments.T1_BLOCK <= experiments.T1_N_STATIONS * 4
        assert experiments.T2_BLOCK <= experiments.T2_N_STATIONS * 4
        assert experiments.T3_BLOCK <= experiments.T3_N


class TestTitles:
    """Jobs and benchmarks print the titles these f-strings always printed."""

    @pytest.mark.parametrize(
        "table, meta, title",
        [
            (
                1,
                {"n_series": 512, "n_pairs": 130816, "n_windows": 276,
                 "sketch_build_s": 11.436, "tiles": 10, "partitions": 10},
                "T1 — pure query time | series=512 pairs=130816 windows=276 "
                "sketch_build=11.44s tiles=10 partitions=10",
            ),
            (2, {"exact_edges": 1234, "beta": 0.7},
             "T2 — accuracy vs exact | beta=0.7 exact_edges=1234"),
            (3, {"n": 64, "len": 4096, "beta": 0.6},
             "T3 — Tomborg robustness | N=64 L=4096 beta=0.6"),
            (4, {"n_series": 128, "n_windows": 276},
             "T4 — pruning mechanics | series=128 windows=276"),
            (
                5,
                {"update_speedup_vs_rebuild": 12.345, "batches": 5, "store_matches": True},
                "T5 — sketch maintenance | update_speedup_vs_rebuild=12.3x "
                "micro_batches=5 store_matches=True",
            ),
        ],
    )
    def test_title_line(self, table, meta, title):
        rows = [{"engine": "x", "query_s": 1.0}]
        text = experiments.table_text(table, rows, meta)
        assert text.splitlines()[0] == title
        assert text == format_table(rows, title=title)
