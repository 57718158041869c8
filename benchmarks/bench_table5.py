"""T5 benchmarks — streaming sketch maintenance, writes results/table5.txt."""
import tempfile

from repro import experiments
from repro.harness import save_table


def test_full_table5(benchmark, spark):
    def run():
        with tempfile.TemporaryDirectory() as workdir:
            rows, meta = experiments.run_table5(spark, workdir)
        text = experiments.table_text(5, rows, meta)
        save_table(text, "results/table5.txt")
        return rows, meta

    rows, meta = benchmark.pedantic(run, rounds=1, iterations=1)
    assert meta["store_matches"]
    # incremental update beats rebuilding the whole store
    assert meta["update_speedup_vs_rebuild"] > 1.5
