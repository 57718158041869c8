"""T5 benchmarks — streaming sketch maintenance, writes results/table5.txt."""
from repro import experiments


def test_full_table5(benchmark, spark):
    rows, meta, _ = benchmark.pedantic(
        experiments.write_table, (spark, 5), rounds=1, iterations=1
    )
    assert meta["store_matches"]
    # incremental update beats rebuilding the whole store
    assert meta["update_speedup_vs_rebuild"] > 1.5
