"""T4 benchmarks — pruning mechanics sweep, writes results/table4.txt."""
from repro import experiments
from repro.harness import save_table


def test_full_table4(benchmark, spark):
    def run():
        rows, meta = experiments.run_table4(spark)
        text = experiments.table_text(4, rows, meta)
        save_table(text, "results/table4.txt")
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    jump = {
        (r["beta"], r["mechanism"]): r
        for r in rows
        if r["mechanism"].startswith("jump/")
    }
    # higher β ⇒ more below-threshold cells ⇒ more skipping
    assert (
        jump[(0.9, "jump/exact-ci")]["skip_fraction"]
        >= jump[(0.3, "jump/exact-ci")]["skip_fraction"]
    )
    # the exact-ci bound is tighter than worst-case at every β
    for beta in experiments.T4_BETAS:
        assert (
            jump[(beta, "jump/exact-ci")]["skip_fraction"]
            >= jump[(beta, "jump/worst-case")]["skip_fraction"] - 1e-9
        )
