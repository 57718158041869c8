"""T4 benchmarks — pruning mechanics sweep, writes results/table4.txt."""
from repro import experiments


def test_full_table4(benchmark, spark):
    rows, _, _ = benchmark.pedantic(
        experiments.write_table, (spark, 4), rounds=1, iterations=1
    )
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
