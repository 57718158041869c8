"""T3 — Tomborg robustness grid: time + accuracy across distributions.

Paper context (§2/§3): frequency-transform methods "only succeed when
energy concentrates in a few domains"; Tomborg generates datasets that
expose this, while exact sketch engines are unaffected.

    spark-submit jobs/table3_robustness.py
"""
import argparse
import sys


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--out", default="results/table3.txt")
    args = p.parse_args(argv)

    from repro import experiments
    from repro.harness import save_table, spark_session

    spark = spark_session("table3-robustness")
    rows, meta = experiments.run_table3(spark, reps=args.reps)
    text = experiments.table_text(3, rows, meta)
    print(text)
    save_table(text, args.out)


if __name__ == "__main__":
    sys.exit(main())
