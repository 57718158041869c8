"""Run one reproduced table (1–5), print it and save it under results/.

    spark-submit jobs/run_table.py TABLE [--stations N] [--reps R] [--out PATH]

T1 pure query time, T2 accuracy, T3 Tomborg robustness, T4 pruning
mechanics, T5 sketch maintenance (DESIGN.md §4, EXPERIMENTS.md). Only
the flags given reach the table's runner, which otherwise uses its own
defaults; a flag the runner does not take is an error.
"""
import argparse
import inspect
import sys

# flag -> the runner keyword it sets
FLAGS = {"stations": "n_stations", "reps": "reps"}


def main(argv=None) -> None:
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    p.add_argument("table", type=int, choices=range(1, 6))
    p.add_argument("--stations", type=int, help="stations (×4 variables) of T1, T2 or T4")
    p.add_argument("--reps", type=int, help="timed repetitions of T1 or T3 (minimum reported)")
    p.add_argument("--out", help="output path (default: the table's results/tableN.txt)")
    args = p.parse_args(argv)

    from repro import experiments
    from repro.harness import spark_session

    takes = inspect.signature(experiments.TABLES[args.table].runner).parameters
    overrides = {}
    for flag, key in FLAGS.items():
        value = getattr(args, flag)
        if value is None:
            continue
        if key not in takes:
            p.error(f"table {args.table} takes no --{flag}")
        overrides[key] = value

    spark = spark_session(f"table{args.table}")
    *_, text = experiments.write_table(spark, args.table, args.out, **overrides)
    print(text)


if __name__ == "__main__":
    sys.exit(main())
