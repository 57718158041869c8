"""T4 — pruning mechanics: eval/skip fractions, jump lengths, horizontal
survival per threshold β (the mechanism behind T1, Fig. 2 of the paper).

    spark-submit jobs/table4_pruning.py [--stations N]
"""
import argparse
import sys


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--stations", type=int, default=None)
    p.add_argument("--out", default="results/table4.txt")
    args = p.parse_args(argv)

    from repro import experiments
    from repro.harness import save_table, spark_session

    spark = spark_session("table4-pruning")
    n_stations = args.stations or experiments.T4_N_STATIONS
    rows, meta = experiments.run_table4(spark, n_stations=n_stations)
    text = experiments.table_text(4, rows, meta)
    print(text)
    save_table(text, args.out)


if __name__ == "__main__":
    sys.exit(main())
