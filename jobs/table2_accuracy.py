"""T2 — accuracy: Dangoron vs ParCorr/StatStream against the exact engine.

Paper claim (§4): Dangoron "achieves an accuracy above 90 percent,
comparable to Parcorr".

    spark-submit jobs/table2_accuracy.py [--stations N]
"""
import argparse
import sys


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--stations", type=int, default=None)
    p.add_argument("--out", default="results/table2.txt")
    args = p.parse_args(argv)

    from repro import experiments
    from repro.harness import save_table, spark_session

    spark = spark_session("table2-accuracy")
    n_stations = args.stations or experiments.T2_N_STATIONS
    rows, meta = experiments.run_table2(spark, n_stations=n_stations)
    text = experiments.table_text(2, rows, meta)
    print(text)
    save_table(text, args.out)


if __name__ == "__main__":
    sys.exit(main())
