"""T1 — pure query time: Dangoron vs TSUBASA on the USCRN-like panel.

Paper claim (§4): "Dangoron is an order of magnitude faster than
TSUBASA in terms of pure query time" on the NCEA (NOAA USCRN) data.

    spark-submit jobs/table1_query_time.py [--stations N] [--reps R]
"""
import argparse
import sys


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--stations", type=int, default=None, help="stations (×4 variables)")
    p.add_argument("--reps", type=int, default=3, help="timed repetitions (minimum)")
    p.add_argument("--out", default="results/table1.txt")
    args = p.parse_args(argv)

    from repro import experiments
    from repro.harness import save_table, spark_session

    spark = spark_session("table1-query-time")
    n_stations = args.stations or experiments.T1_N_STATIONS
    rows, meta = experiments.run_table1(spark, reps=args.reps, n_stations=n_stations)
    text = experiments.table_text(1, rows, meta)
    print(text)
    save_table(text, args.out)


if __name__ == "__main__":
    sys.exit(main())
