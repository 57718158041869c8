"""T5 — update efficiency: streaming sketch maintenance vs full rebuild
(the paper's challenge 1: efficient "network construction and updates").

    spark-submit jobs/table5_streaming.py
"""
import argparse
import sys
import tempfile


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--out", default="results/table5.txt")
    args = p.parse_args(argv)

    import pandas as pd

    from repro import experiments
    from repro.harness import save_table, spark_session

    spark = spark_session("table5-streaming")
    with tempfile.TemporaryDirectory() as workdir:
        rows, meta, store, rebuild = experiments.run_table5(spark, workdir)
        # correctness: the incrementally-maintained store must equal the
        # rebuilt one exactly
        a = store.series_sketch().round(9)
        b = rebuild.series_sketch().round(9)
        meta["store_matches"] = a.equals(b)
        pd.testing.assert_frame_equal(a, b)
    text = experiments.table_text(5, rows, meta)
    print(text)
    save_table(text, args.out)


if __name__ == "__main__":
    sys.exit(main())
