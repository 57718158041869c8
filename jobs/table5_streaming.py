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

    from repro import experiments
    from repro.harness import save_table, spark_session

    spark = spark_session("table5-streaming")
    with tempfile.TemporaryDirectory() as workdir:
        # run_table5 raises unless the streamed store equals the rebuilt one
        rows, meta = experiments.run_table5(spark, workdir)
    assert meta["store_matches"]
    text = experiments.table_text(5, rows, meta)
    print(text)
    save_table(text, args.out)


if __name__ == "__main__":
    sys.exit(main())
