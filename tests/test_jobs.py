"""Smoke tests for the spark-submit job entrypoint (tiny workloads).

``jobs/run_table.py``'s ``main`` runs each table end-to-end with a small
--stations override, reusing the session fixture via ``getOrCreate``,
and must leave the formatted table at the requested output path. The
job's session helper is also run under a real ``spark-submit``, whose
JVM starts before the driver imports ``repro``, and in a fresh
interpreter, whose JVM it starts with its own driver heap.
"""
import importlib.util
import os
import re
import subprocess
import sys

import pyspark
import pytest

from repro import harness

JOBS_DIR = os.path.join(os.path.dirname(__file__), "..", "jobs")
SRC_DIR = os.path.join(os.path.dirname(__file__), "..", "src")

# what a job does: build the session with the helper, then run Python tasks
SUBMIT_PROBE = """
import pandas as pd

from repro.harness import spark_session


def probe(batches):
    with open("/proc/self/environ", "rb") as fh:
        env = dict(kv.decode().split("=", 1) for kv in fh.read().split(b"\\0") if b"=" in kv)
    for _ in batches:
        pass
    yield pd.DataFrame({"env": [" ".join(env.get(k, "unset") for k in
                                         ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"))]})


spark = spark_session("submit-probe")
print("WORKER_ENV", spark.range(1, numPartitions=1).mapInPandas(probe, "env string").first().env)
spark.stop()
"""


# what ``python jobs/run_table.py 1`` does before its sketch build
HEAP_PROBE = """
from repro.harness import spark_session

spark = spark_session("heap-probe")
print("MAX_MEMORY", spark.sparkContext._jvm.java.lang.Runtime.getRuntime().maxMemory())
spark.stop()
"""


def load_job():
    spec = importlib.util.spec_from_file_location(
        "run_table", os.path.join(JOBS_DIR, "run_table.py")
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def run_job(tmp_path, capsys, table, *flags):
    """``run_table.py TABLE *flags`` into a temporary file; returns its text,
    which the job also printed."""
    out = str(tmp_path / f"t{table}.txt")
    load_job().main([str(table), *flags, "--out", out])
    text = open(out).read()
    assert capsys.readouterr().out == text
    return text


@pytest.mark.usefixtures("spark")
class TestJobMains:
    def test_table1_query_time_job(self, tmp_path, capsys):
        text = run_job(tmp_path, capsys, 1, "--stations", "2", "--reps", "1")
        assert text.startswith("T1 — pure query time | series=8 ") and "dangoron-wc" in text

    def test_table2_accuracy_job(self, tmp_path, capsys):
        text = run_job(tmp_path, capsys, 2, "--stations", "2")
        assert text.startswith("T2 — accuracy") and "dangoron" in text

    def test_table4_pruning_job(self, tmp_path, capsys):
        text = run_job(tmp_path, capsys, 4, "--stations", "2")
        assert text.startswith("T4 — pruning mechanics | series=8 ") and "jump/exact-ci" in text

    def test_table5_streaming_job(self, tmp_path, capsys):
        text = run_job(tmp_path, capsys, 5)
        assert text.startswith("T5 — sketch maintenance") and "store_matches=True" in text

    def test_flag_the_table_does_not_take_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "t3.txt"
        with pytest.raises(SystemExit) as exc:
            load_job().main(["3", "--stations", "2", "--out", str(out)])
        assert exc.value.code == 2
        assert "table 3 takes no --stations" in capsys.readouterr().err
        assert not out.exists()


class TestSparkSubmit:
    def test_workers_get_malloc_thresholds(self, tmp_path):
        script = tmp_path / "probe.py"
        script.write_text(SUBMIT_PROBE)
        # the submitting shell has not imported repro, so neither has the JVM
        env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
        env.pop("PYSPARK_SUBMIT_ARGS", None)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.abspath(SRC_DIR)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        submit = os.path.join(os.path.dirname(pyspark.__file__), "bin", "spark-submit")
        out = subprocess.run(
            [submit, "--master", "local[1]", "--driver-memory", "1g",
             "--conf", "spark.ui.enabled=false", "--conf", "spark.driver.host=127.0.0.1",
             str(script)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert out.returncode == 0, out.stderr[-3000:]
        expected = str(1 << 30)
        assert f"WORKER_ENV {expected} {expected}" in out.stdout, out.stdout[-2000:]


class TestDriverHeap:
    def test_python_launch_gets_driver_memory(self, tmp_path):
        # a fresh interpreter: nothing but the helper sizes the JVM it starts
        env = {k: v for k, v in os.environ.items() if k != "PYSPARK_SUBMIT_ARGS"}
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.abspath(SRC_DIR)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        env["SPARK_LOCAL_IP"] = "127.0.0.1"
        out = subprocess.run(
            [sys.executable, "-c", HEAP_PROBE],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
        )
        assert out.returncode == 0, out.stderr[-3000:]
        max_memory = int(re.search(r"MAX_MEMORY (\d+)", out.stdout).group(1))
        assert harness.DRIVER_MEMORY.endswith("g")
        assert max_memory >= int(harness.DRIVER_MEMORY[:-1]) << 30
