"""Dangoron benchmark entry point.

    python3 perfbench/run.py --workload climate-dense --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds one ``local[nproc]`` SparkSession
the way the test suite's ``spark`` fixture does, generates the
workload's inputs from ``--seed``, checks every engine's output against
a numpy reference and prints, as the last line of standard output, one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics of BENCHMARK.json with ``--trace 0``, its
per-layer metrics with ``--trace 1``). Earlier lines record the host,
Spark conf, library versions, seed and sample counts.

Everything the run writes stays under the checkout: Spark's local
directories and the stream's files in ``.bench_work/``, the span file of
a traced run in ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# The inputs are under 100 MB; a larger heap mostly lets the JVM's resident
# memory grow with its collector's whims (traced runs peaked at 9 GB of
# process-tree RSS with 7g) on a host other work shares.
DRIVER_MEMORY = "4g"


def configure_environment(work: str) -> None:
    """Environment the driver JVM and Python workers inherit.

    Must run before the first SparkSession: the JVM reads its submit
    arguments and local directories at launch.
    """
    local = os.path.join(work, "spark-local")
    tmp = os.path.join(work, "tmp")
    os.makedirs(local, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    src = os.path.join(ROOT, "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src, ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    # JVMs keep temporary files and (by default) perf counters under /tmp
    jvm_opts = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    os.environ["SPARK_LAUNCHER_OPTS"] = jvm_opts
    os.environ["SPARK_LOCAL_DIRS"] = local
    os.environ["TMPDIR"] = tmp
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{os.cpu_count()}] "
        f"--driver-memory {DRIVER_MEMORY} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        f"--conf spark.local.dir={local} "
        f"--conf spark.sql.warehouse.dir={os.path.join(work, 'warehouse')} "
        f"--conf 'spark.driver.extraJavaOptions={jvm_opts}' "
        "pyspark-shell"
    )
    sys.path[:0] = [src, ROOT]


def declared_metrics(trace: bool) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(metrics: dict, units: dict[str, str], ledger) -> dict:
    """The final JSON object; every declared metric, nothing else."""
    missing = sorted(set(units) - set(metrics))
    unknown = sorted(set(metrics) - set(units))
    if missing or unknown:
        raise RuntimeError(f"metric set differs from BENCHMARK.json: "
                           f"missing={missing} undeclared={unknown}")
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"[perfbench] no program source under {ROOT}/src/repro", file=sys.stderr)
        return 2
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    configure_environment(work)

    from perfbench import bench
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"[perfbench] unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    units = declared_metrics(bool(args.trace))
    try:
        if args.trace:
            trace_path = os.path.join(
                ROOT, ".bench_out", f"trace-{wl.name}-seed{args.seed}.json"
            )
            metrics, ledger, env = bench.run_traced(wl, args.seed, work, trace_path)
        else:
            metrics, ledger, env = bench.run_plain(wl, args.seed, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    line = result_line(metrics, units, ledger)
    print("# environment " + json.dumps(env, sort_keys=True))
    for name, unit in units.items():
        n = env.get("samples", {}).get(name)
        print(f"# {name:40s} {metrics[name]:14.6g} {unit}" + (f"  (median of {n})" if n else ""))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
