"""The benchmark in perfbench/ still finds every program name it uses.

perfbench/ calls the program from outside; a refactor that removes or
renames a ``repro`` name it uses would otherwise surface only when the
benchmark runs. Importing its modules catches ``from repro... import``
names; scanning their source catches ``module.attr`` uses resolved at
call time (``tsubasa.eval_tile_full``, ``bounds.slack_prefix``, ...).
Running the traced run's driver-side kernel replay on small in-memory
tiles catches a changed signature or tile format. None of these start
Spark.
"""
import ast
import importlib
import inspect
import os
import subprocess
import sys
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENTRY_MODULES = ("perfbench.bench", "perfbench.layers", "perfbench.gate", "perfbench.run")


def test_imports_without_starting_spark():
    code = (
        f"import {', '.join(ENTRY_MODULES)}\n"
        "from pyspark import SparkContext\n"
        "assert SparkContext._gateway is None, 'importing perfbench started a JVM'\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def _repro_attribute_uses():
    for name in ENTRY_MODULES:
        importlib.import_module(name)
    bench_modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("perfbench.")]
    for mod in bench_modules:
        for node in ast.walk(ast.parse(inspect.getsource(mod))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                bound = getattr(mod, node.value.id, None)
                if isinstance(bound, types.ModuleType) and bound.__name__.startswith("repro"):
                    yield mod.__name__, bound, node.attr


def test_program_attributes_exist():
    uses = list(_repro_attribute_uses())
    assert uses, "found no repro module attribute uses to check"
    missing = sorted(
        {f"{where}: {mod.__name__}.{attr}" for where, mod, attr in uses if not hasattr(mod, attr)}
    )
    assert not missing, "perfbench uses names the program no longer has:\n" + "\n".join(missing)


def _replay_tiles():
    """A diagonal row band and an off-diagonal tile, with a spec over them."""
    from repro.synth_data import ar1_matrix
    from repro.tsio.validation import SlidingSpec
    from tests.test_jumping import make_band, make_cross_tile

    X = ar1_matrix(n=9, length=360, seed=31)
    spec = SlidingSpec(start=0, end=360, window=72, step=12, beta=0.3, bw=12)
    return [make_band(X, 0, 4, spec), make_cross_tile(X, 4, spec)], spec


def test_driver_replay_runs_every_engine():
    from perfbench import layers
    from perfbench.obs import Tracer

    tiles, spec = _replay_tiles()
    tracer = Tracer()
    cells = (8 + 7 + 6 + 5 + 4 * 5) * spec.n_windows  # band rows 0..3 pair with later ids
    edges = {}
    for engine in ("tsubasa", "dangoron", "dangoron-wc"):
        secs, stats, edges[engine] = layers.replay(tiles, spec, engine, tracer)
        assert len(secs) == len(tiles) and min(secs) >= 0.0
        assert len(tracer.seconds(f"kernel.{engine}")) == len(tiles)
        if engine != "tsubasa":
            assert stats.cells == cells and 0 < stats.evals <= stats.cells
    full = edges["tsubasa"]
    assert len(full) > 0
    for engine in ("dangoron", "dangoron-wc"):
        shared = edges[engine].merge(full, on=["i", "j", "w"], how="left", suffixes=("", "_t"))
        assert shared["corr_t"].notna().all()
        assert shared["corr"].to_numpy().tobytes() == shared["corr_t"].to_numpy().tobytes()

    setup = layers.kernel_setup_metrics(tiles, spec, tracer)
    assert set(setup) == {"kernel.setup_s", "jump.slack_setup_s"}
    assert all(v >= 0.0 for v in setup.values())
    assert len(tracer.seconds("kernel.setup")) == len(tiles)
