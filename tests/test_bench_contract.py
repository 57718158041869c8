"""The benchmark in perfbench/ still finds every program name it uses.

perfbench/ calls the program from outside; a refactor that removes or
renames a ``repro`` name it uses would otherwise surface only when the
benchmark runs. Importing its modules catches ``from repro... import``
names; scanning their source catches ``module.attr`` uses resolved at
call time (``tsubasa.eval_tile_full``, ``bounds.slack_prefix``, ...).
Neither starts Spark.
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
