"""The design documents name only modules and attributes that exist.

Every ``*.py`` path written in backticks in DESIGN.md and README.md must
resolve under ``src/repro/`` (package modules), ``src/`` or the repo
root (``jobs/``, ``benchmarks/``, ``conftest.py``), and every backticked
``module.attr`` whose module is a ``repro`` module (matched by its last
dotted name: ``bounds.slack_prefix``, ``core/jumping.sweep``) must name
an attribute that module has. A module or function deleted or renamed
without its mention fails here. PAPER.md is the fixed paper text and is
not read.
"""
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BASES = (ROOT / "src" / "repro", ROOT / "src", ROOT)
PY_PATH = re.compile(r"`([^`\s]+\.py)`")
ATTR = re.compile(r"`([A-Za-z_][\w./]*)\.([A-Za-z_]\w*)`")


def named_paths(doc: str) -> list[str]:
    return PY_PATH.findall((ROOT / doc).read_text())


def resolves(path: str) -> bool:
    return any((base / path).is_file() for base in BASES)


@pytest.mark.parametrize("doc", ["DESIGN.md", "README.md"])
def test_named_modules_exist(doc):
    paths = named_paths(doc)
    assert paths, f"{doc} names no module; is the pattern still right?"
    missing = sorted({p for p in paths if not resolves(p)})
    assert not missing, f"{doc} names modules that do not exist: {missing}"



def repro_modules() -> dict[str, list[str]]:
    """Every ``repro`` module's dotted name, keyed by its last dotted name."""
    src = ROOT / "src"
    names: dict[str, list[str]] = {}
    for path in (src / "repro").rglob("*.py"):
        parts = path.relative_to(src).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        names.setdefault(parts[-1], []).append(".".join(parts))
    return names


def named_attributes(doc: str, modules: dict[str, list[str]]) -> list[tuple[str, str]]:
    """(module key, attr) of each backticked ``module.attr`` naming a repro module."""
    found = []
    for module, attr in ATTR.findall((ROOT / doc).read_text()):
        key = re.split(r"[./]", module)[-1]
        if attr != "py" and key in modules:
            found.append((key, attr))
    return found


@pytest.mark.parametrize("doc", ["DESIGN.md", "README.md"])
def test_named_attributes_exist(doc):
    modules = repro_modules()
    uses = named_attributes(doc, modules)
    assert uses, f"{doc} names no module attribute; is the pattern still right?"
    missing = sorted(
        {
            f"{key}.{attr}"
            for key, attr in uses
            if not any(hasattr(importlib.import_module(m), attr) for m in modules[key])
        }
    )
    assert not missing, f"{doc} names attributes that do not exist: {missing}"
