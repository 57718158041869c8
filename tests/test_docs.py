"""The design documents name only modules that exist.

Every ``*.py`` path written in backticks in DESIGN.md and README.md must
resolve under ``src/repro/`` (package modules), ``src/`` or the repo
root (``jobs/``, ``benchmarks/``, ``conftest.py``). A module deleted or
renamed without its mention fails here. PAPER.md is the fixed paper
text and is not read.
"""
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BASES = (ROOT / "src" / "repro", ROOT / "src", ROOT)
PY_PATH = re.compile(r"`([^`\s]+\.py)`")


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

