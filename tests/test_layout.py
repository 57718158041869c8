"""Spark plumbing lives in the runners only.

Every engine runs on one of two runners: ``dangoron.run_tiles`` over the
cached pair sketch, or ``naive.run_windows`` over the broadcast raw
matrix. Besides them only the sketch build (``build_pair_sketch``)
starts a ``mapInPandas`` stage, and only ``run_windows`` broadcasts. A
copy of the fan-out in an engine fails here.

No Python stage uses the RDD API (``sc.parallelize(...).map``): RDD and
SQL Python runners keep separate worker pools, so one RDD stage starts a
second ``pyspark.daemon`` with its own workers. A pair-sketch build done
that way added ~500–700 MB of peak RSS on the 128-series benchmark and
left the SQL pool cold, so the first query after it took 2.4 s.

No grouped stage (``groupBy``, ``applyInPandas``) shuffles the rows on
the way to the sketch: the sketch build takes the matrix on the driver
and ships it in the task closure, and long-form input is read into a
matrix there by ``tsio.matrix.from_long_pdf``.

Tile files have one owner: only ``sketch/pair_sketch.py`` writes a
tile's q (``np.save(``) and maps it (``mmap_mode``), so the atomic
write and the manifest check stay in one place.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def owners(attr: str) -> list[str]:
    """The top-level functions of ``src/repro`` that use ``.attr`` in code."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if any(
                isinstance(node, ast.Attribute) and node.attr == attr
                for node in ast.walk(top)
            ):
                name = getattr(top, "name", "<module>")
                found.append(f"{path.relative_to(SRC).as_posix()}:{name}")
    return found


@pytest.mark.parametrize(
    "attr, allowed",
    [
        (
            "mapInPandas",
            [
                "baselines/naive.py:run_windows",
                "core/dangoron.py:run_tiles",
                "sketch/pair_sketch.py:build_pair_sketch",
            ],
        ),
        ("broadcast", ["baselines/naive.py:run_windows"]),
        ("parallelize", []),
        ("applyInPandas", []),
        ("groupBy", []),
    ],
)
def test_only_the_runners_fan_out(attr, allowed):
    assert owners(attr) == allowed


@pytest.mark.parametrize(
    "attr, allowed",
    [
        ("duplicated", []),
        ("bincount", ["tsio/matrix.py:from_long_pdf"]),
        ("get_indexer", ["tsio/matrix.py:from_long_pdf"]),
    ],
)
def test_one_long_form_reader(attr, allowed):
    """Long rows reach a dense grid through ``from_long_pdf`` only, so
    holes, duplicates, negative ids or t and non-finite values are
    checked in one place; a second scatter or duplicate check fails here."""
    assert owners(attr) == allowed


@pytest.mark.parametrize("text", ["np.save(", "mmap_mode"])
def test_tile_files_have_one_owner(text):
    found = [
        path.relative_to(SRC).as_posix()
        for path in sorted(SRC.rglob("*.py"))
        if text in path.read_text()
    ]
    assert found == ["sketch/pair_sketch.py"]
