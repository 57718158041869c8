"""The stat-guarded zip-import invalidation installed by ``import repro``.

PySpark's worker calls ``importlib.invalidate_caches()`` at the start of
every task; unguarded, each ``zipimporter`` then re-reads its archive's
directory (``zipimport._read_directory``). The guard must skip the
re-read of an unchanged archive, never skip one of a changed archive,
and be live in the Spark workers, which must also see the malloc
thresholds ``repro`` sets.
"""
import importlib
import os
import sys
import zipfile
import zipimport

import pytest

import repro


@pytest.fixture
def reads(monkeypatch):
    """Archive paths passed to ``zipimport._read_directory``, in order."""
    calls = []
    original = zipimport._read_directory

    def counted(archive):
        calls.append(archive)
        return original(archive)

    monkeypatch.setattr(zipimport, "_read_directory", counted)
    return calls


@pytest.fixture
def archive(tmp_path):
    """A zip of modules on ``sys.path``; yields a writer for its contents."""
    path = str(tmp_path / "mods.zip")

    def write(modules, dest=path):
        with zipfile.ZipFile(dest, "w") as zf:
            for name, value in modules.items():
                zf.writestr(f"{name}.py", f"VALUE = {value!r}\n")
        return dest

    before = set(sys.modules)
    sys.path.insert(0, path)
    yield path, write
    sys.path.remove(path)
    for entry in [e for e in sys.path_importer_cache if e.startswith(path)]:
        del sys.path_importer_cache[entry]  # the root's and its packages' importers
    for name in set(sys.modules) - before:
        if name.startswith("zg_"):
            del sys.modules[name]


class TestGuardSemantics:
    def test_installed_once(self):
        method = zipimport.zipimporter.invalidate_caches
        assert method.stat_guarded
        repro._guard_zip_invalidation()
        assert zipimport.zipimporter.invalidate_caches is method

    def test_unchanged_archive_not_reread(self, archive, reads):
        path, write = archive
        write({"zg_alpha": 1})
        assert importlib.import_module("zg_alpha").VALUE == 1
        importlib.invalidate_caches()  # reads once: the archive's stat is not stored yet
        del reads[:]
        for _ in range(3):
            importlib.invalidate_caches()
        assert reads.count(path) == 0

    def test_rewritten_archive_is_reread(self, archive, reads):
        path, write = archive
        write({"zg_beta": 1})
        importlib.import_module("zg_beta")
        importlib.invalidate_caches()
        write({"zg_beta": 1, "zg_gamma": 2})
        del reads[:]
        importlib.invalidate_caches()
        assert reads.count(path) == 1
        assert importlib.import_module("zg_gamma").VALUE == 2
        importlib.invalidate_caches()
        assert reads.count(path) == 1

    def test_replaced_archive_is_reread(self, archive, reads, tmp_path):
        # same size and mtime, new inode: the stat key must still differ
        path, write = archive
        write({"zg_delta": 1, "zg_eps": 3})
        importlib.import_module("zg_delta")
        importlib.invalidate_caches()
        st = os.stat(path)
        new = write({"zg_delta": 1, "zg_eps": 4}, str(tmp_path / "new.zip"))
        os.utime(new, ns=(st.st_atime_ns, st.st_mtime_ns))
        os.replace(new, path)
        assert os.stat(path).st_size == st.st_size
        del reads[:]
        importlib.invalidate_caches()
        assert reads.count(path) == 1
        assert importlib.import_module("zg_eps").VALUE == 4

    def test_shared_archive_read_once(self, archive, reads):
        # as in a PySpark worker: one importer for the archive's root and one
        # per imported package prefix, all reading the same archive
        path, write = archive
        write({"zg_top": 1, "zg_pkg/__init__": 0, "zg_pkg/zg_mid": 2,
               "zg_pkg/sub/__init__": 0, "zg_pkg/sub/zg_low": 3})
        assert importlib.import_module("zg_top").VALUE == 1
        assert importlib.import_module("zg_pkg.zg_mid").VALUE == 2
        assert importlib.import_module("zg_pkg.sub.zg_low").VALUE == 3
        importers = [imp for entry, imp in sys.path_importer_cache.items()
                     if entry.startswith(path)]
        assert len(importers) == 3
        assert {imp.archive for imp in importers} == {path}
        importlib.invalidate_caches()
        write({"zg_top": 1, "zg_top2": 4, "zg_pkg/__init__": 0, "zg_pkg/zg_mid": 2,
               "zg_pkg/zg_mid2": 5, "zg_pkg/sub/__init__": 0, "zg_pkg/sub/zg_low": 3,
               "zg_pkg/sub/zg_low2": 6})
        del reads[:]
        importlib.invalidate_caches()
        assert reads.count(path) == 1
        assert importlib.import_module("zg_top2").VALUE == 4
        assert importlib.import_module("zg_pkg.zg_mid2").VALUE == 5
        assert importlib.import_module("zg_pkg.sub.zg_low2").VALUE == 6
        importlib.invalidate_caches()
        assert reads.count(path) == 1

    def test_deleted_archive_raises_nothing(self, archive, reads):
        path, write = archive
        write({"zg_zeta": 1})
        importlib.import_module("zg_zeta")
        importlib.invalidate_caches()
        os.remove(path)
        del reads[:]
        importlib.invalidate_caches()
        importlib.invalidate_caches()
        assert reads.count(path) == 2  # no stat, so every invalidation reads
        with pytest.raises(ImportError):
            importlib.import_module("zg_eta")


def _make_probe():
    """A task function that cloudpickle ships by value (it is not importable)."""

    def _probe(batches):
        """One task's record: (pid, cumulative directory reads, distinct zip
        archives on the worker's path, exec-time env)."""
        import os
        import sys
        import zipimport

        import pandas as pd

        import repro  # noqa: F401  as when a task unpickles a repro closure

        read = zipimport._read_directory
        if not hasattr(read, "calls"):  # first task in this worker
            def counted(archive, _read=read):
                counted.calls += 1
                return _read(archive)

            counted.calls = 0
            zipimport._read_directory = read = counted
        archives = {
            imp.archive
            for imp in sys.path_importer_cache.values()
            if isinstance(imp, zipimport.zipimporter)
        }
        with open("/proc/self/environ", "rb") as fh:
            env = dict(
                kv.decode().split("=", 1) for kv in fh.read().split(b"\0") if b"=" in kv
            )
        for _ in batches:
            pass
        yield pd.DataFrame(
            {
                "pid": [os.getpid()],
                "reads": [read.calls],
                "archives": [len(archives)],
                "mmap": [env.get("MALLOC_MMAP_THRESHOLD_", "")],
                "trim": [env.get("MALLOC_TRIM_THRESHOLD_", "")],
            }
        )

    return _probe


class TestGuardInWorkers:
    def test_reused_worker_stops_rereading(self, spark):
        probe = _make_probe()
        schema = "pid long, reads long, archives long, mmap string, trim string"
        rows, by_pid = [], {}
        # idle workers from earlier parallel stages take tasks in turn;
        # collect, not first(): a task whose output is cut short loses its worker
        for _ in range(40):
            r = spark.range(1, numPartitions=1).mapInPandas(probe, schema).collect()[0]
            rows.append(r)
            by_pid.setdefault(r.pid, []).append((r.reads, r.archives))
            if len(by_pid[r.pid]) == 4:
                break
        reused = {pid: seq for pid, seq in by_pid.items() if len(seq) >= 3}
        assert reused, f"no worker ran 3 tasks: {by_pid}"
        for pid, seq in reused.items():
            reads = [n for n, _ in seq]
            # a fresh worker runs task 1's invalidation before it imports repro,
            # so task 2 reads each archive on its path at most once, whatever
            # the number of importers sharing it; from then on none is re-read
            assert reads[1] - reads[0] <= seq[1][1], f"worker {pid}: {seq}"
            assert reads[2:] == [reads[1]] * (len(reads) - 2), f"worker {pid}: {seq}"
        expected = os.environ["MALLOC_MMAP_THRESHOLD_"]
        assert {(r.mmap, r.trim) for r in rows} == {(expected, expected)}
