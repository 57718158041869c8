"""Reproduction of "Dangoron: Network Construction on Large-scale Time
Series Data across Sliding Windows" (SIGMOD-Companion '23).

Subpackages: ``tsio`` (time-series substrate), ``sketch`` (basic-window
sketch framework, Eq. 1), ``core`` (Dangoron: Eq.-2 jumping + horizontal
pruning), ``baselines`` (TSUBASA, naive, ParCorr, StatStream),
``tomborg`` (benchmark generator), ``streaming`` (incremental sketch
maintenance). See DESIGN.md for the system map and EXPERIMENTS.md for
paper-vs-measured numbers.
"""
import functools as _functools
import os as _os
import weakref as _weakref
import zipimport as _zipimport

# glibc hands every large (>128 KiB) allocation its own mmap and returns
# it to the OS on free, so each Arrow-kernel invocation re-faults tens of
# MB of pages — under this sandbox's virtualized kernel that costs whole
# seconds and drowns engine timing differences in allocation noise.
# Raising the mmap threshold keeps big numpy buffers on the heap where
# they are reused warm. Set at import time so the Spark JVM (launched
# later by the session fixture) passes it through to the Python workers
# that actually run the kernels; a JVM started before this import
# (``spark-submit``) gets them from ``harness.spark_session``.
MALLOC_ENV = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")
for _name in MALLOC_ENV:
    _os.environ.setdefault(_name, str(1 << 30))


def _guard_zip_invalidation() -> None:
    """Re-read a zip archive's directory on invalidation only if it changed.

    PySpark's worker calls ``importlib.invalidate_caches()`` at the start
    of every task. On CPython 3.11 that makes each ``zipimporter`` on the
    path re-read its archive's directory: 14–16 importers over the
    1,328-entry ``pyspark.zip``, 160–350 ms per task on a 4-core host,
    more than a whole sparse query's kernel. Invalidation is kept, not
    switched off: an importer re-reads whenever its archive's (inode,
    size, mtime_ns) differ from its last read, or the archive cannot be
    stat'ed, so a rewritten, replaced or deleted archive is still seen.
    Unchanged, the call costs one ``stat``. Every Python worker imports
    ``repro`` when it unpickles a task's closure, so a reused worker skips
    the re-reads from its next task on.
    """
    original = _zipimport.zipimporter.invalidate_caches
    if getattr(original, "stat_guarded", False):
        return
    read_at = _weakref.WeakKeyDictionary()  # importer -> archive stat at its last read

    @_functools.wraps(original)
    def invalidate_caches(self):
        try:
            st = _os.stat(self.archive)
            key = (st.st_ino, st.st_size, st.st_mtime_ns)
        except OSError:
            key = None
        if key is not None and read_at.get(self) == key:
            return
        original(self)
        if key is None:
            read_at.pop(self, None)
        else:
            read_at[self] = key

    invalidate_caches.stat_guarded = True
    _zipimport.zipimporter.invalidate_caches = invalidate_caches


_guard_zip_invalidation()
