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
    switched off. The memo is keyed by archive path, not by importer: it
    holds the archive's (inode, size, mtime_ns) and the directory read at
    that key. An importer whose archive still has that key takes the
    stored directory with no read; otherwise, or when the archive cannot
    be stat'ed, the original method reads it, so a rewritten, replaced or
    deleted archive is still seen. So one invalidation reads each changed
    archive once, however many importers (the archive's root and its
    package prefixes) share it, and an unchanged one costs a ``stat``.
    This relies on CPython 3.11's ``zipimporter._files``, the directory
    the original method replaces and the importer's lookups read.

    Every Python worker imports ``repro`` when it unpickles a task's
    closure, after that task's own invalidation has run unguarded. A
    fresh worker's second task therefore reads each archive on its path
    once (3 reads for a PySpark worker's 16 importers), and from its
    third task on it reads nothing until an archive changes.
    """
    original = _zipimport.zipimporter.invalidate_caches
    if getattr(original, "stat_guarded", False):
        return
    read_at = {}  # archive path -> (stat key, directory read at that key)

    @_functools.wraps(original)
    def invalidate_caches(self):
        try:
            st = _os.stat(self.archive)
            key = (st.st_ino, st.st_size, st.st_mtime_ns)
        except OSError:
            key = None
        memo = read_at.get(self.archive)
        if key is not None and memo is not None and memo[0] == key:
            self._files = memo[1]
            return
        original(self)
        if key is None:
            read_at.pop(self.archive, None)
        else:
            read_at[self.archive] = (key, self._files)

    invalidate_caches.stat_guarded = True
    _zipimport.zipimporter.invalidate_caches = invalidate_caches


_guard_zip_invalidation()
