"""Observation tools of the benchmark: spans and process-tree memory.

Spans are recorded by the benchmark around its calls into the program's
layers; nothing inside ``src/`` is instrumented. They are kept in memory
and written out once, when the run ends.
"""
from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    qid: str | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; spans nest by the order they are opened."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, qid: str | None = None):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = Span(sid, name, time.perf_counter(), float("nan"), parent, qid)
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec.end = time.perf_counter()

    def seconds(self, name: str) -> list[float]:
        return [s.seconds for s in self.spans if s.name == name]

    def span_cost(self, n: int = 2000) -> float:
        """Measured seconds one span costs to record (for the overhead)."""
        probe = Tracer()
        t0 = time.perf_counter()
        for _ in range(n):
            with probe.span("probe"):
                pass
        return (time.perf_counter() - t0) / n

    def dump(self, path: str, meta: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"meta": meta, "spans": [asdict(s) for s in self.spans]}, fh)


def _children(pid: int) -> list[int]:
    out = []
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                out.extend(int(c) for c in fh.read().split())
    except OSError:
        pass
    return out


def _rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_rss_mb() -> float:
    """Summed resident memory of this process and all its descendants."""
    todo, total = [os.getpid()], 0
    while todo:
        pid = todo.pop()
        total += _rss_kb(pid)
        todo.extend(_children(pid))
    return total / 1024.0


class RssSampler:
    """Samples the process tree's RSS on a thread; keeps the peak.

    The tree is this interpreter, the Spark driver JVM it launched and
    the JVM's Python workers.
    """

    def __init__(self, interval: float = 0.2):
        self.interval = interval
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.is_set():
            self.peak_mb = max(self.peak_mb, tree_rss_mb())
            self._stop.wait(self.interval)

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=10)
        self.peak_mb = max(self.peak_mb, tree_rss_mb())
