"""Shared machinery for the benchmark: a fresh import of the package under
test, in-memory tracing, weighted percentiles and machine facts."""

from __future__ import annotations

import importlib
import os
import platform
import resource
import sys
from collections import Counter
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAYERS = ("fields", "orders", "parser", "decomposition", "verification", "cli")


class BenchError(Exception):
    """The benchmark cannot run in this checkout."""


def import_fresh():
    """Import every layer of the package from this checkout's `src`, dropping
    any copy already imported, so each call pays the full import cost.

    Returns a namespace with one attribute per layer module."""
    if not (SRC / "bqsos" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / 'bqsos'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "bqsos" or m.startswith("bqsos.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    api = SimpleNamespace(package=importlib.import_module("bqsos"))
    for layer in LAYERS:
        setattr(api, layer, importlib.import_module(f"bqsos.{layer}"))
    origin = Path(api.package.__file__).resolve()
    if SRC not in origin.parents:
        raise BenchError(f"bqsos was imported from {origin}, not from {SRC}")
    return api


class Tracer:
    """Spans and counters kept in memory and written out when the run ends.

    A span is [name, start, end, parent span index, op id].  The op id is
    set by the caller before each op so that all spans of one op share it.
    """

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.op = None
        self._open = []

    @contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else None
        record = [name, perf_counter(), None, parent, self.op]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._open.pop()

    def count(self, name, n=1):
        self.counters[name] += n

    def total(self, name):
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def dump(self):
        return {
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "counters": dict(self.counters),
        }


class NullTracer:
    """Stands in for a Tracer in untraced runs; records nothing."""

    op = None

    def span(self, name):
        return nullcontext()

    def count(self, name, n=1):
        pass


def weighted_percentile(samples, q):
    """Nearest-rank percentile of (value, weight) samples, q in (0, 1]."""
    ordered = sorted(samples)
    total = sum(w for _, w in ordered)
    if not total:
        raise ValueError("no samples")
    rank = q * total
    seen = 0
    for value, weight in ordered:
        seen += weight
        if seen >= rank:
            return value
    return ordered[-1][0]


def peak_rss_mb():
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_sha():
    """HEAD commit of the checkout, read from .git without running git;
    None when the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or None


def machine_info():
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
    }
