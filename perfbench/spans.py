"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, job): ``parent`` is the index of the
enclosing span (-1 for a root) and ``job`` the id of the job whose root
span encloses it.  Spans are only recorded inside a root span, so calls the
benchmark makes outside jobs and set-up (reference runs, output checks) do
not show up.

Library layers are traced from outside: ``Tracer.install`` swaps each
public function named in ``layers`` for a recording wrapper on every
``dyngame`` module that holds a reference to it, so calls the library
makes internally (a solver's own validate, an oracle's rollouts and
re-solves) are recorded as children of the caller's span.  ``uninstall``
puts the originals back.  No library file is changed.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, job]
        self._stack: list[int] = []
        self._job = None
        self._restore: list[tuple] = []

    @contextmanager
    def root(self, name: str, job):
        """A root span; every span recorded inside it carries ``job``."""
        self._job = job
        try:
            with self.span(name):
                yield
        finally:
            self._job = None

    @contextmanager
    def span(self, name: str):
        if self._job is None:
            yield
            return
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), None, parent, self._job]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            if self._job is None:
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    def install(self, layers: dict) -> None:
        """``layers`` maps a layer name to the function object it traces."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "dyngame" or k.startswith("dyngame."))]
        for name, fn in layers.items():
            wrapper = self._wrap(name, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()

    def dump(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {"names": names, "fields": ["name", "start_us", "end_us", "parent", "job"],
               "spans": [[index[n], round((a - t0) * 1e6, 1), round((b - t0) * 1e6, 1), p, j]
                         for n, a, b, p, j in self.spans]}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sequence."""
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, int(-(-q * len(ordered) // 100)) - 1))
    return ordered[k]


def layer_stats(spans, layers, per: int) -> dict:
    """calls and busy time per ``per`` roots, and median span time, per layer."""
    durations: dict[str, list[float]] = {name: [] for name in layers}
    for name, start, end, _parent, _job in spans:
        if name in durations:
            durations[name].append((end - start) * 1e3)
    out = {}
    for name, ds in durations.items():
        out[name] = {"calls": len(ds) / per, "busy_ms": sum(ds) / per,
                     "p50_ms": percentile(ds, 50) if ds else 0.0}
    return out


def self_times(spans, root_name: str) -> list[tuple[float, float]]:
    """(root duration, root self time) in ms for each root span named
    ``root_name``: the root's duration minus that of its direct children.
    ``spans`` is the tracer's whole list, since parents are list indices."""
    child_ms: dict[int, float] = {}
    for name, start, end, parent, _job in spans:
        if parent >= 0:
            child_ms[parent] = child_ms.get(parent, 0.0) + (end - start) * 1e3
    out = []
    for idx, (name, start, end, parent, _job) in enumerate(spans):
        if parent == -1 and name == root_name:
            total = (end - start) * 1e3
            out.append((total, total - child_ms.get(idx, 0.0)))
    return out
