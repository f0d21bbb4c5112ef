"""In-memory span tracer that times the package's layers from outside.

Each traced function is replaced, on the module that calls it, by a wrapper
that records one span: name, start, end, parent span and op id, plus any
counters the target declares (rows, bytes, ...).  Spans stay in memory and
are summarized or written out after the run; nothing inside the package is
edited.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

# span record fields
NAME, START, END, PARENT, OP, COUNTS = range(6)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.op = -1

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self._name_id(name), 0.0, 0.0, parent, self.op, None])
        self._stack.append(idx)
        self.spans[idx][START] = time.perf_counter()
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, counter=None):
        """Return ``fn`` wrapped so that every call records a span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if counter is not None:
                self.spans[idx][COUNTS] = counter(args, kwargs, result)
            return result

        return traced

    def install(self, targets) -> list[str]:
        """Patch ``(caller_module, attribute, span_name, counter)`` targets.

        A target whose caller no longer has the attribute is skipped, so a
        refactor that removes a call reads as 0 for that layer; the skipped
        targets are returned.
        """
        skipped = []
        for module_name, attr, name, counter in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                skipped.append(f"{module_name}.{attr}")
                continue
            self._patches.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, counter))
        return skipped

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def per_op(self) -> dict[int, dict[str, dict[str, float]]]:
        """Per op id and span name: inclusive ``s``, ``self_s``, ``calls`` and summed counters.

        A span's self time is its duration minus its direct children's
        durations; spans of one op never overlap their siblings because
        every op runs on one thread.
        """
        child_time = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child_time[rec[PARENT]] += rec[END] - rec[START]
        out: dict[int, dict[str, dict[str, float]]] = defaultdict(dict)
        for idx, rec in enumerate(self.spans):
            dur = rec[END] - rec[START]
            agg = out[rec[OP]].setdefault(
                self.names[rec[NAME]], {"s": 0.0, "self_s": 0.0, "calls": 0}
            )
            agg["s"] += dur
            agg["self_s"] += dur - child_time[idx]
            agg["calls"] += 1
            for key, value in (rec[COUNTS] or {}).items():
                agg[key] = agg.get(key, 0) + value
        return dict(out)

    def write(self, path: Path, extra: dict) -> None:
        """Write every span plus ``extra`` (summaries, environment) as gzipped JSON."""
        doc = dict(extra)
        doc["span_fields"] = ["name", "start", "end", "parent", "op", "counts"]
        doc["names"] = self.names
        doc["spans"] = self.spans
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)


def span_cost_s(samples: int = 20000) -> float:
    """Calibrated cost of one traced call over an untraced one, in seconds."""

    def noop():
        return None

    tracer = Tracer()
    traced = tracer.wrap(noop, "noop")
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(samples):
            noop()
        t1 = time.perf_counter()
        for _ in range(samples):
            traced()
        t2 = time.perf_counter()
        tracer.spans.clear()
        best = min(best, ((t2 - t1) - (t1 - t0)) / samples)
    return best
