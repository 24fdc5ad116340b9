"""In-memory span recorder used by the traced benchmark runs.

The tracer wraps functions of the program from the outside (see
``layers.py``): each wrapped call records one span — name, layer, start,
end, the span that was open on the same thread when it started, and the
unit of work (crawl day, tick, request) it belongs to.  Spans stay in
memory and are written once, at exit, as Chrome trace-event JSON.

A layer's self time is the summed duration of its spans minus the time
covered by their child spans, so nested layers (a sink flush inside a shard
simulation) are never counted twice.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable, Iterable

__all__ = [
    "Span", "Tracer", "chrome_trace", "format_layer_table", "layer_table", "load_dump", "self_times",
]

# (id, parent id, name, layer, start, end, thread id, unit, attrs)
Span = tuple


class Tracer:
    """Collects spans and counters for one process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.active = False
        #: Unit of work new spans are attributed to, unless the thread set
        #: its own (server request threads do).
        self.unit = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        # Forked pool workers inherit the patched functions; they run them
        # unrecorded (their spans could never be written out).
        os.register_at_fork(after_in_child=self._disable_in_child)

    def _disable_in_child(self) -> None:
        self.active = False

    # -- recording -------------------------------------------------------------
    def set_thread_unit(self, unit: str | None) -> None:
        self._local.unit = unit

    def record(self, name: str, layer: str, start: float, end: float, **attrs: Any) -> None:
        """Record a finished span that did not nest (e.g. a client request)."""
        unit = getattr(self._local, "unit", None) or self.unit
        self.spans.append(
            (next(self._ids), getattr(self._local, "top", 0), name, layer, start, end,
             threading.get_ident(), unit, attrs)
        )

    def wrap(
        self,
        fn: Callable,
        name: str,
        layer: str,
        *,
        after: Callable[..., None] | None = None,
    ) -> Callable:
        """``fn`` recording a span per call; ``after(result, args, kwargs)``
        runs on success (counters are updated there).

        A generator function gets one span per resumption instead, so the
        span covers the generator's own work and not its consumer's (and no
        ``after`` callback).
        """
        tracer = self
        local = self._local

        def timed(call: Callable, *args, **kwargs):
            span_id = next(tracer._ids)
            parent = getattr(local, "top", 0)
            local.top = span_id
            start = time.perf_counter()
            try:
                return call(*args, **kwargs)
            finally:
                end = time.perf_counter()
                local.top = parent
                unit = getattr(local, "unit", None) or tracer.unit
                tracer.spans.append(
                    (span_id, parent, name, layer, start, end,
                     threading.get_ident(), unit, None)
                )

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        try:
                            item = timed(next, inner) if tracer.active else next(inner)
                        except StopIteration:
                            return
                        yield item
                finally:
                    inner.close()

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            result = timed(fn, *args, **kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def patch(self, owner: object, attr: str, name: str, layer: str, **options: Any) -> None:
        """Replace ``owner.attr`` by its traced version, for the process's life.

        A class method stays a class method, so ``Cls.method(...)`` calls
        still bind the way they did.
        """
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            replacement: object = classmethod(self.wrap(raw.__func__, name, layer, **options))
        else:
            replacement = self.wrap(getattr(owner, attr), name, layer, **options)
        setattr(owner, attr, replacement)

    # -- output ----------------------------------------------------------------
    def dump(self, path: str | Path, *, process: str) -> None:
        """Write spans and counters as JSON (merged later by :func:`chrome_trace`)."""
        payload = {
            "process": process,
            "pid": os.getpid(),
            "spans": [list(s[:8]) + [s[8] or {}] for s in self.spans],
            "counters": dict(self.counters),
        }
        Path(path).write_text(json.dumps(payload))


def load_dump(path: str | Path) -> dict:
    data = json.loads(Path(path).read_text())
    data["spans"] = [tuple(s) for s in data["spans"]]
    return data


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    spans = list(spans)
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span[1]:
            child_time[span[1]] += span[5] - span[4]
    return {span[0]: (span[5] - span[4]) - child_time.get(span[0], 0.0) for span in spans}


def layer_table(dumps: Iterable[dict]) -> list[dict]:
    """Per (layer, name): calls, total and self seconds, largest self first."""
    rows: dict[tuple[str, str], dict] = {}
    for dump in dumps:
        own = self_times(dump["spans"])
        for span in dump["spans"]:
            row = rows.setdefault(
                (span[3], span[2]), {"layer": span[3], "name": span[2], "calls": 0,
                                     "total_s": 0.0, "self_s": 0.0}
            )
            row["calls"] += 1
            row["total_s"] += span[5] - span[4]
            row["self_s"] += own[span[0]]
    return sorted(rows.values(), key=lambda r: -r["self_s"])


def format_layer_table(rows: list[dict]) -> str:
    lines = [f"{'layer':<12} {'span':<26} {'calls':>8} {'self_s':>10} {'total_s':>10}"]
    for row in rows:
        lines.append(
            f"{row['layer']:<12} {row['name']:<26} {row['calls']:>8} "
            f"{row['self_s']:>10.4f} {row['total_s']:>10.4f}"
        )
    return "\n".join(lines)


def chrome_trace(dumps: Iterable[dict], *, metadata: dict | None = None) -> dict:
    """Merge per-process dumps into one Chrome trace-event document.

    ``time.perf_counter`` reads the system-wide monotonic clock on Linux, so
    spans from the load generator and the server share one time axis.
    """
    dumps = list(dumps)
    starts = [s[4] for d in dumps for s in d["spans"]]
    epoch = min(starts) if starts else 0.0
    events: list[dict] = []
    for d in dumps:
        pid = d["pid"]
        events.append({"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                       "args": {"name": d["process"]}})
        for span_id, parent, name, layer, start, end, tid, unit, attrs in d["spans"]:
            args = {"id": span_id, "parent": parent, "unit": unit}
            args.update(attrs or {})
            events.append({
                "name": name, "cat": layer, "ph": "X", "pid": pid, "tid": tid,
                "ts": round((start - epoch) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": args,
            })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "counters": {d["process"]: d["counters"] for d in dumps},
            **(metadata or {}),
        },
    }
