"""In-memory spans recorded around calls into tiflow_ray's layers.

A span is (name, start, end, parent, run id). Spans stay in memory while
the traced pass runs and are written out once at the end. A layer's self
time is its span's duration minus the part of that interval its child
spans cover.

`Patched` wraps a handful of driver-side functions (epoch planning,
manifest commit/latest, schema casts, partition folds) for the duration
of a traced pass. Workers import their own copies of tiflow_ray, so only
calls made in this process are recorded.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        s = Span(sid, name, time.perf_counter(), 0.0, parent, self.run_id)
        self.spans.append(s)
        self._stack.append(sid)
        try:
            yield s
        finally:
            self._stack.pop()
            s.end = time.perf_counter()

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(asdict(s)) + "\n")


def _covered(start: float, end: float,
             intervals: list[tuple[float, float]]) -> float:
    """Length of the union of `intervals`, clipped to [start, end]."""
    total, cur_a, cur_b = 0.0, None, None
    for a, b in sorted((max(a, start), min(b, end)) for a, b in intervals):
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id → duration minus the time its direct children cover."""
    kids: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append((s.start, s.end))
    return {s.sid: s.dur - _covered(s.start, s.end, kids.get(s.sid, []))
            for s in spans}


def totals(spans: list[Span]) -> dict[str, dict]:
    """Per span name: count, total duration and total self time."""
    st = self_times(spans)
    out: dict[str, dict] = {}
    for s in spans:
        agg = out.setdefault(s.name, {"count": 0, "total": 0.0, "self": 0.0})
        agg["count"] += 1
        agg["total"] += s.dur
        agg["self"] += st[s.sid]
    return out


class Patched:
    """Context manager that routes the driver-side layer entry points
    through `tracer` and restores the originals on exit."""

    def __init__(self, tracer: Tracer):
        from tiflow_ray.pipelines import multitable, replay
        from tiflow_ray.stages import merge
        from tiflow_ray.stages.schema_evo import SchemaRegistry
        from tiflow_ray.state.checkpoint import LakeState

        self.tracer = tracer
        self.targets = [
            (replay, "plan_epochs", "sources.wal.plan"),
            (multitable, "plan_epochs", "sources.wal.plan"),
            (LakeState, "commit", "state.checkpoint.commit"),
            (LakeState, "latest", "state.checkpoint.latest"),
            (SchemaRegistry, "cast_table", "stages.schema_evo.cast"),
            (merge, "fold_part", "stages.merge.fold"),
        ]
        self.saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        for owner, attr, name in self.targets:
            fn = owner.__dict__[attr]
            self.saved.append((owner, attr, fn))
            setattr(owner, attr, self.tracer.wrap(fn, name))
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self.saved):
            setattr(owner, attr, fn)
        self.saved.clear()
        return False
