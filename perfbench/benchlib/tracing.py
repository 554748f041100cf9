"""Benchmark-side spans: recorded around calls into the program's layers.

The traced run wraps methods *on the objects the benchmark built* (an
engine instance, a sweep runner, a pool, a service) — never on classes —
so the untraced run executes exactly the program's own code.

A span has a name, a start, an end, a parent and a trace identifier that
all spans of one step, launch or job share. Spans stay in memory and
are written out once, at the end of the run. A layer's self time is the
time its spans cover minus the part of that time their child spans
cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from .common import mean, percentile

#: The engine's four kernels (paper Section IV) in step order.
ENGINE_STAGES = ("scan", "select", "move", "support")


@dataclass
class Span:
    span_id: int
    name: str
    trace_id: str
    parent_id: Optional[int]
    start: float
    end: float = 0.0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanLog:
    """In-memory span store; spans nest per thread through a parent stack."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.origin = time.perf_counter()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, trace_id: Optional[str] = None, **attrs) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if trace_id is None:
            trace_id = parent.trace_id if parent is not None else name
        sp = Span(
            next(self._ids),
            name,
            trace_id,
            parent.span_id if parent is not None else None,
            time.perf_counter(),
            attrs=attrs,
        )
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(sp)

    def add(
        self,
        name: str,
        start: float,
        end: float,
        trace_id: str,
        parent_id: Optional[int] = None,
        **attrs,
    ) -> Span:
        """Record a span whose bounds were taken elsewhere (another thread)."""
        sp = Span(next(self._ids), name, trace_id, parent_id, start, end, attrs)
        with self._lock:
            self.spans.append(sp)
        return sp

    def wrap(self, obj, attr: str, name: str, trace_id=None) -> None:
        """Shadow ``obj.attr`` with a spanned call (instance attribute only).

        ``trace_id`` may be a callable taking the wrapped object; it is
        evaluated per call (e.g. the engine's step counter).
        """
        inner = getattr(obj, attr)

        @functools.wraps(inner)
        def spanned(*args, **kwargs):
            tid = trace_id(obj) if callable(trace_id) else trace_id
            with self.span(name, tid):
                return inner(*args, **kwargs)

        setattr(obj, attr, spanned)

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    # ------------------------------------------------------------------
    def self_times(self) -> Dict[str, dict]:
        """Per-layer span count, covered time and self time (seconds)."""
        children: Dict[int, List[Span]] = {}
        for sp in self.spans:
            if sp.parent_id is not None:
                children.setdefault(sp.parent_id, []).append(sp)
        out: Dict[str, dict] = {}
        for sp in self.spans:
            covered = _union_length(
                (max(c.start, sp.start), min(c.end, sp.end))
                for c in children.get(sp.span_id, ())
            )
            row = out.setdefault(sp.layer, {"spans": 0, "total_s": 0.0, "self_s": 0.0})
            row["spans"] += 1
            row["total_s"] += sp.duration
            row["self_s"] += max(0.0, sp.duration - covered)
        return out

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sp in sorted(self.spans, key=lambda s: (s.start, s.span_id)):
                fh.write(
                    json.dumps(
                        {
                            "id": sp.span_id,
                            "name": sp.name,
                            "layer": sp.layer,
                            "trace": sp.trace_id,
                            "parent": sp.parent_id,
                            "start_s": sp.start - self.origin,
                            "end_s": sp.end - self.origin,
                            **({"attrs": sp.attrs} if sp.attrs else {}),
                        }
                    )
                    + "\n"
                )


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time_table(rows: Dict[str, dict]) -> str:
    total_self = sum(r["self_s"] for r in rows.values()) or 1.0
    lines = [f"{'layer':10s} {'spans':>7s} {'covered ms':>12s} {'self ms':>12s} {'self share':>10s}"]
    for layer, r in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(
            f"{layer:10s} {r['spans']:7d} {1e3 * r['total_s']:12.2f} "
            f"{1e3 * r['self_s']:12.2f} {r['self_s'] / total_self:10.1%}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Engine stages
# ----------------------------------------------------------------------
def wrap_engine(log: SpanLog, engine, label: str) -> None:
    """Span ``step()`` and the four ``_stage_*`` kernels of one engine.

    Each step's spans share the trace id ``<label>/step<t>``. The part of
    a step its stages do not cover — crossing bookkeeping, hooks, the
    report — is the step span's self time, reported as ``record``.
    """
    step_id = lambda eng: f"{label}/step{eng.t}"  # noqa: E731
    log.wrap(engine, "step", "engine.step", step_id)
    for stage in ENGINE_STAGES:
        log.wrap(engine, f"_stage_{stage}", f"engine.{stage}")


def put_engine_metrics(out, log: SpanLog) -> None:
    """Per-step engine figures from the stage spans, into ``out``.

    ``engine.<stage>_ms`` are mean milliseconds per step; they add up:
    ``scan + select + move + support + record`` is the mean step time.
    ``engine.stage_share`` is the share of step wall the four stages
    cover. The stage accounting compares the median step with the
    median per-step sum of the stages; the difference is the part of a
    typical step no stage accounts for.
    """
    steps = log.named("engine.step")
    n = len(steps)
    per_step = {s.span_id: 0.0 for s in steps}
    staged = 0.0
    for stage in ENGINE_STAGES:
        spans = log.named(f"engine.{stage}")
        total = sum(s.duration for s in spans)
        for s in spans:
            per_step[s.parent_id] += s.duration
        out.put(f"engine.{stage}_ms", 1e3 * total / n, n)
        staged += total
    step_total = sum(s.duration for s in steps)
    walls = [s.duration for s in steps]
    out.put("engine.record_ms", 1e3 * (step_total - staged) / n, n)
    out.put("engine.step_ms_p90", 1e3 * percentile(walls, 90), n)
    out.put("engine.stage_share", staged / step_total, n)
    step_p50 = 1e3 * percentile(walls, 50)
    stages_p50 = 1e3 * percentile(list(per_step.values()), 50)
    out.extra["stage_accounting"] = {
        "step_ms_p50": step_p50,
        "stages_ms_p50": stages_p50,
        "stages_share_of_p50": stages_p50 / step_p50,
        "unattributed_ms_p50": step_p50 - stages_p50,
        "step_ms_mean": 1e3 * mean(walls),
        "steps": n,
    }
