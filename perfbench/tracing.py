"""In-memory spans around the calls that ``interdomain.layer`` makes.

The traced run rebinds names in the ``interdomain.layer`` module namespace:
the four entry points the benchmark calls, and the ``ssm`` / ``features``
functions that ``layer`` calls.  Nothing under ``src/`` is edited; the
original functions are put back when the ``traced`` block exits.

A span records its name, its parent span, the operation id it belongs to
(one per outermost call, that is one per timed call), start and end.  A
span's self time is its duration minus the durations of its direct children;
calls are single-threaded and strictly nested, so the children never
overlap.  ``Tracer.check_against`` checks the spans against the call times
the benchmark measures outside them.
"""
from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

ENTRY_POINTS = ("forward", "prefill", "decode_step", "backward")
CALLEES = (
    "run_scan",
    "backward_checkpointed",
    "apply_feature_map",
    "feature_map_backward",
    "short_conv_with_tail",
    "rope_apply",
    "rmsnorm_bias",
    "rmsnorm_bias_backward",
)


def span_name(fn) -> str:
    """``<module>.<function>``, e.g. ``ssm.run_scan``; a wrapper made by
    ``Tracer.wrap`` keeps the name of the function it wraps."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


@dataclass
class Span:
    name: str
    parent: int | None
    op: int
    start: float
    end: float = 0.0
    backend: str | None = None
    children_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _ops: int = 0

    def wrap(self, fn):
        name = span_name(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._stack:
                parent, op = self._stack[-1], self.spans[self._stack[-1]].op
            else:
                self._ops += 1
                parent, op = None, self._ops
            # run_scan(ssm, z, backend, ...): keep the backend for the split
            backend = (args[2] if len(args) > 2 else kwargs.get("backend")) \
                if name == "ssm.run_scan" else None
            span = Span(name, parent, op, time.perf_counter(), backend=backend)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    self.spans[parent].children_s += span.duration

        return wrapper

    def check_against(self, calls: list[tuple[str, float]]) -> list[str]:
        """Compare the spans with wall times measured outside them.

        ``calls`` lists each timed call as (kind, seconds) in the order made,
        the kind starting with the entry point's name.  Each call must have
        one root span of that entry point, no longer than the call and
        short of it by at most the wrapper's own cost; and no span's
        children may last longer than the span.  Returns the problems found.
        """
        problems = []
        roots = [s for s in self.spans if s.parent is None]
        if len(roots) != len(calls):
            problems.append(f"{len(roots)} root spans for {len(calls)} timed calls")
        for root, (kind, seconds) in zip(roots, calls):
            gap = seconds - root.duration
            if root.name != f"layer.{kind.split('.')[0]}" or not 0 <= gap <= 5e-4 + 0.02 * seconds:
                problems.append(f"root span {root.name} lasts {root.duration!r} s, "
                                f"timed call {kind} {seconds!r} s")
        problems += [f"children of {s.name} (op {s.op}) outlast it by {-s.self_s!r} s"
                     for s in self.spans if s.self_s < -1e-9]
        return problems

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name (and per scan backend): summed self time and calls."""
        from interdomain import layer
        from interdomain.config import BACKENDS

        names = [span_name(getattr(layer, n)) for n in (*ENTRY_POINTS, *CALLEES)]
        out: dict[str, dict[str, float]] = {
            name: {"self_s": 0.0, "calls": 0}
            for name in (*names, *(f"ssm.run_scan.{b}" for b in BACKENDS))
        }
        for span in self.spans:
            keys = [span.name]
            if span.backend is not None:
                keys.append(f"ssm.run_scan.{span.backend}")
            for key in keys:
                out[key]["self_s"] += span.self_s
                out[key]["calls"] += 1
        return out

    def dump(self) -> list[dict]:
        return [
            {"name": s.name, "parent": s.parent, "op": s.op, "start": s.start,
             "end": s.end, "self_s": s.self_s, "backend": s.backend}
            for s in self.spans
        ]


@contextmanager
def traced(tracer: Tracer):
    """Route every layer entry point and layer -> ssm/features call through
    ``tracer`` until the block exits."""
    from interdomain import layer

    saved = {name: getattr(layer, name) for name in (*ENTRY_POINTS, *CALLEES)}
    try:
        for name, fn in saved.items():
            setattr(layer, name, tracer.wrap(fn))
        yield tracer
    finally:
        for name, fn in saved.items():
            setattr(layer, name, fn)
