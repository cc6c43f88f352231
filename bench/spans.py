"""In-memory span recorder for the benchmark's traced runs.

A span is one timed call into the package: name, start, end, the span
that caused it and the run it belongs to.  Spans stay in a list while
the run executes and are written out once, when it ends.  With tracing
off, ``span`` hands back one shared no-op context, so untraced runs pay
a method call and nothing else.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import asdict, dataclass, field

_NO_SPAN = contextlib.nullcontext()


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    run_id: str
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans when enabled; a no-op otherwise."""

    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[Span] = []
        self._open: list[Span] = []

    def span(self, name: str, **attrs):
        if not self.enabled:
            return _NO_SPAN
        return self._record(name, attrs)

    @contextlib.contextmanager
    def _record(self, name: str, attrs: dict):
        parent = self._open[-1].span_id if self._open else None
        sp = Span(len(self.spans), parent, self.run_id, name, time.perf_counter(), attrs=attrs)
        self.spans.append(sp)
        self._open.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    def as_records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread and nest properly, so children of one
    parent never overlap and their durations add up.
    """
    out = {s.span_id: s.duration for s in spans}
    for s in spans:
        if s.parent_id is not None:
            out[s.parent_id] -= s.duration
    return out


def total(spans: list[Span], name: str, **attrs) -> float:
    """Summed duration of the spans with this name and these attributes."""
    return sum(
        s.duration
        for s in spans
        if s.name == name and all(s.attrs.get(k) == v for k, v in attrs.items())
    )
