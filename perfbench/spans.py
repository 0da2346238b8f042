"""In-memory spans recorded from the benchmark's own call sites.

The benchmark wraps each call it makes into a layer's public function
(``api.request``, ``.digest``, ``submit``, the engine replay calls,
``ShardRouter.shard_for``, ``plan_request``, ``TechSpec.derive``,
``api.table2``, ``api.solve_crossbar``) in a span; nothing inside the
program is instrumented.  Spans stay in a list until the run ends,
then :meth:`Recorder.dump` writes them as JSON lines.  The parent is
tracked per asyncio task through a context variable, so concurrent
callers never adopt each other's spans.
"""

from __future__ import annotations

import contextvars
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

_CURRENT: "contextvars.ContextVar[int]" = contextvars.ContextVar(
    "perfbench_span", default=-1)


@dataclass
class Span:
    id: int
    parent: int
    op: int          # the operation (request or solve index) it belongs to
    name: str
    start: float
    end: float = 0.0


class Recorder:
    """Collects spans; :meth:`self_times` reduces them per span name."""

    def __init__(self) -> None:
        self.spans: List[Span] = []

    @contextmanager
    def span(self, name: str, op: int = -1) -> Iterator[Span]:
        parent = _CURRENT.get()
        if op < 0 and parent >= 0:
            op = self.spans[parent].op
        record = Span(len(self.spans), parent, op, name, time.perf_counter())
        self.spans.append(record)
        token = _CURRENT.set(record.id)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            _CURRENT.reset(token)

    def self_times(self) -> Dict[str, Tuple[float, int]]:
        """``name -> (total self seconds, calls)``.

        A span's self time is its duration minus the union of its
        children's intervals (children of one span may overlap when
        they belong to concurrent tasks started under it).
        """
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent >= 0:
                children.setdefault(span.parent, []).append(span)
        totals: Dict[str, Tuple[float, int]] = {}
        for span in self.spans:
            covered = 0.0
            reach = span.start
            for child in sorted(children.get(span.id, ()),
                                key=lambda c: c.start):
                lo, hi = max(child.start, reach), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            total, calls = totals.get(span.name, (0.0, 0))
            totals[span.name] = (total + span.end - span.start - covered,
                                 calls + 1)
        return totals

    def durations(self, name: str) -> List[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def dump(self, path: Path) -> None:
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as handle:
            for s in self.spans:
                handle.write(json.dumps({
                    "id": s.id, "parent": s.parent, "op": s.op,
                    "name": s.name, "start_s": s.start - origin,
                    "end_s": s.end - origin}) + "\n")
