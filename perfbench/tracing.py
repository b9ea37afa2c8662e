"""Span recorder and counting flow wrappers for the traced benchmark run.

Spans are recorded only around the benchmark's own calls into the package's
layers; nothing inside the package is instrumented.  Each span keeps its
name, start, end, parent span and operation id in memory, and the whole list
is written out once the run ends.  When tracing is off every hook is a
no-op, so the untraced run measures the package alone.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

from perfbench.cores import clock

_NULL_SPAN = nullcontext()

#: Span names owned by the benchmark itself rather than by a package layer.
BENCH_PREFIX = "bench."


class _Span:
    __slots__ = ("tracer", "name", "index", "start")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        tr = self.tracer
        self.index = len(tr.spans)
        tr.spans.append(None)
        tr._stack.append(self.index)
        self.start = clock()
        return self

    def __exit__(self, *exc) -> None:
        end = clock()
        tr = self.tracer
        tr._stack.pop()
        parent = tr._stack[-1] if tr._stack else -1
        tr.spans[self.index] = (self.name, self.start, end, parent, tr.op_id)


class Tracer:
    """In-memory span and counter store; inert when ``enabled`` is false."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op_id = -1
        self._stack: list[int] = []

    def span(self, name: str):
        """Context manager timing one call into a layer (or a benchmark step)."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name)

    def count(self, name: str, value: float = 1) -> None:
        if self.enabled:
            self.counts[name] += value

    def wrap_flow(self, flow):
        """Copy of a ``FlowSpec`` whose right-hand side and Jacobian are counted.

        The counts depend only on the integrator's path, so they repeat
        exactly between runs with the same inputs.
        """
        if not self.enabled:
            return flow
        counts = self.counts
        rhs, jac = flow.rhs, flow.jacobian

        def counted_rhs(t, z):
            counts["dynamics.rhs_evals"] += 1
            return rhs(t, z)

        def counted_jac(t, z):
            counts["dynamics.jac_evals"] += 1
            return jac(t, z)

        return replace(flow, rhs=counted_rhs, jacobian=counted_jac)

    def self_times(self) -> dict[str, float]:
        """Per span name, the summed span time minus time covered by child spans."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            name, start, end, parent, _ = span
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child_time[i]
        return dict(out)

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for name, *_ in self.spans:
            out[name] += 1
        return dict(out)

    def write(self, path: Path) -> None:
        """Write the recorded spans, one JSON array per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "op"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
