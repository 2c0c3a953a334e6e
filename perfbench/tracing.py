"""Spans recorded around calls into ``hog``, and the statistics reported.

A span is one call into a layer: its name, start and end (``perf_counter``
seconds) and the span that caused it.  Spans stay in memory until the run
ends.  Self time is a span's duration minus the time its child spans cover;
children of one span never overlap, because the benchmark runs in one
thread.
"""

from __future__ import annotations

import contextlib
import math
import time
from collections import defaultdict


class Tracer:
    """Records spans; ``Tracer(enabled=False)`` records nothing."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def span(self, name: str):
        if not self.enabled:
            return contextlib.nullcontext()
        return self._span(name)

    @contextlib.contextmanager
    def _span(self, name: str):
        sid = len(self.spans)
        rec = {
            "id": sid,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def self_times(self) -> dict[str, list[float]]:
        """Self time of every finished span, grouped by span name."""
        covered = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                covered[rec["parent"]] += rec["end"] - rec["start"]
        out: dict[str, list[float]] = defaultdict(list)
        for rec in self.spans:
            out[rec["name"]].append(rec["end"] - rec["start"] - covered[rec["id"]])
        return out


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (``q`` in (0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# Percentiles tried for the tail figure, highest first.
_TAILS = (0.999, 0.99, 0.9, 0.5)


def tail(values: list[float]) -> tuple[str, float] | None:
    """The highest percentile with at least ten samples beyond it, as
    ``(label, value)``; ``None`` when there are fewer than 20 samples."""
    n = len(values)
    for q in _TAILS:
        if n - math.ceil(q * n) >= 10:
            return f"p{q * 100:g}", quantile(values, q)
    return None
