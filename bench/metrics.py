"""Arithmetic behind the numbers the benchmark reports.

Kept free of numpy and of gaborlattice so that the tests in
``test_metrics.py`` exercise exactly the code that produces the report.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

#: a tail percentile needs at least this many samples beyond it
TAIL_BEYOND = 10


def tail(times: list[float], beyond: int = TAIL_BEYOND) -> dict:
    """The highest percentile of ``times`` with at least ``beyond`` samples above it.

    With n samples that is the order statistic of rank n - beyond
    (1-based), at percentile 100 (n - beyond) / n.  Only upper
    percentiles (>= 50) count as a tail, so below 2 * beyond samples no
    tail is resolved; the median is reported then, marked
    ``resolved: False``.  (The maximum of a handful of samples would
    mostly measure the machine's slowest moment.)
    """
    if not times:
        raise ValueError("tail of an empty sample")
    ordered = sorted(times)
    n = len(ordered)
    rank = n - beyond
    if n >= 2 * beyond:
        return {"value": ordered[rank - 1], "percentile": 100.0 * rank / n,
                "samples": n, "beyond": n - rank, "resolved": True}
    return {"value": statistics.median(ordered), "percentile": 50.0, "samples": n,
            "beyond": n // 2, "resolved": False}


@dataclass
class Tally:
    """Outcome of every attempted operation, in order; nothing is dropped."""

    times: list[float] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)
    points: list[int] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    def add(self, seconds: float, ok: bool, points: int, error: str | None = None):
        self.times.append(seconds)
        self.ok.append(ok)
        self.points.append(points if ok else 0)
        if error is not None:
            self.errors.append(error)

    @property
    def attempted(self) -> int:
        return len(self.ok)

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted

    def end_to_end(self) -> dict:
        """Throughput and latency of the recorded operations."""
        busy = sum(self.times)
        return {
            "ops_per_s": (self.attempted - self.failed) / busy,
            "points_per_s": sum(self.points) / busy,
            "op_s_p50": statistics.median(self.times),
            "op_s_tail": tail(self.times)["value"],
            "ok_frac": 1.0 - self.fail_frac,
        }


def self_times(spans: list[tuple[str, float, float, int]]) -> list[float]:
    """Self time of each span: its duration minus the part its children cover.

    A span is (name, start, end, parent index or -1).  Children are
    clipped to their parent and overlapping children are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append((end - start) - covered)
    return result


def span_totals(spans: list[tuple[str, float, float, int]]) -> dict[str, dict]:
    """Calls and summed self time per span name."""
    totals: dict[str, dict] = {}
    for (name, *_), own in zip(spans, self_times(spans)):
        entry = totals.setdefault(name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own
    return totals
