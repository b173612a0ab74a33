"""Per-second trace joins: the tables every downstream statistic eats.

Power, resource, and request streams are sampled/recorded independently.
:func:`per_second` joins them on whole seconds: a sample belongs to
``int(t)``, a request to the second it *completes* in, the first sample of
a second wins and later ones count as duplicates.  Its rows cover every
second any stream touches, which is the plot-ready timeline of a trial.

:func:`align` keeps the rows the regressions can use: a power sample, a
resource sample, and at least one successful completion in the same second.
Seconds without completions are excluded rather than zero-filled (a
fabricated 0 ms response time would claim perfect responsiveness); every
exclusion is counted.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from antiwatt.errors import EmptyAlignmentError

__all__ = ["AlignedTable", "TimelineRow", "align", "per_second"]


@dataclass(frozen=True)
class TimelineRow:
    """One second of joined traces; a field no stream covers is None."""

    t: int  # epoch second
    rt_ms: Optional[float]  # mean of the successful completions in [t, t+1)
    req_rate: int  # successful completions in [t, t+1)
    failures: int  # failed completions in [t, t+1)
    cpu_util: Optional[float]
    memory_bytes: Optional[int]
    cpu_power_w: Optional[float]
    dram_power_w: Optional[float]


@dataclass(frozen=True)
class AlignedTable:
    rows: Tuple[TimelineRow, ...]
    exclusions: Dict[str, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> List[float]:
        return [getattr(row, name) for row in self.rows]

    def with_memory(self) -> "AlignedTable":
        """Rows usable by the DRAM model (memory reading present)."""
        kept = tuple(r for r in self.rows if r.memory_bytes is not None)
        if not kept:
            raise EmptyAlignmentError(
                "no aligned rows carry a memory reading; DRAM model cannot be fitted"
            )
        dropped = len(self.rows) - len(kept)
        exclusions = dict(self.exclusions)
        if dropped:
            exclusions["missing_memory"] = exclusions.get("missing_memory", 0) + dropped
        return AlignedTable(rows=kept, exclusions=exclusions)

    def extend(self, other: "AlignedTable") -> "AlignedTable":
        """Pool rows across repetitions (row order: self then other)."""
        exclusions = dict(self.exclusions)
        for key, count in other.exclusions.items():
            exclusions[key] = exclusions.get(key, 0) + count
        return AlignedTable(rows=self.rows + other.rows, exclusions=exclusions)


def _first_per_second(samples: Iterable) -> Tuple[Dict[int, object], int]:
    """The first sample of each whole second, and how many later ones were dropped."""
    by_second: Dict[int, object] = {}
    duplicates = 0
    for sample in samples:
        second = int(sample.t)
        if second in by_second:
            duplicates += 1
        else:
            by_second[second] = sample
    return by_second, duplicates


def per_second(
    power: Iterable, resources: Iterable, requests: Iterable
) -> Tuple[Tuple[TimelineRow, ...], int]:
    """Outer join of the three streams on whole seconds, in time order.

    ``requests`` are records with ``completion_s``, ``response_time_ms`` and
    ``success``; a second's rt is the mean of its successful completions,
    summed in record order.  Returns the rows and the number of power and
    resource samples dropped because their second was already filled.
    """
    power_by_s, power_dupes = _first_per_second(power)
    res_by_s, res_dupes = _first_per_second(resources)
    rt_sum: Dict[int, float] = {}
    ok_count: Dict[int, int] = {}
    failures: Dict[int, int] = {}
    for record in requests:
        second = int(record.completion_s)
        if record.success:
            rt_sum[second] = rt_sum.get(second, 0.0) + record.response_time_ms
            ok_count[second] = ok_count.get(second, 0) + 1
        else:
            failures[second] = failures.get(second, 0) + 1
    rows = []
    for second in sorted(set(power_by_s) | set(res_by_s) | set(ok_count) | set(failures)):
        p = power_by_s.get(second)
        r = res_by_s.get(second)
        n_ok = ok_count.get(second, 0)
        rows.append(
            TimelineRow(
                t=second,
                rt_ms=rt_sum[second] / n_ok if n_ok else None,
                req_rate=n_ok,
                failures=failures.get(second, 0),
                cpu_util=r.cpu_util if r else None,
                memory_bytes=r.memory_bytes if r else None,
                cpu_power_w=p.cpu_power_w if p else None,
                dram_power_w=p.dram_power_w if p else None,
            )
        )
    return tuple(rows), power_dupes + res_dupes


def align(power: Iterable, resources: Iterable, requests: Sequence) -> AlignedTable:
    """The :func:`per_second` rows that carry power, resources and a completion.

    Failed requests never count toward rt or rate.  Raises
    :class:`EmptyAlignmentError` when nothing survives.
    """
    rows, duplicates = per_second(power, resources, requests)
    exclusions: Dict[str, int] = {
        "duplicate_second": duplicates,
        "no_power": 0,
        "no_resource": 0,
        "no_completions": 0,
        "failed_request": 0,
    }
    kept: List[TimelineRow] = []
    for row in rows:
        exclusions["failed_request"] += row.failures
        if row.cpu_power_w is None:
            if row.cpu_util is not None and row.req_rate:
                exclusions["no_power"] += 1
        elif row.cpu_util is None:
            exclusions["no_resource"] += 1
        elif not row.req_rate:
            exclusions["no_completions"] += 1
        else:
            kept.append(row)
    if not kept:
        raise EmptyAlignmentError(
            "no second carries power, resources, and at least one completion"
        )
    return AlignedTable(rows=tuple(kept), exclusions={k: v for k, v in exclusions.items() if v})
