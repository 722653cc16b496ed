"""Pure statistics helpers of the benchmark (no ``repro`` imports).

* :func:`nearest_rank` / :func:`tail` — latency percentiles on observed
  samples.  The tail is the highest nearest-rank percentile that still has
  at least ``min_beyond`` samples above it, so a run never reports a tail
  resting on fewer than ten observations.
* :func:`self_times` — per-span self time: a span's duration minus the
  part of its interval covered by its direct children.
* :func:`open_loop` — due-time accounting for a paced (open-loop) feed:
  latency from when each bin was due, queue wait, and late bins.
* :func:`speed_factors` — host speed next to each bin, from the
  calibration units interleaved with the bins (see ``host.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

#: Samples a tail percentile must leave above it.
MIN_BEYOND = 10


def nearest_rank(values: Sequence[float], percentile: float) -> float:
    """The nearest-rank ``percentile`` of ``values`` (an observed sample).

    Rank ``ceil(p/100 * n)`` (1-based) of the sorted values; ``p = 0``
    selects the minimum.
    """
    if not values:
        raise ValueError("nearest_rank of an empty sample")
    if not 0.0 <= percentile <= 100.0:
        raise ValueError(f"percentile {percentile!r} outside [0, 100]")
    data = sorted(values)
    rank = max(1, math.ceil(percentile / 100.0 * len(data)))
    return data[rank - 1]


@dataclass(frozen=True)
class Tail:
    """A tail latency with the percentile and sample count it rests on."""

    value: float
    percentile: float
    samples: int
    beyond: int


def tail(values: Sequence[float], min_beyond: int = MIN_BEYOND
         ) -> Optional[Tail]:
    """Highest nearest-rank percentile with ``min_beyond`` samples above it.

    With ``n`` samples the highest admissible rank is ``n - min_beyond``;
    the sample at that rank is returned with its percentile
    ``100 * (n - min_beyond) / n``.  Returns ``None`` when
    ``n <= min_beyond``: no percentile of such a sample has enough
    observations beyond it.
    """
    n = len(values)
    if n <= min_beyond:
        return None
    rank = n - min_beyond
    data = sorted(values)
    return Tail(value=data[rank - 1], percentile=100.0 * rank / n,
                samples=n, beyond=n - rank)


def median(values: Sequence[float]) -> float:
    """Median as the 50th nearest-rank percentile (an observed value)."""
    return nearest_rank(values, 50.0)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Span:
    """One traced interval: ``parent`` is the id of the enclosing span."""

    id: int
    name: str
    start: float
    end: float
    parent: Optional[int] = None
    bin: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time of every span, keyed by span id.

    Self time is the span's duration minus the union of its *direct*
    children's intervals, each clipped to the parent (grandchildren are
    already inside their own parent, so they never count twice).
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    by_id = {span.id: span for span in spans}
    for span in spans:
        parent = by_id.get(span.parent) if span.parent is not None else None
        if parent is None:
            continue
        start = max(span.start, parent.start)
        end = min(span.end, parent.end)
        if end > start:
            children.setdefault(parent.id, []).append((start, end))
    return {span.id: span.duration - _covered(children.get(span.id, []))
            for span in spans}


# ----------------------------------------------------------------------
# Open-loop (paced) accounting
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OpenLoop:
    """Per-bin timing of a paced feed, measured from each bin's due time."""

    latency: List[float]
    queue_wait: List[float]
    late: List[bool]


def open_loop(first_due: float, period: float, starts: Sequence[float],
              ends: Sequence[float]) -> OpenLoop:
    """Due-time accounting for bins ``0..n-1`` of a feed paced at ``period``.

    Bin ``i`` is due at ``first_due + i * period``.  Its latency runs from
    that due time (not from when the feed handed it over) to the end of
    its ingest, so a stall is charged to every bin queued behind it; its
    queue wait runs from the due time to the start of its ingest; and it is
    late when it completes after bin ``i + 1`` was due.
    """
    if len(starts) != len(ends):
        raise ValueError("starts and ends must have one entry per bin")
    if period <= 0:
        raise ValueError("period must be positive")
    latency, wait, late = [], [], []
    for index, (start, end) in enumerate(zip(starts, ends)):
        due = first_due + index * period
        latency.append(end - due)
        wait.append(start - due)
        late.append(end > due + period)
    return OpenLoop(latency=latency, queue_wait=wait, late=late)


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
#: Calibration units (one per bin) whose median gives a bin's host speed.
SPEED_WINDOW = 15


def speed_factors(unit_times: Sequence[float], reference: float,
                  window: int = SPEED_WINDOW) -> List[float]:
    """Per-sample host speed: ``reference`` over the median unit time of
    the ``window`` samples centred on each one (clipped at the ends).

    Multiplying a wall time by its factor gives reference-host seconds.
    The rolling median follows the host's slow drift while one unit that
    a hiccup hit cannot move it.
    """
    if window < 1:
        raise ValueError("window must be at least 1")
    if reference <= 0:
        raise ValueError("reference must be positive")
    n = len(unit_times)
    half = window // 2
    factors = []
    for index in range(n):
        lo = max(0, min(index - half, n - window))
        hi = min(n, lo + window)
        factors.append(reference / median(unit_times[lo:hi]))
    return factors
