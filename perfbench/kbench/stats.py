"""The arithmetic every metric goes through, kept free of I/O so it is tested.

* Timings are summarised as a median plus the highest tail percentile the
  sample supports: a percentile ``p`` is reported only when at least
  :data:`MIN_BEYOND` samples lie beyond it.
* Open-loop latency runs from a request's *scheduled* send, so a stall
  that delays later sends is charged to them.
* A span's self time is its duration minus the part of it its children
  cover (overlapping children are counted once).
* The roofline bound is the lower of peak compute and bandwidth × FLOPs/byte.
* Host drift is taken out of a gated number by scaling it to a reference
  host, with a probe that runs no repository code, timed through the same
  run.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

#: Samples that must lie beyond a tail percentile for it to be reported.
MIN_BEYOND = 10

#: Tail percentiles tried, highest first.
TAILS = (99.9, 99.0, 90.0)

#: The reference host the gated numbers are scaled to: one iteration of an
#: empty interpreted loop takes REF_LOOP_NS there.  (A 2-vCPU Xeon VM reads
#: 17-27 ns, depending on what shares its cores.)
REF_LOOP_NS = 20.0


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return float(ordered[low])
    frac = rank - low
    return float(ordered[low] * (1.0 - frac) + ordered[high] * frac)


def supported_tail(n: int) -> Optional[float]:
    """The highest of :data:`TAILS` with at least :data:`MIN_BEYOND` samples beyond it."""
    for q in TAILS:
        # The tolerance absorbs float error in (100 - q): 10000 samples
        # leave exactly 10 beyond p99.9.
        if n * (100.0 - q) / 100.0 + 1e-9 >= MIN_BEYOND:
            return q
    return None


class Summary(NamedTuple):
    """Median and supported tail of one sample."""

    n: int
    p50: float
    tail_q: Optional[float]
    tail: Optional[float]


def summarize(values: Sequence[float]) -> Summary:
    """Median plus the highest supported tail percentile of ``values``."""
    if not values:
        raise ValueError("cannot summarise an empty sample")
    q = supported_tail(len(values))
    tail = percentile(values, q) if q is not None else None
    return Summary(len(values), float(statistics.median(values)), q, tail)


def scheduled_latencies(
    scheduled: Sequence[float], done: Sequence[float]
) -> List[float]:
    """Per-request latency from the scheduled send to completion."""
    if len(scheduled) != len(done):
        raise ValueError("scheduled and done must pair up one to one")
    return [d - s for s, d in zip(scheduled, done)]


def lateness(scheduled: Sequence[float], sent: Sequence[float]) -> List[float]:
    """How late the generator sent each request (never negative)."""
    if len(scheduled) != len(sent):
        raise ValueError("scheduled and sent must pair up one to one")
    return [max(0.0, t - s) for s, t in zip(scheduled, sent)]


def covered_length(
    start: float, end: float, intervals: Iterable[Tuple[float, float]]
) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, s), min(end, e)) for s, e in intervals if e > start and s < end
    )
    total = 0.0
    cur_s: Optional[float] = None
    cur_e = 0.0
    for s, e in clipped:
        if cur_s is None or s > cur_e:
            if cur_s is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_s is not None:
        total += cur_e - cur_s
    return total


def self_time(
    start: float, end: float, children: Iterable[Tuple[float, float]]
) -> float:
    """A span's duration minus the interval its child spans cover."""
    return (end - start) - covered_length(start, end, children)


def roofline_gflops(
    peak_gflops: float, bandwidth_gbps: float, flops: float, nbytes: float
) -> float:
    """Attainable GFLOP/s: ``min(peak, bandwidth × flops / bytes)``."""
    if nbytes <= 0:
        return peak_gflops
    return min(peak_gflops, bandwidth_gbps * flops / nbytes)


def roofline_pct(
    achieved_gflops: float,
    peak_gflops: float,
    bandwidth_gbps: float,
    flops: float,
    nbytes: float,
) -> float:
    """Achieved rate as a percentage of the roofline bound."""
    bound = roofline_gflops(peak_gflops, bandwidth_gbps, flops, nbytes)
    return 100.0 * achieved_gflops / bound


def at_reference_speed(value: float, probe: float, reference: float) -> float:
    """``value`` as the reference host would read it.

    ``probe`` is what the host probe read in the same run and ``reference``
    what it reads on the reference host, in the metric's own sense: times
    for a time, rates for a rate.  A host twice as slow reads a probe time
    twice the reference, and its times are halved.
    """
    return value * reference / probe
