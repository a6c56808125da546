"""Sample statistics and span arithmetic for the benchmark.

Two rules live here because the self-tests pin them:

* the **percentile rule** - a timing is reported as its median and the
  highest percentile that still has at least :data:`TAIL_SAMPLES`
  samples beyond it, so a p90 needs at least 100 samples;
* **span self time** - a span's duration minus the part of it that its
  child spans cover, where overlapping children count once (the union
  of their intervals, clipped to the parent).
"""

from __future__ import annotations

import math
import statistics
from array import array
from typing import Sequence

#: Samples that must lie beyond the highest percentile reported.
TAIL_SAMPLES = 10


class TooFewSamples(ValueError):
    """A percentile was asked of fewer samples than the rule allows."""


def min_samples(q: float) -> int:
    """The fewest samples for which percentile ``q`` has ten beyond it."""
    return math.ceil(TAIL_SAMPLES / (1.0 - q / 100.0) - 1e-9)


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` of ``samples``, under the tail rule.

    Raises :class:`TooFewSamples` unless at least ``TAIL_SAMPLES``
    samples rank strictly above the returned one.
    """
    n = len(samples)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < TAIL_SAMPLES:
        raise TooFewSamples(
            f"p{q:g} of {n} samples leaves {n - rank} beyond it; "
            f"the rule needs {TAIL_SAMPLES} (at least {min_samples(q)} samples)"
        )
    return sorted(samples)[rank - 1]


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> "array[float]":
    """Self time of every span: duration minus the union of its children.

    Spans are given in start order (a parent precedes its children), as
    a tracer records them.  Children may overlap each other and may
    outlive their parent; only the covered part of the parent's own
    interval is subtracted, and overlapping stretches count once.
    """
    n = len(starts)
    # Flat arrays: a traced run holds millions of spans.
    covered = array("d", bytes(8 * n))
    # Per parent: how far its children's union already reaches.
    reach = array("d", starts)
    for i in range(n):
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], reach[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
        reach[p] = max(reach[p], hi)
    return array("d", (ends[i] - starts[i] - covered[i] for i in range(n)))


def iqr_share(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else math.inf


__all__ = [
    "TAIL_SAMPLES",
    "TooFewSamples",
    "iqr_share",
    "min_samples",
    "percentile",
    "self_times",
]
