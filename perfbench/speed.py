"""The machine's speed, sampled between requests, to scale times to a
fixed reference speed.

On a shared host the CPU a run gets can slow down by half for seconds at a
time, so raw wall times of the same requests differ between runs by more
than any useful bound. The benchmark therefore times a fixed pure-Python
kernel (a depth-first walk over a constant graph and the allocation,
hashing and sorting of small objects, the kinds of work the reasoner does)
between requests, and reports each request's time scaled by
``REFERENCE_NS / k``, where ``k`` is the median kernel time of the samples
nearest to it. A reported millisecond is thus a millisecond on a machine
that runs the kernel in exactly ``REFERENCE_NS``. The kernel never touches
the package, so a change to ``src/`` cannot change it; raw times are kept in
the record alongside.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time

REFERENCE_NS = 1_000_000
# The samples a request's scale is taken from, and how often to sample.
NEAREST = 8
EVERY_NS = 20_000_000
MAX_BURST = 5

_rng = random.Random("perfbench speed kernel")
_GRAPH = {v: [_rng.randrange(300) for _ in range(4)] for v in range(300)}


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def kernel_ns() -> int:
    """Time one pass of the fixed kernel, in nanoseconds."""
    start = time.perf_counter_ns()
    reached = 0
    for source in range(0, 300, 75):
        seen = {source}
        stack = [source]
        while stack:
            for w in _GRAPH[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        reached += len(seen)
    nodes = [_Node((i, str(i)), i + reached) for i in range(1000)]
    index = {node.key: node.value for node in nodes}
    sorted(index.values())
    return time.perf_counter_ns() - start


class Speed:
    """Kernel samples as (time, ns), taken between requests."""

    def __init__(self):
        self.times: list[int] = []
        self.samples: list[int] = []

    def sample(self, count: int = 1) -> None:
        """Take ``count`` samples after one untimed pass. Without that pass
        (and the collection the caller runs first), the first pass after a
        request took 1.2-2.5 times as long as the ones after it."""
        if count:
            kernel_ns()
        for _ in range(count):
            ns = kernel_ns()
            self.times.append(time.perf_counter_ns())
            self.samples.append(ns)

    def between(self) -> None:
        """Sample once per ``EVERY_NS`` since the last sample, at most
        ``MAX_BURST`` times, so long requests get as many samples near them
        as short ones."""
        last = self.times[-1] if self.times else 0
        due = (time.perf_counter_ns() - last) // EVERY_NS
        self.sample(min(MAX_BURST, due))

    def scale_at(self, start_ns: float, end_ns: float) -> float:
        """REFERENCE_NS over the median of the samples taken from one span
        length before ``start_ns`` to one span length after ``end_ns``, or
        of the ``NEAREST`` samples nearest the span's midpoint, whichever
        are more: the speed at the two ends of a long request says little
        about its average over the request."""
        times = self.times
        mid = (start_ns + end_ns) / 2
        lo = hi = bisect.bisect_left(times, mid)
        while hi - lo < NEAREST and (lo > 0 or hi < len(times)):
            if hi >= len(times) or (lo > 0 and mid - times[lo - 1] <= times[hi] - mid):
                lo -= 1
            else:
                hi += 1
        span = end_ns - start_ns
        lo = min(lo, bisect.bisect_left(times, start_ns - span))
        hi = max(hi, bisect.bisect_right(times, end_ns + span))
        return REFERENCE_NS / statistics.median(self.samples[lo:hi])

    def scale(self) -> float:
        """REFERENCE_NS over the median of all samples."""
        return REFERENCE_NS / statistics.median(self.samples)
