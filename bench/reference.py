"""Fixed reference loops that measure how fast the machine is right now.

The benchmark's host shares physical cores with other tenants: the speed a
process gets switches between levels up to 1.7x apart, for seconds to
minutes at a time, and the operating system reports no steal time for it
(see README, "Noise"). A reference loop does the same work on every run
and every commit, so the ratio of its nominal time to its fastest time in
a process is how much the machine slowed that process down. The benchmark
scales its timings by that ratio.

`python` is interpreter work like the graph code (dict and set lookups, a
BFS, a heap); `numpy` streams 1080p float64 arrays like the depth filter.
"""

from __future__ import annotations

import heapq
import random
import time

import numpy as np

# fastest time of each loop on the reference host (2-vCPU Xeon VM, Python 3.11.7,
# numpy 2.4.6, measured uncontended); a scaled time is in seconds on that host
NOMINAL_S = {"python": 0.0178, "numpy": 0.0420}

_rng = random.Random(5)
_ADJ = {u: tuple(sorted(_rng.sample(range(3000), 8))) for u in range(3000)}


def _python() -> None:
    seen = {0: 0}
    queue = [0]
    i = 0
    while i < len(queue):
        u = queue[i]
        i += 1
        for v in _ADJ[u]:
            if v not in seen:
                seen[v] = seen[u] + 1
                queue.append(v)
    heap: list[tuple[int, int]] = []
    for k in range(20000):
        heapq.heappush(heap, ((k * 7919) % 1000, k))
    while heap:
        heapq.heappop(heap)


def _numpy() -> None:
    # about 65 MB per pass: a process that runs this loop reaches at least
    # that much resident memory, so peak memory is read in a process that
    # never runs it (worker.py, `peak`)
    depth = np.linspace(1.0, 2.0, 1920 * 1080).reshape(1080, 1920)
    gy, gx = np.gradient(depth)
    ratio = np.hypot(gx, gy) / depth
    (ratio > 0.5).sum()


KERNELS = {"python": _python, "numpy": _numpy}


def sample(kind: str) -> float:
    """Seconds one pass of the reference loop takes now."""
    start = time.perf_counter()
    KERNELS[kind]()
    return time.perf_counter() - start
