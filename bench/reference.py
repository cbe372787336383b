"""A fixed pure-Python computation that gauges the host's current speed.

The benchmark times it between CLI calls. On a shared host the speed of the
machine drifts by tens of percent over minutes, and a call's wall time
divided by the adjacent reference time cancels much of that drift. The
work here never touches ldcnet, so no change to the package moves it.
"""

from __future__ import annotations

import hashlib
import heapq
import random
import time

_N = 200
_rng = random.Random(0)
_ADJ = [[(_rng.randrange(_N), _rng.random()) for _ in range(8)] for _ in range(_N)]
_SAMPLES = [[_rng.random() for _ in range(10)] for _ in range(50)]


def _work() -> float:
    total = 0.0
    for src in range(100):  # heap-based shortest paths, as in the detour score
        dist = [float("inf")] * _N
        dist[src] = 0.0
        heap = [(0.0, src)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in _ADJ[u]:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        total += sum(dist)
    acc = 0
    for i in range(400_000):  # plain interpreter arithmetic
        acc += i * i % 7
    for k in range(400):  # small-list ranking and hashing, as in a permutation repetition
        sample = _SAMPLES[k % len(_SAMPLES)]
        ranks = [0.0] * len(sample)
        for rank, i in enumerate(sorted(range(len(sample)), key=sample.__getitem__), 1):
            ranks[i] = float(rank)
        mean = sum(ranks) / len(ranks)
        total += sum((r - mean) * (r - mean) for r in ranks)
        acc += hashlib.sha256(str(k).encode()).digest()[0]
    return total + acc


def reference_seconds() -> float:
    """Wall time of one pass of the reference computation."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start
