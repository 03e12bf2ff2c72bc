"""Per-call cost of the hot-loop kernels, at n = 486 and n = 2646.

The graphs are the odd family members k = 9 and k = 21.  Each kernel runs
in batches over seeded random permutations (or the graph's own adjacency);
a metric is the median per-call time over the batches, in microseconds.
compose and inverse dominate the stabiliser chain and enumeration
(``ladder``); refine and preserves_adjacency dominate the search (``scan``).
The figures do not depend on the workload, so only the ladder's traced run
takes them; the backend they were taken on is printed with every result.
"""
from __future__ import annotations

import random
import statistics
import time

SIZES = ((486, 9), (2646, 21))
BATCHES = 15


def _per_call_us(fn, calls: int) -> float:
    samples = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) / calls * 1e6)
    return statistics.median(samples)


def kernel_metrics(seed: int, kern, build_odd) -> dict[str, float]:
    rng = random.Random(seed)
    out = {}
    for n, k in SIZES:
        graph = build_odd(k).graph
        ptr, flat = kern.build_csr(graph.adjacency)
        perms = []
        for _ in range(20):
            images = list(range(n))
            rng.shuffle(images)
            perms.append(images)
        ident = list(range(n))
        colors = [0] * n
        first = perms[0]
        jobs = {
            "compose": (lambda: [kern.compose_images(p, first) for p in perms], len(perms)),
            "inverse": (lambda: [kern.inverse_images(p) for p in perms], len(perms)),
            "cycle_lengths": (lambda: [kern.cycle_lengths(p) for p in perms], len(perms)),
            "is_semiregular": (lambda: [kern.is_semiregular_images(p) for p in perms],
                               len(perms)),
            "preserves_adjacency": (
                lambda: [kern.preserves_adjacency(ptr, flat, ident) for _ in range(10)], 10),
            "refine": (lambda: [kern.refine_colors(ptr, flat, colors) for _ in range(2)], 2),
        }
        for name, (fn, calls) in jobs.items():
            out[f"kernels.{name}_us.n{n}"] = _per_call_us(fn, calls)
    return out
