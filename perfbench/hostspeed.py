"""Host-speed reference: a fixed chunk of pure-Python work, timed between
the benchmark's operations, so that time metrics can be given at one
nominal host speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over a minute, for every process alike.  On a 2-CPU
machine, sixty fixed regular-degree operations repeated for 210 s and
summed in 15 s windows spread 23% (interquartile range over median; range
45%), while their ratio to this chunk, timed in the same windows, spread
4% (range 18%).  The chunk lives in the benchmark, uses no library code
and runs with the garbage collector off, so nothing a change to the
library does can alter its cost.

    scale = NOMINAL_S / (mean time of the chunk over the run)

A time multiplied by `scale` is the time the same work would take on a
host that runs one chunk in NOMINAL_S, a round figure of the order of one
chunk's time on a 2-CPU machine (3 to 6 ms there, as its speed drifts).
"""

from __future__ import annotations

import gc
import time

NOMINAL_S = 0.005          # seconds per chunk at nominal speed
EVERY_S = 0.1              # a chunk after each operation that ends this long after the last chunk


def _chunk():
    """Two kinds of interpreter work, so that no one kind's sensitivity to
    the host sets the scale: dictionary and tuple traffic, and row
    reduction of small matrices over GF(2) and GF(3) with lists of ints,
    the library's own staple."""
    counts = {}
    acc = 0
    for i in range(5000):
        key = (i & 31, i >> 5)
        counts[key] = counts.get(key, 0) + 1
        acc ^= hash(key) & 0xFFFF
    acc += len(sorted(counts.values()))
    x = 7
    for m in range(40):
        q = 2 + m % 2
        rows = []
        for _ in range(5):
            row = []
            for _ in range(6):
                x = (x * 1103515245 + 12345) & 0x7FFFFFFF
                row.append(x % q)
            rows.append(row)
        rank = 0
        for c in range(6):
            p = next((r for r in range(rank, 5) if rows[r][c]), None)
            if p is None:
                continue
            rows[rank], rows[p] = rows[p], rows[rank]
            inv = rows[rank][c]         # its own inverse in GF(2) and GF(3)
            rows[rank] = [v * inv % q for v in rows[rank]]
            for r in range(5):
                f = rows[r][c]
                if r != rank and f:
                    rows[r] = [(a - f * b) % q for a, b in zip(rows[r], rows[rank])]
            rank += 1
        acc += rank + len(frozenset(tuple(r) for r in rows))
    return acc


def measure():
    """Wall time of one chunk, with the collector off while it runs."""
    was_on = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        _chunk()
        return time.perf_counter() - t
    finally:
        if was_on:
            gc.enable()


def measure_mean(repeats):
    return sum(measure() for _ in range(repeats)) / repeats


class Sampler:
    """Chunks interleaved with a closed loop: call `tick()` after every
    operation; it times a chunk whenever EVERY_S has passed since the last."""

    def __init__(self):
        measure()                       # first run warms the interpreter's caches
        self.samples = [measure()]
        self.last = time.perf_counter()

    def tick(self):
        if time.perf_counter() - self.last >= EVERY_S:
            self.samples.append(measure())
            self.last = time.perf_counter()

    def spent(self):
        return sum(self.samples)

    def scale(self):
        return NOMINAL_S * len(self.samples) / sum(self.samples)
