"""Machine-speed reference measured alongside the ops of a run.

This VM's speed drifts by up to 2x between runs a few minutes apart,
and the drift is common to every op. After an op, once at least
INTERVAL_S has passed since the last chunk, the run times one chunk of
fixed work done by benchmark code only (the oracle computing
both filtrations of four fans grown from a fixed seed), so the chunk's
cost never changes with fanlat. The mean chunk time over a run (see
slowdown()), divided by NOMINAL_S, is that run's slowdown; run.py
divides its time metrics by it and keeps the raw values next to them.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

import corpus
from oracle import FanFacts

# Chunk time on the machine the baseline was taken on (2 vCPU
# VM, Python 3.11.7) in a quiet spell. Any fixed value works: it only
# sets the scale of the normalized metrics.
NOMINAL_S = 0.022
INTERVAL_S = 0.3
_FANS = (("p3", 10), ("p2xp1", 12), ("sigma_c", 10), ("p4", 9))


def _fans() -> list:
    rng = random.Random("fanlat-bench:reference")
    out = []
    for base, nrays in _FANS:
        rank, rays, maximal, _ = corpus.base_fan(base)
        grown, grown_max = corpus.grow(rank, rays, maximal, nrays,
                                       random.Random(rng.getrandbits(64)))
        out.append(corpus.fan_dict(base, rank, grown, grown_max))
    return out


class Reference:
    def __init__(self):
        self.fans = _fans()
        self.seconds = []
        self.last = float("-inf")

    def tick(self, force: bool = False) -> None:
        start = perf_counter()
        if not force and start - self.last < INTERVAL_S:
            return
        for fan in self.fans:
            facts = FanFacts(fan)
            facts.levels("inclusive")
            facts.levels("exclusive")
        self.last = perf_counter()
        self.seconds.append(self.last - start)

    def slowdown(self) -> float:
        """Mean chunk time over NOMINAL_S, the top and bottom tenth left out.

        A mean, not a median: on a shared 2-vCPU VM, chunk times flip
        between a fast and a slow level, and the median of such a mix
        jumps from one level to the other with the share of slow chunks,
        while the ops' times move in proportion to it.
        """
        ordered = sorted(self.seconds)
        cut = len(ordered) // 10
        return statistics.mean(ordered[cut:len(ordered) - cut]) / NOMINAL_S
