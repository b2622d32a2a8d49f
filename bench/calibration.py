"""A fixed pure-Python kernel that measures how fast the machine is right now.

On a shared machine the same code runs up to 1.6 times slower while other
tenants contend for the processor, in spells from under a second to over
a minute.  `workload.py` times this kernel between items and converts each
item's latency to the machine's reference speed (`REFERENCE_S`) with the
kernel times measured around it.  The kernel uses no skeinkit code, so a
change to the package cannot move it; its mix (a product of dict
polynomials with tuple keys, and lookups in a memo-sized table) follows
the package's hot paths, so contention slows it about as much.
"""

from __future__ import annotations

import random
import time

# fastest time of `Kernel.run` on the machine the benchmark was written on
# (2-core x86 VM, Python 3.11.7); scaled timings are seconds at that speed
REFERENCE_S = 0.00035
RUNS_PER_SAMPLE = 3


class Kernel:
    def __init__(self):
        rng = random.Random(0)
        self.table = {(rng.getrandbits(20), i % 7): i for i in range(20_000)}
        self.probes = random.Random(1).sample(list(self.table), 1_000)
        self.a = {(i, i % 5): i + 1 for i in range(30)}
        self.b = {(i, i % 3): 2 * i - 7 for i in range(30)}

    def run(self) -> int:
        out: dict = {}
        for (e1, f1), c1 in self.a.items():
            for (e2, f2), c2 in self.b.items():
                key = (e1 + e2, f1 + f2)
                out[key] = out.get(key, 0) + c1 * c2
        table = self.table
        return sum(table[k] for k in self.probes) + len(out)

    def sample(self) -> float:
        """Fastest of a few back-to-back runs: the kernel's time at this moment."""
        best = float("inf")
        for _ in range(RUNS_PER_SAMPLE):
            start = time.perf_counter()
            self.run()
            best = min(best, time.perf_counter() - start)
        return best


def to_reference(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """`seconds` measured between two kernel samples, at the reference speed."""
    return seconds * REFERENCE_S * 2 / (kernel_before + kernel_after)
