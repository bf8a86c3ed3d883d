"""Host speed probe: a short fixed kernel timed between a pass's ops.

The benchmark's host is shared. Its speed swings by a third either way for
seconds to minutes, and CPU time swings with it, so raw times of the same
code spread wider across runs than a regression bound. The worker therefore
times this kernel on the pass's cores after set-up and after every op, and
scales each op's times by ``NOMINAL_S`` over the mean of the probes on
either side of it. A reported time is what the pass would have taken on a
host where the kernel takes ``NOMINAL_S``. The kernel is the benchmark's own
code, so a change to the package moves the reported times exactly as it
moves the raw ones; the raw times are reported alongside.

The kernel mixes what the package spends its time on: interpreted Python,
small linear algebra calls and numpy element-wise math. It allocates less
than a megabyte, so it does not raise a pass's peak resident size.
"""

from __future__ import annotations

import os
import time

NOMINAL_S = 0.015  # about the kernel's time on the 2-core sandbox of the baseline
SAMPLES = 3  # kernel timings per core and probe; the probe takes the fastest


class Probe:
    """The kernel's inputs; ``time`` takes one probe."""

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.mats = [np.eye(3) + 0.01 * rng.standard_normal((3, 3)) for _ in range(40)]
        self.x = np.linspace(0.1, 1.0, 40_000)
        self._kernel()  # first calls load numpy's linear algebra

    def _kernel(self) -> None:
        np = self.np
        total = 0.0
        for i in range(100_000):
            total += i * 0.5
        for _ in range(5):
            for m in self.mats:
                np.linalg.slogdet(m)
                m.sum(axis=0) * 2.0
        y = self.x
        for _ in range(15):
            y = np.log1p(np.exp(-y))

    def time(self, cores: list[int]) -> float:
        """Fastest kernel time on each of ``cores`` in turn, averaged over them.

        The calling thread is pinned to each core while it times the kernel
        and is given its previous cores back afterwards.
        """
        before = os.sched_getaffinity(0)
        per_core = []
        try:
            for core in cores:
                os.sched_setaffinity(0, {core})
                times = []
                for _ in range(SAMPLES):
                    t0 = time.perf_counter()
                    self._kernel()
                    times.append(time.perf_counter() - t0)
                per_core.append(min(times))
        finally:
            os.sched_setaffinity(0, before)
        return sum(per_core) / len(per_core)
