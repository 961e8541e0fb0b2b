"""Host-speed calibration: one fixed CPU task, timed between operations.

The benchmark's host is shared: over tens of seconds its speed for the
same work drifts by a third or more (measured on a 2-CPU box: one
campaign stream took 0.13-0.18 s per campaign in 10-second blocks).
Host-time metrics are therefore reported *at reference host speed*:
each raw time is multiplied by ``REFERENCE_S / c``, where ``c`` is the
calibration task's time measured next to it.  The task is a fixed mix
of interpreter work and small numpy bit-kernels - the two kinds of work
the program does - and touches no program code, so a change to the
program cannot move it.  Calibration runs in the benchmark process
between the serial campaigns of ``characterize`` and ``ecc_recover``,
while the program is idle, so its own load does not leak into it.
Times measured elsewhere stay raw: fleet targets run in worker
processes and service latencies are set largely by fork, IPC and
fsync waits, and on both the calibration did not steady the runs.
Raw times are reported next to the normalised ones.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Sequence

import numpy as np

#: The calibration task's typical time on the reference host, a 2-CPU
#: box (Python 3.11, numpy 2.4).
REFERENCE_S = 0.0125

_RNG = np.random.default_rng(2016)
_WORDS = _RNG.integers(0, 2 ** 63, (64, 128), dtype=np.uint64)
_INDEX = _RNG.integers(0, _WORDS.size, 20000)


def calibrate() -> float:
    """Seconds one run of the fixed calibration task takes now."""
    start = time.perf_counter()
    acc = 0
    for i in range(10_000):
        acc += i * i
    for _ in range(8):
        words = _WORDS ^ (_WORDS >> np.uint64(3))
        words &= _WORDS
        np.unique(words.ravel()[_INDEX] & np.uint64(0xFFFF))
    return time.perf_counter() - start


class HostSpeed:
    """Calibration samples of one run, in the order they were taken."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            self.samples.append(calibrate())

    def scale(self, samples: Sequence[float] = ()) -> float:
        """Factor turning raw host seconds into reference seconds."""
        samples = samples or self.samples
        return REFERENCE_S / statistics.median(samples) if samples else 1.0

    def local_scale(self, k: int, radius: int = 2) -> float:
        """The factor from the samples around sample ``k``."""
        return self.scale(self.samples[max(0, k - radius):k + radius + 1])
