"""The host's current speed, measured with a fixed reference kernel.

On a shared host the speed of one core swings by up to 2x over spells of
seconds to minutes, and process CPU time swings with it, so no timer can
tell the program's cost from the host's spell. The benchmark therefore times
a reference kernel before and after each pass and each set-up, and scales
the time in between by ``REF_KERNEL_S`` over the mean of the two kernel
times: the time the work would take on a host on which the kernel takes
``REF_KERNEL_S``. A change to fusioncast moves the scaled time just as it
moves the raw one; a slow spell of the host slows the work and the kernel
alike and so drops out.

The kernel does the kind of work fusioncast does, pure-Python loops over
small objects and numpy calls on small and on large arrays, and uses nothing
of fusioncast, so no change to the program can change it. Its part that
waits on memory is there because the workloads swing less than pure
computation does: over four minutes in which the host's speed changed
2.3-fold, the log of the pass times moved 0.5-0.76 times as much as the log
of the compute-only kernel's time, and adding the large-array part cut the
spread of the scaled pass times by 10-40%.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# A round figure for the kernel's time on a 2-core x86-64 VM (Python 3.11,
# numpy 2.4), where it took 14-30 ms. Only the unit of the scaled times
# depends on it.
REF_KERNEL_S = 0.020

_RNG = np.random.default_rng(12345)
_POINTS = _RNG.standard_normal((20, 40, 2))
_WEIGHTS = _RNG.standard_normal((40, 80))
# 1.3 MB: larger than a core's own caches, so the kernel also waits on
# memory as the program does.
_TABLE = _RNG.standard_normal((20000, 8))


def _kernel() -> float:
    total = 0.0
    # Pure Python: tuples, attribute-free float maths, a dict.
    seen = {}
    for i in range(12000):
        x, y = i * 0.001, (i % 97) * 0.01
        angle = math.atan2(y, x + 1.0)
        seen[i & 1023] = (x, y, angle)
        total += math.hypot(x, y) * math.cos(angle)
    # numpy on small arrays: the ensemble and ridge shapes fusioncast uses.
    for step in range(80):
        cloud = _POINTS[:, step % 40, :]
        diff = (cloud - cloud.mean(axis=0)) / (cloud.std(axis=0) + 1.0)
        total += float(np.exp(-0.5 * np.sum(diff * diff, axis=1)).sum())
        feats = np.column_stack([cloud[:, 0], cloud[:, 1]]).reshape(-1)
        total += float((feats @ _WEIGHTS[:, :40]).sum())
    # numpy over a large array.
    for _ in range(8):
        scaled = _TABLE * 1.0001
        total += float(np.sqrt((scaled * scaled).sum(axis=1)).sum())
    return total


def kernel_time(repeats: int = 3) -> float:
    """Median seconds of ``repeats`` runs of the reference kernel."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)



def reference_factor(before: float, after: float) -> float:
    """Factor that turns seconds measured between two kernel timings into
    reference-host seconds."""
    return REF_KERNEL_S / ((before + after) / 2)
