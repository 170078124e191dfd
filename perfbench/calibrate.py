"""Machine-speed calibration for the benchmark's timings.

On a shared host the CPU speed available to one process drifts by tens of
percent over seconds, far more than the changes the benchmark must
detect.  Every timed interval therefore sits between two runs of a fixed
pure-Python reference task that uses no mmtsat code, and is reported at
reference speed:

    calibrated = measured * REF_S / mean(reference before, reference after)

A program change moves the measured time but not the reference, so it
shows in full; a machine slowdown moves both and cancels.  The task
mimics what a campaign spends its time on: building and hashing small
immutable objects (the encoder's expression DAG and Tseitin cache) and
formatting many short lines (DIMACS text).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

# Nominal wall time of reference_work(), about its median on a 2-core
# x86-64 cloud VM, so calibrated times read as seconds on such a machine.
REF_S = 0.025


@dataclass(frozen=True)
class _Node:
    left: object
    right: object


def reference_work() -> float:
    """Wall time of the fixed reference task."""
    started = time.perf_counter()
    cache = {}
    node = _Node(0, 1)
    for i in range(3000):
        node = _Node(node, i % 97) if i % 50 else _Node(0, i)
        cache[node] = i
    "\n".join(" ".join(map(str, (i, -i, i + 1, 0))) for i in range(2000))
    return time.perf_counter() - started


def calibrate(measured: list[float], refs: list[float]) -> list[float]:
    """Calibrate measured[i], which ran between refs[i] and refs[i + 1]."""
    return [m * REF_S * 2 / (refs[i] + refs[i + 1]) for i, m in enumerate(measured)]
