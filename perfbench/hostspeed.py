"""Host speed reference: a fixed piece of work that uses no diffeolab code.

On a shared host the speed of the same code drifts by a quarter or more over
minutes, so two runs of unchanged code can disagree by more than any useful
regression bound.  The timed run measures this reference right before and
right after every operation (and every set-up) and scales the measured
seconds by ``REFERENCE_S / reference``: the time the operation would have
taken on a host where the reference takes exactly ``REFERENCE_S``.  A change
to diffeolab cannot change the reference, so it still moves the scaled
times in full; only the host's drift cancels.

The reference mixes the three kinds of work the workloads do: an interpreter
loop (scalar letter calls), numpy calls on a handful of points (escape search
and short words) and passes over a large array (sphere levels and probes).
An operation that runs on several threads is bracketed by a reference whose
large-array part runs on as many threads at once, so that losing a CPU to
another tenant slows the reference as it slows the operation.
"""

from __future__ import annotations

import statistics
import threading
import time

import numpy as np

#: Median time of ``reference_s()`` on an idle 2-vCPU Intel Xeon VM with
#: Python 3.11 and numpy 2.4; the scaled times are seconds on that host.
REFERENCE_S = 0.022
#: Reference samples taken on each side of a measured interval.
SAMPLES = 3

_GRID = np.linspace(0.0, 1.0, 11)
_ROOTS = np.sqrt(_GRID)
_BIG = np.random.default_rng(0).random(1 << 18)


def _sort_big(big) -> None:
    for _ in range(3):
        np.sort(big * 1.0001)


def _sample(threads: int) -> float:
    start = time.perf_counter()
    s = 0.0
    for i in range(40_000):
        s += (i * 0.5) % 3.0
    x = 0.37
    for _ in range(1_500):
        np.searchsorted(_GRID, x)
        x = float(np.interp(x, _GRID, _ROOTS)) * 0.5 + 0.3
    # numpy releases the GIL while it sorts, so the copies run in parallel.
    helpers = [threading.Thread(target=_sort_big, args=(_BIG.copy(),))
               for _ in range(threads - 1)]
    for helper in helpers:
        helper.start()
    _sort_big(_BIG)
    for helper in helpers:
        helper.join()
    return time.perf_counter() - start


def reference(threads: int = 1) -> list[float]:
    """``SAMPLES`` timings of the reference on ``threads`` threads, in seconds."""
    return [_sample(threads) for _ in range(SAMPLES)]


def scale(seconds: float, before: list[float], after: list[float]) -> float:
    """``seconds`` measured between the two reference timings, scaled to the
    host speed at which the reference takes ``REFERENCE_S``."""
    return seconds * REFERENCE_S / statistics.median(before + after)
