"""Host speed, sampled while the program runs, to turn wall times into
reference seconds.

Other tenants of a shared host slow a single thread by up to 2.5x, in phases
of ten seconds to minutes (caches, memory bandwidth and SMT siblings they
share; not CPU time taken away, so ``process_time`` slows just the same).  A
40-second run can sit in one phase, so medians of raw wall times move by more
than any useful bound between runs.

``HostSpeed`` times two fixed reference units every ``EVERY_S`` seconds of
wall time, from a SIGALRM handler: Python runs the handler on the main thread
between the program's own bytecodes, so each sample sees the host as the
program saw it a moment before.  The compute unit slows more than the
program in a slow phase, the memory unit less, on every workload; the
weighted geometric mean ``u = compute^0.7 * memory^0.3`` of their median
times tracks the program.  The weight came from the per-pass unit times and
wall times of ten-seed runs of each workload: their medians spread least at
0.7 on sparse3, 0.8 on dense-chain and 0.6 on studies.  The time
spent in the handler is taken back out of every timed interval, and an
interval of ``t`` wall seconds is reported as ``t * REF_S / u``: seconds on a
host where ``u`` is ``REF_S``.  A unit timed only between operations, seconds
away from most of the work, tracked the program's slow-downs far worse.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

REF_S = 1e-3
EVERY_S = 0.1
COMPUTE_WEIGHT = 0.7

_MATRIX = np.random.default_rng(0).random((100, 100))
_EDGES = [tuple(int(v) for v in row)
          for row in np.random.default_rng(1).integers(0, 100, size=(2000, 3))]
_STREAM = np.random.default_rng(2).random(1_000_000)  # 8 MB, past the private caches


def _compute_unit() -> None:
    """Shaped like the program's hot loops: Givens-style row and column
    updates of a 100x100 matrix, and a Python scan of 2000 triples counting
    the parts each meets."""
    a = _MATRIX.copy()
    parts = [v % 3 for v in range(100)]
    for k in range(30):
        p, q = k % 100, (7 * k + 1) % 100
        row_p, row_q = a[p, :].copy(), a[q, :].copy()
        a[p, :], a[q, :] = 0.8 * row_p - 0.6 * row_q, 0.6 * row_p + 0.8 * row_q
        col_p, col_q = a[:, p].copy(), a[:, q].copy()
        a[:, p], a[:, q] = 0.8 * col_p - 0.6 * col_q, 0.6 * col_p + 0.8 * col_q
    sum(1 for verts in _EDGES if len({parts[v] for v in verts}) == 3)


def _memory_unit() -> None:
    """One read of an 8 MB array."""
    _STREAM.sum()


class HostSpeed:
    """Context manager: samples the reference units while it is open.

    ``spent`` is the wall time taken by the handler so far; subtract its
    growth over an interval from the interval's wall time.  ``scale()`` is
    ``REF_S`` over the weighted geometric mean of the units' median times
    since open.
    """

    def __init__(self) -> None:
        self.compute: list[float] = []
        self.memory: list[float] = []
        self.spent = 0.0

    def sample(self) -> None:
        """Time both units once, now."""
        start = time.perf_counter()
        _compute_unit()
        mid = time.perf_counter()
        _memory_unit()
        end = time.perf_counter()
        self.compute.append(mid - start)
        self.memory.append(end - mid)
        self.spent += time.perf_counter() - start

    def __enter__(self) -> HostSpeed:
        _compute_unit()  # warm the units' code before the first sample
        _memory_unit()
        self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.compute:  # an interval shorter than EVERY_S: sample once now
            self.sample()

    def medians(self) -> tuple[float, float]:
        """Median compute-unit and memory-unit times since open."""
        return statistics.median(self.compute), statistics.median(self.memory)

    def scale(self) -> float:
        compute, memory = self.medians()
        return REF_S / (compute ** COMPUTE_WEIGHT * memory ** (1 - COMPUTE_WEIGHT))
