"""Timing of the benchmark's commands, steadied against the host's speed.

The benchmark runs on shared machines whose speed drifts by up to 1.7x for
minutes at a time: a neighbour's load, frequency changes, or time the
hypervisor takes the CPU away.  A median over one run cannot remove a drift
that lasts the whole run, so every timed block is bracketed by a fixed
reference computation and reported at the reference speed:

    seconds = cpu_seconds(block) * REF_SECONDS / mean(cpu_seconds(ref before), cpu_seconds(ref after))

CPU seconds are this process's (``time.process_time``).  The program runs
one thread (BLAS is pinned in run.py), so on an idle machine they equal the
block's wall time; they leave out time the CPU spent on other work.  The
reference is benchmark code, never the program's, so no change to the
program moves it: a program that does half the work reads half the seconds.
Wall seconds are kept alongside and printed for information.
"""

from __future__ import annotations

import time

import numpy as np

# CPU seconds one reference_work() takes at the reference speed: the median
# on the 2-vCPU machine the bounds were set on (Python 3.11, NumPy 2.4).
REF_SECONDS = 0.027
_REF_STEPS = 9000

_rng = np.random.default_rng(0)
_ROWS = _rng.standard_normal((64, 8))


def reference_work() -> float:
    """A fixed mix of interpreted loop and small NumPy calls, the shape of
    the program's own inner loops (coordinate steps, search nodes)."""
    w = np.zeros(8)
    acc = 0.0
    dot = np.dot
    for t in range(_REF_STEPS):
        row = _ROWS[t & 63]
        g = dot(row, w) - 1.0
        if g < 0.0:
            w += 0.01 * row
        else:
            w *= 0.99
        acc += g
    return acc


def reference_cpu() -> float:
    t0 = time.process_time()
    reference_work()
    return time.process_time() - t0


class Clock:
    """Times one block: ``with Clock() as c: ...`` then ``c.seconds`` (CPU
    seconds at the reference speed), ``c.cpu`` and ``c.wall``.  A block
    that directly follows another can pass that one's ``ref_after`` as its
    own reference before, saving a reference run."""

    def __init__(self, ref_before: float | None = None) -> None:
        self.ref_before = ref_before

    def __enter__(self) -> "Clock":
        if self.ref_before is None:
            self.ref_before = reference_cpu()
        self._wall, self._cpu = time.perf_counter(), time.process_time()
        return self

    def __exit__(self, *exc) -> None:
        self.wall = time.perf_counter() - self._wall
        self.cpu = time.process_time() - self._cpu
        self.ref_after = reference_cpu()
        self.ref = 0.5 * (self.ref_before + self.ref_after)
        self.seconds = self.cpu * REF_SECONDS / self.ref
