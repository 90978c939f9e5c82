"""Reference kernel: fixed work that times the host, not propval.

The host this benchmark was tuned on, a 2-vCPU Xeon KVM guest, changes
speed by up to 2x in phases of seconds to minutes, because other
tenants share its cores, and a slow phase can cover a whole run.  So
the benchmark runs this kernel just before and just after every set-up
and every pass over a workload's request cycle, and divides each
timing by the kernel time at that moment.  The timings it reports are
therefore in units of one kernel run (``ref``), and a slow phase slows
both sides of the ratio alike.

A slow phase does not slow all code alike, so the kernel does, in
about equal parts of its time, the two kinds of work propval does:
pure-Python elimination over lists of complex numbers, like the kernel
path, and numpy calls on the columns of a 256 x 256 complex matrix,
like the column pivot search behind the range and kernel bases.  It
never calls propval, so a change to the program does not change the
unit.  Its inputs come from a fixed seed.
"""

from __future__ import annotations

import time

import numpy as np

SIZE = 30  # of the pure-Python system
LENGTH = 256  # of the numpy matrix
COLUMNS = 32  # searched for a pivot in the numpy matrix


class Reference:
    def __init__(self):
        rng = np.random.default_rng(20010913)
        a = rng.normal(size=(SIZE, SIZE)) + 1j * rng.normal(size=(SIZE, SIZE))
        a += SIZE * np.eye(SIZE)  # diagonally dominant: no zero pivot
        self.rows = [[complex(z) for z in row] for row in a]
        self.vector = rng.normal(size=LENGTH) + 1j * rng.normal(size=LENGTH)

    def kernel(self) -> tuple[complex, int]:
        rows = [list(row) for row in self.rows]
        for c in range(SIZE - 1):
            pivot = rows[c]
            for j in range(c + 1, SIZE):
                row = rows[j]
                factor = row[c] / pivot[c]
                for k in range(c, SIZE):
                    row[k] -= factor * pivot[k]
        work = np.outer(self.vector, self.vector.conj())
        work[1:, 1:] -= np.outer(work[1:, 0] / work[0, 0], work[0, 1:])
        found = 0
        for c in range(1, COLUMNS + 1):
            found += int(np.argmax(np.abs(work[1:, c])))
        return rows[-1][-1], found

    def seconds(self, runs: int) -> float:
        """Mean wall time of one kernel run, over ``runs`` runs in a row."""
        started = time.perf_counter()
        for _ in range(runs):
            self.kernel()
        return (time.perf_counter() - started) / runs
