"""A fixed reference job that measures how fast the host runs right now.

The benchmark shares a few cores of a host whose speed drifts by up to 2x
over tens of seconds (other tenants on the same cores), and the drift
moves a pure-Python loop as much as it moves spinbus.  Each timed call is
bracketed by passes of a job of the same kind of work that does not
touch spinbus: the call's wall time divided by the mean time of the
bracketing passes cancels most of the drift, while a change to spinbus
moves the ratio as much as it moves the wall time.  The drift hits
interpreter-bound work far harder than array-bound work, and a pure
interpreter loop harder than spinbus's interpreter-bound calls, which
also spend time in numpy: so array-bound calls are bracketed by an
array job, and the others by a mixed job, the array job plus an
interpreter job.  The amount of work is fixed; only its time varies.
The jobs' arrays add about 20 MB to the peak RSS.
"""

from __future__ import annotations

import math
import time

import numpy as np

SCALAR_STEPS = 750_000
SMALL_NUMPY_STEPS = 30_000
SMALL_EIGH_CALLS = 375  # of a 40 x 40 symmetric matrix
MID_EIGH_CALLS = 15  # of a 250 x 250 symmetric matrix
MATMUL_CALLS = 45  # of a 300 x 300 matrix with itself
XOR_PASSES = 300  # over two 2 MB uint8 arrays
SUM_PASSES = 22  # over a 16 MB float64 array

KINDS = ("mixed", "array")


class Yardstick:
    """One kind of fixed job; ``passes`` keeps the time of every pass run.

    ``array`` is mid-size eigensolves, dense matrix products and passes
    over arrays of a few MB: the work of exact diagonalisation and of
    dense tableau layers.  ``mixed`` adds scalar Python arithmetic, many
    small numpy calls and small eigensolves: the work of mode selection,
    Nelder-Mead and routing.
    """

    def __init__(self, kind: str):
        if kind not in KINDS:
            raise ValueError(f"unknown yardstick kind {kind!r}")
        self.kind = kind
        rng = np.random.default_rng(12345)
        a = rng.standard_normal((40, 40))
        self.small = a + a.T
        self.vec = np.ones(3)
        a = rng.standard_normal((250, 250))
        self.mid = a + a.T
        self.mat = rng.standard_normal((300, 300)) / 300
        self.x = rng.integers(0, 2, (1024, 2048), dtype=np.uint8)
        self.y = rng.integers(0, 2, (1024, 2048), dtype=np.uint8)
        self.big = rng.standard_normal(2_000_000)
        self._job()  # first pass pays for lazy LAPACK and page set-up
        self.passes: list[float] = []

    def run(self) -> float:
        """Wall time of one pass of the fixed job, in seconds."""
        t0 = time.perf_counter()
        self._job()
        self.passes.append(time.perf_counter() - t0)
        return self.passes[-1]

    def _job(self) -> None:
        acc = self._array()
        if self.kind == "mixed":
            acc += self._interpreter()
        if not math.isfinite(acc):  # keeps every result alive
            raise AssertionError("yardstick arithmetic failed")

    def _interpreter(self) -> float:
        acc = 0.0
        for i in range(SCALAR_STEPS):
            acc += math.sqrt(i + 1.0) * 0.5
        for i in range(SMALL_NUMPY_STEPS):
            acc += float(np.sqrt(np.float64(i + 1.0)) * np.dot(self.vec, self.vec))
        for _ in range(SMALL_EIGH_CALLS):
            acc += np.linalg.eigh(self.small)[0][-1]
        return acc

    def _array(self) -> float:
        acc = 0.0
        for _ in range(MID_EIGH_CALLS):
            acc += np.linalg.eigh(self.mid)[0][-1]
        for _ in range(MATMUL_CALLS):
            acc += (self.mat @ self.mat)[0, 0]
        for _ in range(XOR_PASSES):
            np.bitwise_xor(self.x, self.y, out=self.x)
        for _ in range(SUM_PASSES):
            acc += self.big.sum()
        return acc
