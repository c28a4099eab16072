"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the speed of one core drifts by tens of percent over
seconds to minutes, and the drift is common to everything running on it.
bench/run.py times this kernel before every pass and reports pass time
scaled by ``REFERENCE_S / kernel time``: seconds on a host that runs the
kernel in ``REFERENCE_S``.  The kernel imitates the workloads' hot loop (a
mass-action right-hand side over 300 species and 677 reactions, a sparse
stoichiometric product and Dormand-Prince-like stage sums) but does not
use chemnn, so no change to the program changes it.
"""

from time import perf_counter

import numpy as np
from scipy.sparse import csr_matrix

REFERENCE_S = 0.25  # kernel time on the 2-core VM the bounds were set on
_SPECIES = 300
_REACTIONS = 677
_STEPS = 2000


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        n, r = _SPECIES, _REACTIONS
        rows = rng.integers(0, n, 3 * r)
        cols = np.repeat(np.arange(r), 3)
        self._net = csr_matrix((rng.choice([-1.0, 1.0, 2.0], 3 * r), (rows, cols)), shape=(n, r))
        self._factors = rng.integers(0, n + 1, size=(r, 3))
        self._k = rng.uniform(0.5, 2.0, r)
        self._a = rng.uniform(-0.1, 0.1, (7, 7))
        self._y0 = rng.uniform(0.1, 1.0, n)

    def measure(self) -> float:
        """Seconds taken by one run of the fixed kernel."""
        n = _SPECIES
        buf = np.ones(n + 1)
        stages = np.zeros((7, n))
        start = perf_counter()
        for _ in range(_STEPS):
            for s in range(1, 7):
                # y stays within 1e-6 of y0, so the arithmetic never overflows
                buf[:n] = self._y0 + 1e-9 * (self._a[s, :s] @ stages[:s])
                rate = self._k.copy()
                for col in range(3):
                    rate *= buf[self._factors[:, col]]
                stages[s] = self._net @ rate
            scale = 1e-10 + 1e-8 * self._y0  # the stepper's error norm
            float(np.sqrt(np.mean((stages[6] / scale) ** 2)))
        return perf_counter() - start
