"""Fixed reference kernel that measures the machine's speed during a run.

The kernel shares no code with ``inbody``.  Like the library's hot paths it
is interpreter work around many small numpy calls: 16 tiny linear solves,
one batched determinant and a pivoted row reduction of a 12 x 20 table, the
shape of a simplex tableau.  Of the kernels tried (a plain Python float
loop, a mix of Python sorting, dict and string work, and this one) it
tracked the speed of the workloads' operations best across processes; the
README gives the measurement.
"""

from __future__ import annotations

import numpy as np

_SEED = 20240107


class RefKernel:
    """One call does a fixed amount of work and returns the same checksum."""

    def __init__(self):
        rng = np.random.default_rng(_SEED)
        self.mats = rng.normal(size=(16, 4, 4)) + 4.0 * np.eye(4)
        self.rhs = rng.normal(size=(16, 4))
        self.table = rng.normal(size=(12, 20))
        self.checksum = self()

    def __call__(self) -> float:
        acc = 0.0
        for M, r in zip(self.mats, self.rhs):
            acc += float(np.linalg.solve(M, r) @ r)
        acc += float(np.linalg.det(self.mats).sum())
        T = self.table.copy()
        for k in range(T.shape[0]):
            j = int(np.argmax(np.abs(T[k])))
            T[k] /= T[k, j]
            f = T[:, j].copy()
            f[k] = 0.0
            T -= f[:, None] * T[k]
        return acc + float(np.abs(T).sum())
