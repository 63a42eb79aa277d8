"""Dense linear programming via the simplex method from a feasible start.

Every linear program in this package (Chebyshev centres, bounding boxes,
overlap probes) is a dense problem with a few dozen constraints, so a small
self-contained tableau solver is used instead of an external one.  Bland's
pivoting rule makes the pivot sequence finite and fully deterministic; the
iteration cap scales with the constraint count.

Problems are stated as

    maximize (or minimize)  c . x    subject to  A x <= b,

with every variable free, together with a point ``start`` that satisfies
the constraints.  There is one phase: writing x = start + u - w with
u, w >= 0, the slacks b - A start form a feasible first basis.  Every
caller has such a point: the Chebyshev LP of ``polytope._chebyshev`` is
feasible at (0, min b) once its radius is free, and a negative optimum
there certifies that the constraints have no solution, so its centre can
start every other LP over the same constraints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverFailure, Unbounded

_PIVOT_TOL = 1e-10


@dataclass
class LpResult:
    """Optimal point and objective value of a solved linear program."""

    x: np.ndarray
    value: float


def solve_lp(c, A, b, start, *, maximize: bool = True) -> LpResult:
    """Solve max/min of ``c . x`` subject to ``A x <= b``, x free.

    Args:
        c: objective vector, shape (p,).
        A: constraint matrix, shape (m, p).
        b: right-hand sides, shape (m,).
        start: a feasible point, shape (p,): ``A start <= b``.
        maximize: direction of optimization.

    Raises:
        ValueError: bad shapes, or ``start`` violates a constraint.
        Unbounded: the objective is unbounded over the feasible region.
        SolverFailure: the pivot cap was exceeded.
    """
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    start = np.asarray(start, dtype=float)
    if A.ndim != 2 or c.ndim != 1 or b.ndim != 1:
        raise ValueError("solve_lp expects c (p,), A (m, p), b (m,)")
    m, p = A.shape
    if c.shape[0] != p or b.shape[0] != m or start.shape != (p,):
        raise ValueError("inconsistent LP shapes")
    slack = b - A @ start
    if not np.all(slack >= 0.0):
        raise ValueError("start point violates the constraints")

    # Columns: u (p), w (p), slacks (m); the rhs is the start's slack.
    M = np.hstack([A, -A, np.eye(m)])
    T = np.hstack([M, slack[:, None]])
    basis = 2 * p + np.arange(m)
    # At the slack basis the reduced costs are the objective itself.
    obj = np.zeros(2 * p + m + 1)
    obj[:p] = c if maximize else -c
    obj[p:2 * p] = -obj[:p]
    status = _pivot_loop(T, basis, obj, max(10 * (m + 1), 50))
    if status == "cap":
        raise SolverFailure("simplex iteration cap exceeded")
    if status == "unbounded":
        raise Unbounded("objective is unbounded over the feasible region")

    # One clean solve at the final basis removes the roundoff accumulated
    # across pivots.  A variable with neither column basic stays at its
    # start value; the rest are solved from the original b.
    fixed = start.copy()
    fixed[basis[basis < 2 * p] % p] = 0.0
    z = np.zeros(2 * p + m)
    try:
        z[basis] = np.linalg.solve(M[:, basis], b - A @ fixed)
    except np.linalg.LinAlgError as exc:
        raise SolverFailure("singular final basis") from exc
    x = fixed + z[:p] - z[p:2 * p]
    return LpResult(x=x, value=float(c @ x))


def _pivot_loop(T, basis, obj, cap):
    """Bland's-rule pivoting until optimal / unbounded / cap."""
    n_cols = T.shape[1] - 1
    for _ in range(cap):
        enter = -1
        for j in range(n_cols):
            if obj[j] > _PIVOT_TOL:
                enter = j
                break
        if enter < 0:
            return "optimal"
        col = T[:, enter]
        pos = col > _PIVOT_TOL
        if not pos.any():
            return "unbounded"
        ratios = np.full(col.shape, np.inf)
        ratios[pos] = T[pos, -1] / col[pos]
        best = ratios.min()
        # Bland tie-break: smallest basic-variable index among minimisers.
        tied = np.flatnonzero(ratios <= best + 1e-9 * (1.0 + abs(best)))
        leave = tied[np.argmin(basis[tied])]
        _pivot(T, obj, leave, enter)
        basis[leave] = enter
    return "cap"


def _pivot(T, obj, row, col):
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= factors[:, None] * T[row]
    obj -= obj[col] * T[row]
