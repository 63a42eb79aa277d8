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

from .errors import BadParameter, SolverFailure, Unbounded

_PIVOT_TOL = 1e-10
_TABLEAU_CAP = 10**7   # most tableau entries one LP may take, about 80 MB


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
        BadParameter: the m x (m + 2p + 1) tableau would take more than
            ``_TABLEAU_CAP`` entries; refused before it is allocated.
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
    if m * (m + 2 * p + 1) > _TABLEAU_CAP:
        raise BadParameter(f"an LP of {m} rows in {p} variables exceeds the cap of "
                           f"{_TABLEAU_CAP} tableau entries")
    slack = b - A @ start
    if not np.all(slack >= 0.0):
        raise ValueError("start point violates the constraints")

    # Columns: u (p), w (p), slacks (m); the rhs is the start's slack.
    width = 2 * p + m + 1
    T = np.zeros((m, width))
    T[:, :p] = A
    T[:, p:2 * p] = -A
    T.reshape(-1)[2 * p::width + 1] = 1.0     # T[i, 2p + i], the slack identity
    T[:, -1] = slack
    M = T[:, :-1].copy()                      # the columns before any pivot
    basis = 2 * p + np.arange(m)
    # At the slack basis the reduced costs are the objective itself.
    obj = np.zeros(width)
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
    """Bland's-rule pivoting until optimal / unbounded / cap.

    At these sizes the numpy calls, not the arithmetic, cost the time, so
    each pivot makes as few as it can.  The ratios go into one buffer with
    inf where the entering column is not positive, so a column with no
    positive entry, or a tableau with no rows, has an infinite least ratio:
    the objective is unbounded.
    """
    rhs = T[:, -1]
    ratios = np.empty(T.shape[0])
    for _ in range(cap):
        # Bland: the first column with a positive reduced cost enters
        improving = obj[:-1] > _PIVOT_TOL
        enter = improving.argmax()
        if not improving[enter]:
            return "optimal"
        col = T[:, enter]
        ratios.fill(np.inf)
        np.divide(rhs, col, out=ratios, where=col > _PIVOT_TOL)
        best = ratios.min(initial=np.inf)
        if best == np.inf:
            return "unbounded"
        # Bland tie-break: smallest basic-variable index among minimisers.
        tied = (ratios <= best + 1e-9 * (1.0 + abs(best))).nonzero()[0]
        leave = tied[0] if tied.size == 1 else tied[np.argmin(basis[tied])]
        _pivot(T, obj, leave, enter)
        basis[leave] = enter
    return "cap"


def _pivot(T, obj, row, col):
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= factors[:, None] * T[row]
    obj -= obj[col] * T[row]
