"""Dense linear programming via the simplex method from a feasible start.

Every linear program in this package (Chebyshev centres, bounding boxes,
overlap probes) has a few free variables and any number of constraints.
A small self-contained simplex keeps the condensed (Tucker) tableau, the
columns of the nonbasic variables only, since every basic column is a
unit vector (Chvátal, *Linear Programming*, 1983, ch. 8): its memory and
each pivot's work grow as m·p, not m².  Bland's rule makes the pivot
sequence finite and deterministic; the iteration cap scales with m.

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
        SolverFailure: the pivot cap was exceeded, or the final basis is
            singular.
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
    if not (slack >= 0.0).all():
        raise ValueError("start point violates the constraints")

    # Variables: u (p), w (p), then the slacks (m).  N holds the nonbasic
    # columns, first u and w, then the rhs (the start's slack); its last
    # row holds their reduced costs, at the slack basis the objective.
    N = np.zeros((m + 1, 2 * p + 1))
    N[:m, :p], N[:m, -1] = A, slack
    N[m, :p] = c if maximize else -c
    np.negative(N[:, :p], out=N[:, p:2 * p])
    basis = list(range(2 * p, 2 * p + m))     # the variable basic in each row
    labels = list(range(2 * p))               # the variable in each column
    status = _pivot_loop(N, basis, labels, max(10 * (m + 1), 50))
    if status == "cap":
        raise SolverFailure("simplex iteration cap exceeded")
    if status == "unbounded":
        raise Unbounded("objective is unbounded over the feasible region")

    # One clean solve at the final basis removes the pivots' roundoff.  A
    # variable with neither column basic keeps its start value; the rest
    # meet the rows whose slacks are nonbasic with equality.
    cols = [j % p for j in range(2 * p) if j not in labels]
    tight = [j - 2 * p for j in sorted(labels) if j >= 2 * p]
    x = start.copy()
    x[cols] = 0.0
    At = A.take(tight, 0)
    try:
        x[cols] = np.linalg.solve(At.take(cols, 1), b.take(tight) - At @ x)
    except np.linalg.LinAlgError as exc:
        raise SolverFailure("singular final basis") from exc
    return LpResult(x=x, value=float(c @ x))


def _pivot_loop(N, basis, labels, cap):
    """Bland's-rule pivoting until optimal / unbounded / cap.

    At these sizes the numpy calls, not the arithmetic, cost the time, so
    the entering variable is chosen in Python.  The ratios go into one
    buffer with inf where the entering column is not positive, so a column
    with no positive entry, or no rows, has an infinite least ratio: the
    objective is unbounded.
    """
    m = len(basis)
    cost = N[m, :-1]
    rhs = N[:m, -1]
    ratios = np.empty(m)
    for _ in range(cap):
        # Bland: the variable of smallest label with a positive reduced
        # cost enters
        improving = [j for j, r in zip(labels, cost.tolist()) if r > _PIVOT_TOL]
        if not improving:
            return "optimal"
        pos = labels.index(min(improving))
        col = N[:m, pos]
        ratios.fill(np.inf)
        np.divide(rhs, col, out=ratios, where=col > _PIVOT_TOL)
        best = ratios.min(initial=np.inf)
        if best == np.inf:
            return "unbounded"
        # Bland tie-break: smallest basic-variable index among minimisers.
        tied = (ratios <= best + 1e-9 * (1.0 + abs(best))).nonzero()[0]
        leave = tied[0] if tied.size == 1 else min(tied.tolist(), key=basis.__getitem__)
        _pivot(N, leave, pos)
        basis[leave], labels[pos] = labels[pos], basis[leave]
    return "cap"


def _pivot(N, row, pos):
    """The full tableau's pivot, bit for bit: the leaving variable takes the
    entering one's column, which was the unit vector of ``row``."""
    factors = N[:, pos].copy()
    N[:, pos] = 0.0
    N[row, pos] = 1.0
    N[row] /= factors[row]
    factors[row] = 0.0
    N -= factors[:, None] * N[row]
