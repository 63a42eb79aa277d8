import time
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linprog

import inbody as ib
from inbody import lp
from inbody.errors import BadParameter, SolverFailure, Unbounded
from inbody.lp import solve_lp
from tests.conftest import (box, cross_polytope, polar_body, polar_of, sphere_cloud,
                            twenty_four_cell)


def test_simple_box_maximum():
    # max x + y on [0,1]^2 -> 2 at (1,1)
    A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    b = np.array([1.0, 0.0, 1.0, 0.0])
    res = solve_lp(np.array([1.0, 1.0]), A, b, np.array([0.5, 0.5]))
    assert res.value == pytest.approx(2.0, abs=1e-12)
    assert res.x == pytest.approx([1.0, 1.0], abs=1e-12)


def test_minimize_direction():
    A = np.array([[1.0], [-1.0]])
    b = np.array([3.0, 2.0])  # -2 <= x <= 3
    start = np.zeros(1)
    assert solve_lp(np.array([1.0]), A, b, start, maximize=False).value == pytest.approx(-2.0)
    assert solve_lp(np.array([1.0]), A, b, start, maximize=True).value == pytest.approx(3.0)


def test_negative_rhs_from_feasible_start():
    # x >= 1 written as -x <= -1, together with x <= 4
    A = np.array([[-1.0], [1.0]])
    b = np.array([-1.0, 4.0])
    res = solve_lp(np.array([-1.0]), A, b, np.array([2.0]))  # max -x -> x = 1
    assert res.x[0] == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("start", [[0.0], [4.5], [np.nan]])
def test_infeasible_start_raises(start):
    A = np.array([[-1.0], [1.0]])
    b = np.array([-1.0, 4.0])  # 1 <= x <= 4
    with pytest.raises(ValueError, match="start"):
        solve_lp(np.array([1.0]), A, b, np.array(start))


def test_start_of_wrong_shape_raises():
    with pytest.raises(ValueError, match="shapes"):
        solve_lp(np.array([1.0]), np.array([[1.0]]), np.array([1.0]), np.zeros(2))


def test_infeasible_detected():
    # x <= 0 and x >= 1: the Chebyshev LP with a free radius is feasible at
    # (0, min b), and its optimum r = -1/2 certifies that no x exists
    A = np.array([[1.0, 1.0], [-1.0, 1.0]])
    b = np.array([0.0, -1.0])
    res = solve_lp(np.array([0.0, 1.0]), A, b, np.array([0.0, b.min()]))
    assert res.value == pytest.approx(-0.5, abs=1e-12)
    assert res.x[0] == pytest.approx(0.5, abs=1e-12)


def test_unbounded_detected():
    A = np.array([[-1.0]])
    b = np.array([0.0])  # x >= 0
    with pytest.raises(Unbounded):
        solve_lp(np.array([1.0]), A, b, np.array([1.0]))


def test_sign_constraint_as_a_row():
    # max -x with x >= 0 and x <= 5 -> 0; x >= 0 is the row -x <= 0
    A = np.array([[1.0], [-1.0]])
    b = np.array([5.0, 0.0])
    res = solve_lp(np.array([-1.0]), A, b, np.array([3.0]))
    assert res.value == pytest.approx(0.0, abs=1e-12)


def test_variable_that_never_enters_keeps_its_start():
    # max x on the unit square: y has no cost and stays where it started,
    # so the returned point is feasible
    A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    b = np.array([1.0, 0.0, 1.0, 0.0])
    res = solve_lp(np.array([1.0, 0.0]), A, b, np.array([0.5, 0.25]))
    assert res.value == 1.0
    assert res.x.tolist() == [1.0, 0.25]
    # with no cost nothing enters, and no row is solved
    assert solve_lp(np.zeros(2), A, b, np.array([0.5, 0.25])).x.tolist() == [0.5, 0.25]


def test_chebyshev_centre_of_square():
    # max r s.t. x + r <= 1, -x + r <= 0, y + r <= 1, -y + r <= 0, r free
    A = np.array([[1.0, 0.0, 1.0], [-1.0, 0.0, 1.0],
                  [0.0, 1.0, 1.0], [0.0, -1.0, 1.0]])
    b = np.array([1.0, 0.0, 1.0, 0.0])
    c = np.array([0.0, 0.0, 1.0])
    res = solve_lp(c, A, b, np.array([0.0, 0.0, b.min()]))
    assert res.value == pytest.approx(0.5, abs=1e-12)
    assert res.x[:2] == pytest.approx([0.5, 0.5], abs=1e-10)


@pytest.mark.parametrize("seed", range(30))
def test_agrees_with_scipy_on_random_lps(seed):
    rng = np.random.default_rng(seed)
    m, p = int(rng.integers(4, 14)), int(rng.integers(2, 6))
    A = rng.normal(size=(m, p))
    # a known interior point, which is also the start
    x0 = rng.normal(size=p) * 0.3
    b = A @ x0 + rng.uniform(0.1, 2.0, size=m)
    # boundedness via a generous box
    A = np.vstack([A, np.eye(p), -np.eye(p)])
    b = np.concatenate([b, np.full(p, 10.0), np.full(p, 10.0)])
    c = rng.normal(size=p)

    ours = solve_lp(c, A, b, x0, maximize=True)
    ref = linprog(-c, A_ub=A, b_ub=b, bounds=[(None, None)] * p, method="highs")
    assert ref.status == 0
    assert ours.value == pytest.approx(-ref.fun, rel=1e-7, abs=1e-8)
    assert np.all(A @ ours.x <= b + 1e-9)


def test_deterministic_pivoting():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(8, 3))
    b = A @ np.zeros(3) + 1.0
    c = rng.normal(size=3)
    r1 = solve_lp(c, A, b, np.zeros(3))
    r2 = solve_lp(c, A, b, np.zeros(3))
    assert np.array_equal(r1.x, r2.x)
    assert r1.value == r2.value


def reference_solve_lp(c, A, b, start, maximize=True, cap=None):
    """Reference: the one-phase simplex on the full m x (m + 2p + 1)
    tableau with one numpy step per operation, returning (x, value, pivots,
    final basis) or the loop's status when it stops short: a tableau
    stacked from its blocks, ratios by masked division, the unbounded test
    on the mask and the tie-break by argmin over every tie."""
    m, p = A.shape
    slack = b - A @ start
    T = np.hstack([A, -A, np.eye(m), slack[:, None]])
    basis = 2 * p + np.arange(m)
    obj = np.zeros(2 * p + m + 1)
    obj[:p] = c if maximize else -c
    obj[p:2 * p] = -obj[:p]
    pivots = 0
    for _ in range(max(10 * (m + 1), 50) if cap is None else cap):
        improving = np.flatnonzero(obj[:-1] > lp._PIVOT_TOL)
        if not improving.size:
            break
        enter = improving[0]
        col = T[:, enter]
        pos = col > lp._PIVOT_TOL
        if not pos.any():
            return "unbounded"
        ratios = np.full(col.shape, np.inf)
        ratios[pos] = T[pos, -1] / col[pos]
        best = ratios.min()
        tied = np.flatnonzero(ratios <= best + 1e-9 * (1.0 + abs(best)))
        leave = tied[np.argmin(basis[tied])]
        T[leave] /= T[leave, enter]
        factors = T[:, enter].copy()
        factors[leave] = 0.0
        T -= factors[:, None] * T[leave]
        obj -= obj[enter] * T[leave]
        basis[leave] = enter
        pivots += 1
    else:
        return "cap"
    # the clean solve on the rows whose slacks are nonbasic, in row order,
    # for the basic variables in variable order
    cols = np.sort(basis[basis < 2 * p]) % p
    tight = np.setdiff1d(np.arange(m), basis - 2 * p)
    x = start.copy()
    x[cols] = 0.0
    x[cols] = np.linalg.solve(A[tight][:, cols], b[tight] - A[tight] @ x)
    return x, float(c @ x), pivots, basis


def validation_lps(monkeypatch, bodies):
    """Every LP that validate_body makes on the bodies, as (c, A, b, start,
    maximize)."""
    calls = []
    solve = lp.solve_lp

    def recording(c, A, b, start, maximize=True):
        calls.append((c, A, b, start, maximize))
        return solve(c, A, b, start, maximize=maximize)

    with monkeypatch.context() as patch:
        patch.setattr(lp, "solve_lp", recording)
        for H in bodies:
            ib.validate_body(ib.HalfspaceSystem(H.A, H.b))
    return calls


LP_FAMILIES = {
    # degenerate vertices, where the tie-break among equal ratios decides
    "degenerate": lambda: [box(n) for n in (2, 3, 4)] + [cross_polytope(n) for n in (3, 4, 5)]
    + [twenty_four_cell(), ib.scale_about(cross_polytope(4), np.full(4, 0.3), 1.7)],
    "random-suite": lambda: [H for n in (2, 3, 4) for H in ib.random_suite(n, 60, seed=30 + n)],
    "pancakes": lambda: [ib.pancake_family(n, K) for n in (2, 3, 4)
                         for K in (1.0, 10.0, 100.0, 1000.0)],
    "polar-bodies": lambda: [polar_body(k, n, s) for k, n in ((40, 2), (40, 3), (12, 4))
                             for s in range(5)]
    + [polar_of(sphere_cloud(n, on, inside, seed))
       for n, on, inside, seed in ((2, 16, 24, 151), (3, 20, 20, 48), (4, 10, 2, 187))],
}


@pytest.mark.parametrize("family", sorted(LP_FAMILIES))
def test_validation_lps_match_reference(monkeypatch, family):
    # the same point, value, pivot count and final basis as the full
    # tableau, bit for bit, on every LP of every validation: 2n + 1 per body
    bodies = LP_FAMILIES[family]()
    calls = validation_lps(monkeypatch, bodies)
    assert len(calls) == sum(2 * H.dim + 1 for H in bodies)
    pivots, bases = [], []
    pivot, loop = lp._pivot, lp._pivot_loop

    def counting(*args):
        pivots.append(1)
        return pivot(*args)

    def recording(N, basis, labels, cap):
        status = loop(N, basis, labels, cap)
        bases.append(list(basis))
        return status

    monkeypatch.setattr(lp, "_pivot", counting)
    monkeypatch.setattr(lp, "_pivot_loop", recording)
    for c, A, b, start, maximize in calls:
        del pivots[:]
        res = solve_lp(c, A, b, start, maximize=maximize)
        x, value, count, basis = reference_solve_lp(c, A, b, start, maximize)
        assert np.array_equal(res.x, x) and res.value == value
        assert len(pivots) == count
        assert bases.pop() == basis.tolist()


def test_no_rows_is_unbounded():
    with pytest.raises(Unbounded):
        solve_lp(np.array([1.0, 0.0]), np.zeros((0, 2)), np.zeros(0), np.zeros(2))
    assert reference_solve_lp(np.array([1.0, 0.0]), np.zeros((0, 2)), np.zeros(0),
                              np.zeros(2)) == "unbounded"


def test_pivot_cap_raises(monkeypatch):
    # max x + y on the unit square takes two pivots and a third step that
    # finds the basis optimal; with a cap of two the loop stops short, as
    # the reference does
    A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    b = np.array([1.0, 0.0, 1.0, 0.0])
    c, start = np.array([1.0, 1.0]), np.array([0.5, 0.5])
    assert reference_solve_lp(c, A, b, start, cap=2) == "cap"
    assert reference_solve_lp(c, A, b, start, cap=3)[2] == 2
    loop = lp._pivot_loop
    monkeypatch.setattr(lp, "_pivot_loop",
                        lambda N, basis, labels, cap: loop(N, basis, labels, 2))
    with pytest.raises(SolverFailure):
        solve_lp(c, A, b, start)


def test_validation_of_20000_rows():
    # the condensed tableau takes m x (2p + 1) entries: 20,000 rows at n = 3
    # validate in a few MB, and agree with scipy on the ball and the box
    A = np.random.default_rng(0).standard_normal((20_000, 3))
    H = ib.HalfspaceSystem(A, np.ones(20_000))
    start = time.perf_counter()
    ib.validate_body(H)
    assert time.perf_counter() - start < 0.5
    tracemalloc.start()
    try:
        V = ib.validate_body(H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6
    An, bn, _ = H.unit_form()
    free = [(None, None)] * 4
    ball = linprog([0, 0, 0, -1], A_ub=np.hstack([An, np.ones((20_000, 1))]), b_ub=bn,
                   bounds=free, method="highs")
    assert V.cheb_radius == pytest.approx(-ball.fun, rel=1e-9)
    for i in range(3):
        e = np.eye(3)[i]
        lo = linprog(e, A_ub=An, b_ub=bn, bounds=free[:3], method="highs")
        hi = linprog(-e, A_ub=An, b_ub=bn, bounds=free[:3], method="highs")
        assert V.bbox[:, i] == pytest.approx([lo.fun, -hi.fun], rel=1e-9)


def test_cloud_20000_refused_by_subset_cap():
    # the hull's polar body has 20,000 rows; its LPs are solved and its
    # vertex enumeration is refused before any subset is allocated
    pts = np.random.default_rng(0).standard_normal((20_000, 3))
    tracemalloc.start()
    try:
        with pytest.raises(BadParameter, match="enumeration cap"):
            ib.convex_hull(ib.VertexSet(pts))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
