import numpy as np
import pytest
from scipy.optimize import linprog

from inbody.errors import Unbounded
from inbody.lp import solve_lp


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
