"""Hand-computable cases for the benchmark's reference moduli.

Run with `python -m pytest perfbench/test_reference.py -q`.
"""

import math

import numpy as np
import pytest
from scipy.optimize import linprog

import reference as ref

INF = math.inf


def test_sigma_min_of_diagonal_maps():
    assert ref.sigma_min(np.diag([2.0, 0.5])) == pytest.approx(0.5, rel=1e-14)
    assert ref.sigma_min(np.diag([3.0, -4.0, 0.25])) == pytest.approx(0.25, rel=1e-14)
    assert ref.sigma_min([[2.0, 0.5]]) == pytest.approx(math.hypot(2.0, 0.5), rel=1e-14)


def test_ball_vertices():
    assert len(ref.ball_vertices(3, 1.0)) == 6
    assert len(ref.ball_vertices(3, INF)) == 8
    assert len(ref.ball_vertices(1, 2.0)) == 2
    with pytest.raises(ValueError):
        ref.ball_vertices(2, 2.0)


def test_inverse_operator_norm_of_diagonal_maps():
    A = np.diag([2.0, 0.5])  # A^-1 = diag(0.5, 2)
    # from l_inf to l_1: the vertex (1, 1) gives 0.5 + 2
    assert ref.inverse_operator_norm(A, 1.0, INF) == pytest.approx(2.5)
    # from l_1 to l_1: the largest column l1 norm of A^-1
    assert ref.inverse_operator_norm(A, 1.0, 1.0) == pytest.approx(2.0)
    # from l_inf to l_inf: the largest row l1 norm of A^-1
    assert ref.inverse_operator_norm(A, INF, INF) == pytest.approx(2.0)


def test_inverse_operator_norm_of_a_shear():
    A = np.array([[1.0, 1.0], [0.0, 1.0]])  # A^-1 = [[1, -1], [0, 1]]
    # vertex (1, -1) maps to (2, -1)
    assert ref.inverse_operator_norm(A, 1.0, INF) == pytest.approx(3.0)


def test_exact_rg_of_wide_maps_is_the_largest_entry():
    # with the l1 domain norm, min ||A^T y*||_inf over |y*| = 1 is max |a_i|
    assert ref.exact_rg_l1_domain([[2.0, 0.5]], 1.0) == pytest.approx(2.0)
    assert ref.exact_rg_l1_domain([[-1.0, 3.0, 0.5]], 2.0) == pytest.approx(3.0)


def test_min_l1_preimage_by_hand():
    # x = (0, 1) solves 2 x1 + 0.5 x2 = 0.5 with ||x||_1 = 1; x = (0.25, 0) does better
    assert ref.min_l1_preimage([[2.0, 0.5]], np.array([0.5])) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        ref.min_l1_preimage([[0.0, 0.0]], np.array([1.0]))


def test_square_maps_agree_with_the_inverse_norm():
    rng = np.random.default_rng(3)
    for _ in range(5):
        A = np.diag([2.0, 0.6]) + rng.uniform(-0.3, 0.3, (2, 2))
        for range_p in (1.0, INF):
            assert ref.exact_rg_l1_domain(A, range_p) == pytest.approx(
                1.0 / ref.inverse_operator_norm(A, 1.0, range_p), rel=1e-12)


def _linprog_min_l1(A, y):
    m, n = A.shape
    # variables (x, t): minimize sum t subject to -t <= x <= t, A x = y
    c = np.concatenate([np.zeros(n), np.ones(n)])
    eye = np.eye(n)
    A_ub = np.block([[eye, -eye], [-eye, -eye]])
    A_eq = np.hstack([A, np.zeros((m, n))])
    res = linprog(c, A_ub=A_ub, b_ub=np.zeros(2 * n), A_eq=A_eq, b_eq=y,
                  bounds=[(None, None)] * (2 * n), method="highs")
    assert res.status == 0
    return res.fun


def test_basic_solutions_match_linprog_on_wide_maps():
    rng = np.random.default_rng(11)
    for _ in range(5):
        A = rng.uniform(-2.0, 2.0, (2, 4))
        for v in ref.ball_vertices(2, INF):
            assert ref.min_l1_preimage(A, v) == pytest.approx(_linprog_min_l1(A, v), rel=1e-9)
