import math

import numpy as np
import pytest

import regradius as rr
from regradius.oracles import MEMBERSHIP_SLACK

from helpers import branch_map, diag_map, fast_schedule, identity_map, origin


def test_sigma_min_diagonal():
    res = rr.sigma_min(np.diag([2.0, 0.5]))
    assert res.sigma_min == pytest.approx(0.5, abs=1e-12)
    assert abs(abs(res.v_min[1]) - 1.0) < 1e-10


def test_sigma_min_identity():
    assert rr.sigma_min(np.eye(4)).sigma_min == pytest.approx(1.0, abs=1e-12)


def test_sigma_min_values_nonincreasing_and_residual():
    rng = np.random.default_rng(12)
    for _ in range(10):
        A = rng.standard_normal((4, 4))
        res = rr.sigma_min(A)
        s = res.singular_values
        assert all(a >= b - 1e-12 for a, b in zip(s, s[1:]))
        resid = np.linalg.norm(A @ res.v_min - res.sigma_min * res.u_min)
        assert resid <= 1e-10 * max(1.0, np.linalg.norm(A))


def test_sigma_min_rectangular_and_rank_deficient():
    B = np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 1.0]])
    ref = np.linalg.svd(B, compute_uv=False)
    assert np.allclose(rr.sigma_min(B).singular_values, ref, atol=1e-10)
    C = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert rr.sigma_min(C).sigma_min == pytest.approx(0.0, abs=1e-12)


def test_sigma_min_size_limit():
    with pytest.raises(ValueError):
        rr.sigma_min(np.eye(9))


def test_jacobi_vs_bisection_eigenvalue_identity():
    # |sigma_min^2 - lambda_min(A^T A)| small across the two oracles
    rng = np.random.default_rng(3)
    A = rng.standard_normal((3, 3))
    s_j = rr.sigma_min(A).sigma_min
    s_b = rr.sigma_min_bisect(A)
    assert abs(s_j * s_j - s_b * s_b) <= 1e-9 * max(1.0, s_j * s_j)


def test_oracle_cross_check_seeded():
    for seed in range(25):
        A, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
        A = A @ np.diag([1.0, 0.7, np.random.default_rng(seed + 100).uniform(0.05, 0.5)])
        s_j = rr.sigma_min(A).sigma_min
        s_b = rr.sigma_min_bisect(A)
        assert abs(s_j - s_b) <= 1e-8 * max(s_j, 1e-30)


def test_brute_force_rg_identity_grid():
    F = identity_map()
    xs = [np.array([v]) for v in np.linspace(-0.4, 0.4, 9)]
    ys = [np.array([v]) for v in np.linspace(-0.4, 0.4, 9)]
    assert rr.brute_force_rg(F, xs, ys) == 1.0


def test_brute_force_rg_matches_estimator_exactly():
    sched = fast_schedule(5)
    for F, base in [(identity_map(), origin()), (diag_map(2.0, 0.5), origin(2)),
                    (branch_map(), origin())]:
        log = []
        est = rr.rg_estimate(F, base, sched, pair_log=log)
        assert rr.brute_force_rg_pairs(F, log) == est.value


def test_brute_force_membership_mirrors_eps_normal_test():
    F = branch_map()
    sample = rr.sample_graph(F, origin(), 0.5, 60, seed=4)
    rng = np.random.default_rng(9)
    disagreements = 0
    for _ in range(300):
        at = sample.points[int(rng.integers(0, len(sample.points)))]
        w = (rng.standard_normal(1), rng.standard_normal(1))
        eps = float(rng.uniform(0.0, 0.5))
        radius = float(rng.uniform(0.05, 0.5))
        a = rr.eps_normal_test(sample, at, w, eps, radius)
        b = rr.brute_force_membership(sample, at, w, eps, test_radius=radius)
        disagreements += int(a != b)
    assert disagreements == 0


def test_brute_force_membership_zero_functional():
    sample = rr.sample_graph(identity_map(), origin(), 0.5, 30, seed=1)
    assert rr.brute_force_membership(sample, sample.base, (np.zeros(1), np.zeros(1)), 0.1)


def test_brute_force_membership_identity_diagonal_pair():
    sample = rr.sample_graph(identity_map(), origin(), 0.5, 30, seed=1)
    # w* = (1, 1): along the graph the quotient is 1 > 0.1
    assert not rr.brute_force_membership(sample, sample.base, ([1.0], [1.0]), 0.1)


def test_finite_difference_jacobian_linear_exact():
    A = np.array([[1.0, 2.0], [-0.5, 3.0]])
    J = rr.finite_difference_jacobian(lambda x: A @ x, np.array([0.3, -0.1]), 1e-6)
    assert np.allclose(J, A, atol=1e-10)


def test_finite_difference_jacobian_quadratic_at_zero():
    J = rr.finite_difference_jacobian(lambda x: x * x, np.array([0.0]), 1e-6)
    assert abs(J[0, 0]) <= 1e-9


def test_finite_difference_jacobian_rejects_bad_step():
    with pytest.raises(ValueError):
        rr.finite_difference_jacobian(lambda x: x, np.array([0.0]), 0.0)


def test_operator_norm_cases():
    M = np.diag([2.0, 0.5])
    e2 = rr.NormSpec(2, 2)
    assert rr.operator_norm(M, e2, e2) == pytest.approx(2.0, abs=1e-12)
    l1 = rr.NormSpec(2, 1)
    linf = rr.NormSpec(2, math.inf)
    # 1-norm domain: max column norm; inf-norm domain: sign vertices
    assert rr.operator_norm(M, l1, l1) == pytest.approx(2.0)
    assert rr.operator_norm(M, linf, linf) == pytest.approx(2.0)
    M2 = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert rr.operator_norm(M2, linf, l1) == pytest.approx(3.0)


@pytest.mark.parametrize("range_p, attaining", [
    # l-inf range: the normalized row of largest Euclidean norm, (3, 4, 0) / 5
    (math.inf, np.array([0.6, 0.8, 0.0])),
    # l1 range: M^T s / ||M^T s|| for the best sign vector s = (1, -1)
    (1.0, np.array([2.0, 5.0, -2.0]) / math.sqrt(33.0)),
], ids=["l2-to-linf", "l2-to-l1"])
def test_operator_norm_from_the_euclidean_domain(range_p, attaining):
    M = np.array([[3.0, 4.0, 0.0], [1.0, -1.0, 2.0]])
    domain, codomain = rr.NormSpec(3, 2), rr.NormSpec(2, range_p)
    value = rr.operator_norm(M, domain, codomain)
    assert rr.norm(attaining, domain) == pytest.approx(1.0, abs=1e-15)
    assert value == pytest.approx(rr.norm(M @ attaining, codomain), rel=1e-12)
    x = np.random.default_rng(31).standard_normal((20000, 3))
    sampled = rr.norms(x / rr.norms(x, domain)[:, None] @ M.T, codomain)
    assert sampled.max() <= value * (1.0 + 1e-12)
    assert sampled.max() >= 0.99 * value


def test_membership_slack_is_small_positive():
    assert 0.0 < MEMBERSHIP_SLACK < 1e-6
