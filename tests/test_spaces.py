import math

import numpy as np
import pytest

import regradius as rr
from regradius.spaces import DimensionMismatchError, ball_sample, generator


def test_norm_examples():
    assert rr.norm([3, 4], rr.NormSpec(2, 2)) == 5.0
    assert rr.norm([1, -1], rr.NormSpec(2, 1)) == 2.0
    assert rr.norm([1, -2, 3], rr.NormSpec(3, math.inf)) == 3.0


def test_norm_zero_iff_zero():
    spec = rr.NormSpec(3)
    assert rr.norm([0, 0, 0], spec) == 0.0
    assert rr.norm([0, 1e-300, 0], spec) > 0.0


def test_dual_norm_examples():
    assert rr.dual_norm([3, 4], rr.NormSpec(2, 2)) == 5.0
    assert rr.dual_norm([1, -1], rr.NormSpec(2, 1)) == 1.0
    assert rr.dual_norm([2, 0], rr.NormSpec(2, math.inf)) == 2.0


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        rr.norm([1, 2, 3], rr.NormSpec(2))
    with pytest.raises(DimensionMismatchError):
        rr.dual_norm([1.0], rr.NormSpec(2))


def test_invalid_spec():
    with pytest.raises(ValueError):
        rr.NormSpec(0)
    with pytest.raises(ValueError):
        rr.NormSpec(2, 3)


def test_conjugate_exponents():
    assert rr.NormSpec(2, 1).q == math.inf
    assert rr.NormSpec(2, math.inf).q == 1.0
    assert rr.NormSpec(2, 2).q == 2.0


def test_pair_norm_primal_examples():
    spec = rr.ProductNormSpec(rr.NormSpec(2), rr.NormSpec(2))
    assert rr.pair_norm_primal([3, 4], [0, 0], spec) == 5.0
    assert rr.pair_norm_primal([0, 0], [1, 0], spec) == 1.0
    assert rr.pair_norm_primal([3, 4], [5, 12], spec) == 18.0


def test_pair_norm_dual_examples():
    spec = rr.ProductNormSpec(rr.NormSpec(2), rr.NormSpec(2))
    assert rr.pair_norm_dual([3, 4], [0, 1], spec) == 5.0
    y = np.array([0.3, -0.7])
    assert rr.pair_norm_dual([0, 0], y, spec) == rr.dual_norm(y, rr.NormSpec(2))
    assert rr.pair_norm_dual([1, 0], [0, 1], spec) == 1.0


def test_distance_to_set_examples():
    spec = rr.NormSpec(1)
    assert rr.distance_to_set([0.0], [np.array([1.0]), np.array([-2.0])], spec) == 1.0
    y = np.array([0.37])
    assert rr.distance_to_set(y, [y], spec) == 0.0
    assert rr.distance_to_set([0.0], [], spec) == math.inf


def test_sphere_grid_dim1():
    grid = rr.sphere_grid(rr.NormSpec(1), 2, seed=0)
    assert sorted(v[0] for v in grid) == [-1.0, 1.0]


def test_sphere_grid_dim2_contains_axes():
    grid = rr.sphere_grid(rr.NormSpec(2), 8, seed=1)
    assert len(grid) == 8
    keys = {tuple(np.round(v, 12)) for v in grid}
    for axis in [(1, 0), (-1, 0), (0, 1), (0, -1)]:
        assert axis in keys


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_sphere_grid_unit_dual_norm(p):
    spec = rr.NormSpec(3, p)
    for v in rr.sphere_grid(spec, 24, seed=5):
        assert abs(rr.dual_norm(v, spec) - 1.0) <= 1e-12


def test_sphere_grid_deterministic_and_count_check():
    a = rr.sphere_grid(rr.NormSpec(2), 12, seed=9)
    b = rr.sphere_grid(rr.NormSpec(2), 12, seed=9)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    with pytest.raises(ValueError):
        rr.sphere_grid(rr.NormSpec(3), 5, seed=0)


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_triangle_inequality_and_homogeneity(p):
    spec = rr.NormSpec(4, p)
    rng = generator(17, int(p if p != math.inf else 99))
    for _ in range(200):
        u = rng.standard_normal(4)
        v = rng.standard_normal(4)
        c = rng.standard_normal()
        assert rr.norm(u + v, spec) <= rr.norm(u, spec) + rr.norm(v, spec) + 1e-12
        assert abs(rr.norm(c * u, spec) - abs(c) * rr.norm(u, spec)) <= 1e-12


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_hoelder_pairing_bound(p):
    spec = rr.NormSpec(3, p)
    rng = generator(23, int(p if p != math.inf else 99))
    for _ in range(200):
        v = rng.standard_normal(3)
        w = rng.standard_normal(3)
        assert rr.pairing(w, v) <= rr.dual_norm(w, spec) * rr.norm(v, spec) + 1e-12


def test_pair_norms_mutually_dual():
    spec = rr.ProductNormSpec(rr.NormSpec(2), rr.NormSpec(3, 1))
    rng = generator(31)
    for _ in range(200):
        x, y = rng.standard_normal(2), rng.standard_normal(3)
        xs, ys = rng.standard_normal(2), rng.standard_normal(3)
        lhs = rr.pairing(xs, x) + rr.pairing(ys, y)
        assert lhs <= rr.pair_norm_dual(xs, ys, spec) * rr.pair_norm_primal(x, y, spec) + 1e-12


def test_ball_sample_stays_in_ball():
    spec = rr.NormSpec(3, 1)
    pts = ball_sample(spec, 0.7, 100, generator(3))
    assert all(rr.norm(p, spec) <= 0.7 + 1e-12 for p in pts)


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_norms_match_norm_bit_for_bit(p):
    rng = generator(41, int(p if p != math.inf else 99))
    for d in range(1, 10):
        spec = rr.NormSpec(d, p)
        for magnitude in (1e-300, 1e-170, 1e-20, 1.0, 1e20, 1e170, 1e300):
            rows = rng.standard_normal((60, d)) * magnitude * np.exp(rng.uniform(-3, 3, (60, 1)))
            rows[0] = 0.0
            rows[1, 0] = math.inf
            rows[2, -1] = -math.inf
            got = rr.norms(rows, spec)
            expected = [rr.norm(row, spec) for row in rows]
            assert got.tolist() == expected
        # a column slice is not C-contiguous; its row sums must add in the same order
        wide = rng.standard_normal((30, d + 3))[:, 1:d + 1]
        assert rr.norms(wide, spec).tolist() == [rr.norm(row, spec) for row in wide]


def test_norms_shape_checks():
    spec = rr.NormSpec(2)
    assert rr.norms(np.zeros((0, 2)), spec).shape == (0,)
    with pytest.raises(DimensionMismatchError):
        rr.norms(np.zeros((3, 3)), spec)
    with pytest.raises(DimensionMismatchError):
        rr.norms(np.zeros(2), spec)
