import itertools
import math

import numpy as np
import pytest

from regradius._minnorm import PolyhedronProjector, min_dual_norm_point

NORMS = (1.0, 2.0, math.inf)
CONJUGATE = {1.0: math.inf, 2.0: 2.0, math.inf: 1.0}


def _enumerated_min_norm(G, c, q):
    """min ||x||_q over {x in R^2 : Gx <= c} for q in {1, inf}, or None if empty.

    The q-norm is linear on each cone between its ridge lines (the axes for
    q = 1, the diagonals for q = inf), so the minimum sits at the origin, at
    a vertex of the polyhedron, or where an edge crosses a ridge line: every
    feasible intersection of two lines among the constraint and ridge lines.
    """
    ridges = [np.eye(2)[0], np.eye(2)[1]] if q == 1.0 else [np.array([1.0, -1.0]),
                                                            np.array([1.0, 1.0])]
    lines = [(g, ci) for g, ci in zip(G, c)] + [(r, 0.0) for r in ridges]
    candidates = [np.zeros(2)]
    for (g1, c1), (g2, c2) in itertools.combinations(lines, 2):
        M = np.array([g1, g2])
        if abs(np.linalg.det(M)) > 1e-12:
            candidates.append(np.linalg.solve(M, [c1, c2]))
    feasible = [x for x in candidates if np.all(G @ x - c <= 1e-12 * (1.0 + np.abs(c).max()))]
    if not feasible:
        return None
    return min(float(np.linalg.norm(x, q)) for x in feasible)


@pytest.mark.parametrize("q", NORMS)
def test_half_space_distance_closed_form(q):
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        g = rng.standard_normal(n) * 10.0 ** rng.uniform(-4, 1)
        c = float(rng.standard_normal()) * 10.0 ** rng.uniform(-4, 1)
        sol = min_dual_norm_point(g[None, :], np.array([c]), q)
        expected = max(0.0, -c) / np.linalg.norm(g, CONJUGATE[q])
        assert sol.feasible
        assert sol.value == pytest.approx(expected, rel=1e-12, abs=1e-300)
        assert g @ sol.x <= c + 1e-12 * abs(c)


@pytest.mark.parametrize("q", (1.0, math.inf))
def test_polyhedral_norms_match_vertex_enumeration(q):
    rng = np.random.default_rng(5)
    feasible = 0
    for _ in range(60):
        m = int(rng.integers(2, 7))
        G = rng.standard_normal((m, 2))
        c = rng.standard_normal(m)
        sol = min_dual_norm_point(G, c, q)
        expected = _enumerated_min_norm(G, c, q)
        if expected is None:
            assert not sol.feasible
            continue
        feasible += 1
        assert sol.feasible
        assert sol.value == pytest.approx(expected, rel=1e-10, abs=1e-12)
        assert np.all(G @ sol.x <= c + 1e-10)
    assert feasible >= 20


@pytest.mark.parametrize("q", NORMS)
def test_infeasible_systems_report_infeasible(q):
    # x <= -1 and -x <= -1
    sol = min_dual_norm_point(np.array([[1.0], [-1.0]]), np.array([-1.0, -1.0]), q)
    assert not sol.feasible and sol.value == math.inf
    # a zero row with a negative right-hand side reads 0 <= -1
    sol = min_dual_norm_point(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([-1.0, 3.0]), q)
    assert not sol.feasible
    proj = PolyhedronProjector(np.array([[1.0, 0.0], [-1.0, 0.0]]), q)
    X, feasible, values = proj.solve_batch(np.array([[-1.0, -1.0], [2.0, -1.0]]))
    assert feasible.dtype == bool and feasible.tolist() == [True, False]
    assert values[0] == pytest.approx(1.0) and values[1] == math.inf
    assert X[0, 0] == pytest.approx(-1.0)


@pytest.mark.parametrize("q", NORMS)
def test_duplicate_and_equality_rows_keep_the_exact_optimum(q):
    g, h = np.array([2.0, 0.5]), np.array([-0.3, 1.0])
    # g.x = -1.5 as two inequalities, each row repeated, plus an inactive row
    G = np.array([g, g, -g, -g, h, h])
    c = np.array([-1.5, -1.5, 1.5, 1.5, 4.0, 4.0])
    sol = min_dual_norm_point(G, c, q)
    assert sol.feasible
    assert sol.value == pytest.approx(1.5 / np.linalg.norm(g, CONJUGATE[q]), rel=1e-12)
    assert g @ sol.x == pytest.approx(-1.5, rel=1e-12)
    if q != 2.0:
        assert sol.value == pytest.approx(_enumerated_min_norm(G, c, q), rel=1e-12)
