import itertools
import math

import numpy as np
import pytest

from regradius._minnorm import PolyhedronProjector, min_dual_norm_point, solve_systems

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


def _least_distance_problems(rng, n):
    """Seeded q = 2 problems (G, C) in dimension n, 1 to 96 rows each, with the
    shapes the rg+ systems take and the edge cases of the active-set method."""
    problems = []
    for rows in (1, 2, 3, 5, 8, 17, 40, 96):
        G = rng.standard_normal((rows, n)) * 10.0 ** rng.uniform(-2, 1, (rows, 1))
        C = rng.standard_normal((rows, 4))
        C[:, 3] = np.abs(C[:, 3])  # c >= 0: the minimum is x = 0
        problems.append((G, C))
    g = rng.standard_normal(n)
    # duplicate rows, and a (g, -g) pair that makes g.x = -1 an equality
    G = np.vstack([g, g, -g, rng.standard_normal((4, n))])
    problems.append((G, np.column_stack([[-1.0, -1.0, 1.0, 3.0, 3.0, 3.0, 3.0],
                                         [-1.0, -2.0, 1.5, 3.0, 3.0, 3.0, 3.0]])))
    # infeasible: g.x <= -1 and -g.x <= -1; a zero row, with c < 0 in column 1
    G = np.vstack([g, -g, np.zeros(n), rng.standard_normal((3, n))])
    problems.append((G, np.column_stack([[-1.0, -1.0, 0.0, 1.0, 1.0, 1.0],
                                         [1.0, 1.0, -1.0, 1.0, 1.0, 1.0],
                                         [-1.0, 2.0, 0.0, 1.0, 1.0, 1.0]])))
    return problems


def _solved_alone(G, C):
    proj = PolyhedronProjector(G, 2.0)
    sols = [proj.solve_one(C[:, k]) for k in range(C.shape[1])]
    return (np.column_stack([s.x for s in sols]), np.array([s.feasible for s in sols]),
            np.array([s.value for s in sols]))


def _same_bits(a, b):
    return all(np.array_equal(u, v, equal_nan=True) for u, v in zip(a, b))


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_batched_least_distances_match_each_problem_alone(n):
    problems = _least_distance_problems(np.random.default_rng(n), n)
    together = solve_systems([(PolyhedronProjector(G, 2.0), C) for G, C in problems])
    feasible = infeasible = 0
    for (G, C), batched in zip(problems, together):
        alone = _solved_alone(G, C)
        assert _same_bits(batched, alone)
        assert _same_bits(PolyhedronProjector(G, 2.0).solve_batch(C), alone)
        feasible += int(alone[1].sum())
        infeasible += int((~alone[1]).sum())
    assert feasible >= 10 and infeasible >= 2


def test_a_column_does_not_depend_on_its_batch():
    rng = np.random.default_rng(3)
    G, C = rng.standard_normal((40, 3)), rng.standard_normal((40, 1))
    alone = PolyhedronProjector(G, 2.0).solve_batch(C)
    others = [(PolyhedronProjector(rng.standard_normal((m, 3)), 2.0), rng.standard_normal((m, k)))
              for m, k in ((7, 24), (96, 1), (3, 5))]
    # also in a mixed batch: other dimensions, and a q = inf request
    others += [(PolyhedronProjector(rng.standard_normal((9, 2)), 2.0), rng.standard_normal((9, 3))),
               (PolyhedronProjector(rng.standard_normal((6, 3)), math.inf),
                rng.standard_normal((6, 2)))]
    for at in range(len(others) + 1):
        batch = others[:at] + [(PolyhedronProjector(G, 2.0), C)] + others[at:]
        assert _same_bits(solve_systems(batch)[at], alone)
    # and a right-hand side given as a function is the same right-hand side
    assert _same_bits(solve_systems([(PolyhedronProjector(G, 2.0), lambda: C)])[0], alone)


def _enumerated_least_distance(G, c):
    """min ||x||_2 over {Gx <= c}, or None if empty: the minimum is the
    least-norm point of the rows active at it, so it is the smallest feasible
    least-norm point of {G_S x = c_S} over the row sets S of at most n rows."""
    n = G.shape[1]
    best = None
    for k in range(n + 1):
        for S in itertools.combinations(range(len(G)), k):
            S = list(S)
            x = np.linalg.lstsq(G[S], c[S], rcond=None)[0] if S else np.zeros(n)
            if np.all(G @ x - c <= 1e-12 * (1.0 + np.abs(c).max())):
                value = float(np.linalg.norm(x))
                best = value if best is None else min(best, value)
    return best


@pytest.mark.parametrize("n", (1, 2, 3))
def test_least_distances_match_enumeration(n):
    rng = np.random.default_rng(10 + n)
    problems = [(rng.standard_normal((m, n)), rng.standard_normal((m, 3)))
                for m in rng.integers(1, 7, size=40)]
    feasible = 0
    for (G, C), (X, ok, values) in zip(problems, solve_systems(
            [(PolyhedronProjector(G, 2.0), C) for G, C in problems])):
        for k in range(C.shape[1]):
            expected = _enumerated_least_distance(G, C[:, k])
            assert ok[k] == (expected is not None)
            if expected is not None:
                feasible += 1
                assert values[k] == pytest.approx(expected, rel=1e-10, abs=1e-12)
    assert feasible >= 40
