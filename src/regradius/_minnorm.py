"""Exact minimum-norm points of small polyhedra {x : G x <= c}.

Every rg+ value is a limit of such problems, so each is solved exactly
rather than iterated towards its minimum:

- q = 2 is least-distance programming, min ||x||_2 s.t. Gx <= c, reduced to
  a nonnegative least-squares problem and solved by the Lawson-Hanson
  active-set method (Lawson & Hanson, *Solving Least Squares Problems*,
  1974, chapter 23).  A zero NNLS residual certifies infeasibility.
- q in {1, inf} is the linear program min t s.t. Gx <= c, b.x <= t for every
  facet normal b of the unit q-ball (2^n sign vectors for q = 1, the 2n
  signed unit vectors for q = inf).  Its dual, min c.lam s.t. G^T lam_G +
  B^T lam_B = 0, sum(lam_B) = 1, lam >= 0, has only n + 1 rows, is always
  feasible, and is unbounded exactly when the polyhedron is empty; it is
  solved by a two-phase revised simplex with Bland's rule, and x is read
  off the optimal simplex multipliers.

Rows are scaled to unit length first (which leaves the polyhedron as it
is), and every returned point is checked against the constraints.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

#: constraint violation, relative to 1 + ||x||_2 in unit-row units, still accepted as feasible
_FEAS_TOL = 1e-9
#: NNLS residual norm at or below which least-distance programming reports infeasibility;
#: a feasible problem has residual 1 / sqrt(1 + ||x||^2)
_LDP_EMPTY = 1e-12
#: reduced-cost and pivot tolerance of the simplex, relative to the data's scale
_LP_TOL = 1e-11


@dataclass(frozen=True)
class MinNormSolution:
    x: np.ndarray
    value: float
    feasible: bool


def _nnls(E: np.ndarray, f: np.ndarray) -> np.ndarray:
    """argmin ||E u - f||_2 over u >= 0, by the Lawson-Hanson active-set method."""
    k = E.shape[1]
    u = np.zeros(k)
    passive = np.zeros(k, dtype=bool)
    tol = 10.0 * np.finfo(float).eps * max(E.shape) * max(1.0, float(np.abs(E).max()))
    for _ in range(3 * k):
        w = E.T @ (f - E @ u)
        w[passive] = -np.inf
        j = int(np.argmax(w))
        if w[j] <= tol:
            break
        passive[j] = True
        while True:
            z = np.zeros(k)
            z[passive] = np.linalg.lstsq(E[:, passive], f, rcond=None)[0]
            blocking = passive & (z <= 0.0)
            if not blocking.any():
                break
            # move towards z until the first passive variable reaches zero;
            # it leaves the passive set, with any other that reached zero too
            steps = u[blocking] / (u[blocking] - z[blocking])
            u += float(steps.min()) * (z - u)
            u[np.flatnonzero(blocking)[np.argmin(steps)]] = 0.0
            passive &= u > tol
            u[~passive] = 0.0
        u = z
    return u


def _least_distance(G: np.ndarray, c: np.ndarray) -> np.ndarray | None:
    """min ||x||_2 s.t. Gx <= c; None when the system is infeasible.

    With E = [-G^T; -c^T] and f = e_{n+1}, the NNLS residual r = E u - f of
    the optimal u is zero when no x exists, and otherwise x = -r[:n] / r[n]
    with the rows where u > 0 active.  x is taken as the least-norm solution
    of those active rows, which keeps its accuracy when ||x|| is large and r
    small.
    """
    n = G.shape[1]
    E = -np.vstack([G.T, c])
    f = np.zeros(n + 1)
    f[n] = 1.0
    u = _nnls(E, f)
    r = E @ u - f
    if np.linalg.norm(r) <= _LDP_EMPTY or r[n] >= 0.0:
        return None
    active = u > 0.0
    return np.linalg.lstsq(G[active], c[active], rcond=None)[0]


def _simplex_multipliers(A: np.ndarray, b: np.ndarray, cost: np.ndarray) -> np.ndarray | None:
    """Optimal simplex multipliers pi of min cost.z s.t. Az = b, z >= 0 (A of full
    row rank, b >= 0); None when it is infeasible or unbounded.

    Two-phase revised simplex with Bland's rule, which cannot cycle; phase 1
    starts from artificial columns and pivots any left at level zero out of
    the basis, which full row rank makes possible.
    """
    m, k = A.shape
    full = np.hstack([A, np.eye(m)])
    basis = list(range(k, k + m))
    scale = 1.0 + float(np.abs(cost).max(initial=0.0))

    def run(obj: np.ndarray, allowed: int) -> bool:
        while True:
            Bm = full[:, basis]
            pi = np.linalg.solve(Bm.T, obj[basis])
            reduced = obj[:allowed] - full[:, :allowed].T @ pi
            entering = next((j for j in range(allowed)
                             if reduced[j] < -_LP_TOL * scale and j not in basis), None)
            if entering is None:
                return True
            level = np.linalg.solve(Bm, b)
            d = np.linalg.solve(Bm, full[:, entering])
            rows = [i for i in range(m) if d[i] > _LP_TOL]
            if not rows:
                return False
            ratios = [level[i] / d[i] for i in rows]
            least = min(ratios)
            leaving = min((basis[i], i) for i, t in zip(rows, ratios)
                          if t <= least + _LP_TOL)[1]
            basis[leaving] = entering

    run(np.concatenate([np.zeros(k), np.ones(m)]), k)
    level = np.linalg.solve(full[:, basis], b)
    if any(basis[i] >= k and level[i] > _LP_TOL for i in range(m)):
        return None  # b is no nonnegative combination of A's columns
    for i in range(m):
        if basis[i] >= k:
            d = np.linalg.solve(full[:, basis], full[:, :k])[i]
            basis[i] = next(j for j in np.argsort(-np.abs(d)) if j not in basis)
    if not run(np.concatenate([cost, np.zeros(m)]), k):
        return None
    return np.linalg.solve(full[:, basis].T, cost[basis])


def _ball_facets(n: int, q: float) -> np.ndarray:
    """Outer normals b of the unit q-ball's facets, so that ||x||_q = max b.x."""
    if q == 1.0:
        return np.array(list(itertools.product((1.0, -1.0), repeat=n)))
    return np.vstack([np.eye(n), -np.eye(n)])


def _min_polyhedral_norm(G: np.ndarray, c: np.ndarray, q: float) -> np.ndarray | None:
    """min ||x||_q s.t. Gx <= c for q in {1, inf}; None when infeasible."""
    n = G.shape[1]
    B = _ball_facets(n, q)
    # dual columns: (-g_i, 0) per constraint row, (-b, 1) per facet
    A = np.vstack([-np.hstack([G.T, B.T]),
                   np.concatenate([np.zeros(len(G)), np.ones(len(B))])])
    b = np.zeros(n + 1)
    b[n] = 1.0
    pi = _simplex_multipliers(A, b, np.concatenate([c, np.zeros(len(B))]))
    return None if pi is None else -pi[:n]


class PolyhedronProjector:
    """Exact minimum q-norm points of {x : Gx <= c} for one G and many c."""

    def __init__(self, G: np.ndarray, q: float):
        if q not in (1.0, 2.0, math.inf):
            raise ValueError(f"q must be 1, 2 or inf, got {q}")
        G = np.atleast_2d(np.asarray(G, dtype=float))
        self.q = q
        self.dim = G.shape[1]
        lengths = np.linalg.norm(G, axis=1)
        # a zero row reads 0 <= c_i: it holds for every x or for none
        self._zero = lengths == 0.0
        self._lengths = lengths[~self._zero]
        self._G = G[~self._zero] / self._lengths[:, None]

    def _solve(self, c: np.ndarray) -> MinNormSolution:
        infeasible = MinNormSolution(np.full(self.dim, np.nan), math.inf, False)
        if np.any(c[self._zero] < 0.0):
            return infeasible
        c = c[~self._zero] / self._lengths
        if c.size == 0:
            x = np.zeros(self.dim)
        elif self.q == 2.0:
            x = _least_distance(self._G, c)
        else:
            x = _min_polyhedral_norm(self._G, c, self.q)
        if x is None or (c.size and np.max(self._G @ x - c)
                         > _FEAS_TOL * (1.0 + float(np.linalg.norm(x)))):
            return infeasible
        return MinNormSolution(x, float(np.linalg.norm(x, self.q)), True)

    def solve_one(self, c: np.ndarray) -> MinNormSolution:
        return self._solve(np.asarray(c, dtype=float).reshape(-1))

    def solve_batch(self, C: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Solve for every column of C.

        Returns (X, feasible, values): one minimizer per column (NaN where
        infeasible), the feasibility flags and the q-norms (+inf where
        infeasible).
        """
        C = np.asarray(C, dtype=float)
        sols = [self._solve(C[:, k]) for k in range(C.shape[1])]
        return (np.column_stack([s.x for s in sols]),
                np.array([s.feasible for s in sols], dtype=bool),
                np.array([s.value for s in sols]))


def min_dual_norm_point(G: np.ndarray, c: np.ndarray, q: float) -> MinNormSolution:
    """Minimize the q-norm over {x : Gx <= c}; q in {1, 2, inf}."""
    return PolyhedronProjector(G, q).solve_one(c)
