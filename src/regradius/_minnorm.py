"""Exact minimum-norm points of small polyhedra {x : G x <= c}.

Every rg+ value is a limit of such problems, so each is solved exactly
rather than iterated towards its minimum:

- q = 2 is least-distance programming, min ||x||_2 s.t. Gx <= c, solved by
  the dual active-set method of Goldfarb & Idnani (*Math. Programming* 27,
  1983) with the identity as Hessian.  It starts from the unconstrained
  minimum x = 0 with no active rows and meets the most violated row: x moves
  along the part of that row's normal orthogonal to the active rows while
  the active multipliers shift to keep x the least-norm point of their rows.
  The step ends where the row is met, and the row joins the active set, or
  where an active multiplier reaches zero, and that row leaves.  Active rows
  stay linearly independent, so at most n are active.  A violated row with
  no finite step certifies that the polyhedron is empty.  The iteration runs
  on many problems at once (different G, different right-hand sides), each
  step one vectorized update of all of them, and x is finally read as the
  least-squares solution of the rows with positive multipliers, which keeps
  its accuracy when ||x|| is large.
- q in {1, inf} is the linear program min t s.t. Gx <= c, b.x <= t for every
  facet normal b of the unit q-ball (2^n sign vectors for q = 1, the 2n
  signed unit vectors for q = inf).  Its dual, min c.lam s.t. G^T lam_G +
  B^T lam_B = 0, sum(lam_B) = 1, lam >= 0, has only n + 1 rows, is always
  feasible, and is unbounded exactly when the polyhedron is empty; it is
  solved, one right-hand side at a time, by a two-phase revised simplex with
  Bland's rule, and x is read off the optimal simplex multipliers.

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
#: a least-norm point beyond this norm counts as infeasible: that far out, the
#: rows' rounding decides whether the polyhedron is empty at all
_LDP_FAR = 1e12
#: reduced-cost and pivot tolerance of the simplex, relative to the data's scale
_LP_TOL = 1e-11


@dataclass(frozen=True)
class MinNormSolution:
    x: np.ndarray
    value: float
    feasible: bool


def _active_sets(systems: list[tuple["PolyhedronProjector", np.ndarray]]) -> list[tuple]:
    """Optimal active rows of min ||x||_2 s.t. Gx <= c, for every column c of
    C and every (projector, C) of `systems` (q = 2, one dimension n, at least
    one nonzero row each).  Per system, (on, empty): on[k] marks the rows of
    column k that are active with a positive multiplier, and empty[k] whether
    the polyhedron of column k is empty.

    All columns run in lockstep.  Each round, every column without an
    entering row takes the most violated one, or stops when no row is
    violated beyond rounding; then every column takes one step towards
    meeting its entering row.
    """
    sizes = [C.shape[1] for _, C in systems]
    owner = np.repeat(np.arange(len(systems)), sizes)
    n = systems[0][0].dim
    counts = np.array([len(proj._G) for proj, _ in systems])
    rows = int(counts.max())
    # the projectors' unit rows, stacked; row `rows` of every system is zero
    # and fills the unused places of an active set
    Gp = np.zeros((len(systems), rows + 1, n))
    c = np.full((owner.size, rows + 1), np.inf)  # each column's scaled right-hand sides
    starts = np.cumsum([0] + sizes)
    for j, (proj, C) in enumerate(systems):
        Gp[j, :counts[j]] = proj._G
        c[starts[j]:starts[j + 1], :counts[j]] = (C[proj._kept] / proj._lengths[:, None]).T
    # a violation below the rounding level of a column's system does not count
    tol = (10.0 * np.finfo(float).eps * np.maximum(counts[owner], n + 1)
           * np.max(np.abs(c), axis=1, where=c < np.inf, initial=1.0))

    x = np.zeros((owner.size, n))
    active = np.full((owner.size, n), rows)  # active rows first, then padding
    lam = np.zeros((owner.size, n))          # their multipliers
    size = np.zeros(owner.size, dtype=int)
    entering = np.full(owner.size, -1)       # the violated row being met
    lam_in = np.zeros(owner.size)            # and its multiplier
    running = np.ones(owner.size, dtype=bool)
    empty = np.zeros(owner.size, dtype=bool)
    places = np.arange(n)
    at = np.arange(owner.size)
    for _ in range(10 * (rows + n)):
        pick = np.flatnonzero(running & (entering < 0))
        if pick.size:
            o = owner[pick]
            # g.x - c per row, summed in coordinate order, so that a column's
            # bits do not depend on the other columns
            S = Gp[o, :, 0] * x[pick, 0, None]
            for d in range(1, n):
                S += Gp[o, :, d] * x[pick, d, None]
            S -= c[pick]
            row = S.argmax(axis=1)
            met = S[at[:pick.size], row] <= tol[pick] * (1.0 + (x[pick] * x[pick]).sum(axis=1))
            running[pick[met]] = False
            entering[pick[~met]] = row[~met]
        live = np.flatnonzero(running)
        if not live.size:
            break
        o = owner[live]
        g = Gp[o, entering[live]]
        # the active rows' span: its orthogonal complement carries the step
        # z of x, and R the direction r in which the active multipliers shift
        Q, R = np.linalg.qr(np.swapaxes(Gp[o[:, None], active[live]], 1, 2))
        d = np.matmul(np.swapaxes(Q, 1, 2), g[:, :, None])[:, :, 0]
        free = places >= size[live][:, None]
        z = -np.matmul(Q, np.where(free, d, 0.0)[:, :, None])[:, :, 0]
        r = np.linalg.solve(R + free[:, :, None] * np.eye(n),
                            np.where(free, 0.0, d)[:, :, None])[:, :, 0]
        viol = np.maximum((g * x[live]).sum(axis=1) - c[live, entering[live]], 0.0)
        zz = (z * z).sum(axis=1)
        full = np.divide(viol, zz, out=np.full(live.size, np.inf), where=zz > 0.0)
        ratio = np.divide(lam[live], r, out=np.full(r.shape, np.inf), where=~free & (r > 0.0))
        part = np.maximum(ratio.min(axis=1), 0.0)
        t = np.minimum(full, part)
        stuck = np.isinf(t)
        t[stuck] = 0.0
        x[live] += t[:, None] * z
        lam[live] -= t[:, None] * r
        lam_in[live] += t
        gone = stuck | ((x[live] * x[live]).sum(axis=1) > _LDP_FAR ** 2)
        empty[live[gone]] = True
        running[live[gone]] = False
        # a full step meets the entering row; a partial one drops the row
        # whose multiplier reached zero
        add = ~gone & (full <= part)
        a = live[add]
        active[a, size[a]] = entering[a]
        lam[a, size[a]] = lam_in[a]
        size[a] += 1
        entering[a] = -1
        lam_in[a] = 0.0
        drop = ~gone & ~add
        if drop.any():
            b = live[drop]
            # move the dropped place to the end, behind the padding
            order = np.argsort(places == ratio.argmin(axis=1)[drop][:, None], axis=1,
                               kind="stable")
            active[b] = np.take_along_axis(active[b], order, axis=1)
            lam[b] = np.take_along_axis(lam[b], order, axis=1)
            active[b, -1] = rows
            lam[b, -1] = 0.0
            size[b] -= 1

    on = np.zeros((owner.size, rows + 1), dtype=bool)
    on[np.repeat(at, n), active.ravel()] = (lam > 0.0).ravel()
    return [(on[starts[j]:starts[j + 1], :m], empty[starts[j]:starts[j + 1]])
            for j, m in enumerate(counts)]


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
        self._zero = np.flatnonzero(lengths == 0.0)
        self._kept = np.flatnonzero(lengths > 0.0) if self._zero.size else slice(None)
        self._lengths = lengths[self._kept]
        self._G = G[self._kept] / self._lengths[:, None]

    def _solved(self, C: np.ndarray, active: tuple | None):
        """(X, feasible, values) of the columns of C, as `solve_batch` returns
        them; for q = 2, `active` holds the optimal active rows of the
        columns, as `_active_sets` returns them."""
        X = np.full((self.dim, C.shape[1]), np.nan)
        values = np.full(C.shape[1], math.inf)
        for k in range(C.shape[1]):
            if self._zero.size and np.any(C[self._zero, k] < 0.0):
                continue
            c = C[self._kept, k] / self._lengths
            if c.size == 0:
                x = np.zeros(self.dim)
            elif self.q == 2.0:
                on, empty = active[0][k], active[1][k]
                x = None if empty else np.linalg.lstsq(self._G[on], c[on], rcond=None)[0]
            else:
                x = _min_polyhedral_norm(self._G, c, self.q)
            if x is None:
                continue
            size = float(np.linalg.norm(x))
            if c.size and np.max(self._G @ x - c) > _FEAS_TOL * (1.0 + size):
                continue
            X[:, k] = x
            values[k] = size if self.q == 2.0 else np.linalg.norm(x, self.q)
        return X, values < math.inf, values

    def solve_one(self, c: np.ndarray) -> MinNormSolution:
        X, feasible, values = self.solve_batch(np.asarray(c, dtype=float).reshape(-1, 1))
        return MinNormSolution(X[:, 0], float(values[0]), bool(feasible[0]))

    def solve_batch(self, C: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Solve for every column of C.

        Returns (X, feasible, values): one minimizer per column (NaN where
        infeasible), the feasibility flags and the q-norms (+inf where
        infeasible).
        """
        return solve_systems([(self, C)])[0]


def solve_systems(requests: list) -> list[tuple]:
    """Solve every column of C for every (projector, C) of `requests`; one
    (X, feasible, values) per request, as `solve_batch` returns it.

    C may also be a function that returns it.  It is called when the solve
    reaches its request and dropped after, so that a long batch never holds
    every right-hand side at once.  The q = 2 requests of one dimension run
    in lockstep, in consecutive groups whose right-hand sides take no more
    room than the rows of all the requests; the q in {1, inf} ones run one
    column at a time."""
    out: list = [None] * len(requests)
    euclid: dict[int, list[int]] = {}  # dimension -> q = 2 requests with rows
    for i, (proj, C) in enumerate(requests):
        if proj.q == 2.0 and len(proj._G):
            euclid.setdefault(proj.dim, []).append(i)
        else:
            out[i] = proj._solved(_right_hand_sides(C), None)
    for group in euclid.values():
        room = sum(len(requests[i][0]._G) for i in group)
        batch: list = []
        used = 0
        for i in group:
            proj, C = requests[i]
            C = _right_hand_sides(C)
            if batch and used + C.size > room:
                _solve_lockstep(batch, out)
                batch, used = [], 0
            batch.append((i, proj, C))
            used += C.size
        _solve_lockstep(batch, out)
    return out


def _right_hand_sides(C) -> np.ndarray:
    return np.asarray(C() if callable(C) else C, dtype=float)


def _solve_lockstep(batch: list, out: list) -> None:
    """Solve the (index, projector, C) of a group of q = 2 requests together."""
    sets = _active_sets([(proj, C) for _, proj, C in batch])
    for (i, proj, C), active in zip(batch, sets):
        out[i] = proj._solved(C, active)


def min_dual_norm_point(G: np.ndarray, c: np.ndarray, q: float) -> MinNormSolution:
    """Minimize the q-norm over {x : Gx <= c}; q in {1, 2, inf}."""
    return PolyhedronProjector(G, q).solve_one(c)
