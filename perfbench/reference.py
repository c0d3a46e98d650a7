"""Reference moduli computed apart from regradius.

Nothing here imports the package under test: singular values come from
numpy's LAPACK-backed SVD, polyhedral operator norms from enumerating the
vertices of the unit balls, and the exact modulus of a wide map with the
l1 domain norm from enumerating basic solutions.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def sigma_min(A) -> float:
    """Smallest singular value, by numpy.linalg.svd."""
    return float(np.linalg.svd(np.atleast_2d(np.asarray(A, dtype=float)), compute_uv=False)[-1])


def ball_vertices(dim: int, p: float) -> list[np.ndarray]:
    """Vertices of the closed unit ball of the p-norm on R^dim, p in {1, inf}.

    In dimension 1 every p-ball is [-1, 1], so any p is accepted there.
    """
    if dim == 1:
        return [np.array([1.0]), np.array([-1.0])]
    if p == 1.0:
        eye = np.eye(dim)
        return [s * eye[i] for i in range(dim) for s in (1.0, -1.0)]
    if p == math.inf:
        return [np.array(signs) for signs in itertools.product((1.0, -1.0), repeat=dim)]
    raise ValueError(f"the unit ball of the {p}-norm in dimension {dim} is not a polytope")


def _pnorm(v: np.ndarray, p: float) -> float:
    return float(np.linalg.norm(v, ord=p))


def inverse_operator_norm(A, domain_p: float, range_p: float) -> float:
    """||A^-1|| from (R^m, range_p) to (R^n, domain_p) for square invertible A.

    y -> ||A^-1 y|| is convex, so its maximum over the polyhedral unit ball
    of the range is attained at a vertex.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.shape[0] != A.shape[1]:
        raise ValueError("inverse operator norm needs a square matrix")
    A_inv = np.linalg.inv(A)
    return max(_pnorm(A_inv @ v, domain_p) for v in ball_vertices(A.shape[0], range_p))


def min_l1_preimage(A, y) -> float:
    """min ||x||_1 subject to A x = y, over the basic solutions of the LP.

    A linear program that has an optimum has one at a basic solution, i.e.
    with support on m linearly independent columns of A.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    m, n = A.shape
    scale = float(np.max(np.abs(A))) or 1.0
    best = math.inf
    for cols in itertools.combinations(range(n), m):
        B = A[:, cols]
        if abs(np.linalg.det(B)) <= 1e-12 * scale**m:
            continue
        best = min(best, float(np.abs(np.linalg.solve(B, y)).sum()))
    if math.isinf(best):
        raise ValueError("A is not surjective")
    return best


def exact_rg_l1_domain(A, range_p: float) -> float:
    """Exact regularity modulus of x -> A x with the l1 domain norm.

    rg = 1 / sup{d(0, A^-1 y) : ||y|| <= 1}; the inner distance is the LP of
    min_l1_preimage and is convex in y, so the supremum sits at a vertex of
    the range ball.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    worst = max(min_l1_preimage(A, v) for v in ball_vertices(A.shape[0], range_p))
    return 1.0 / worst
