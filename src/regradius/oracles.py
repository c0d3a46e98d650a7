"""Independent ground-truth computations backing the estimator suite.

The singular-value oracle is a one-sided Jacobi iteration written from
scratch and cross-checked by bisection on the smallest eigenvalue of A^T A
(positive-definiteness probed with a hand-rolled Cholesky), so nothing here
assumes the correctness of a library SVD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spaces import NormSpec, as_vector, norm
from .mappings import MappingModel, SampledGraph

_JACOBI_TOL = 1e-14

#: slack used when discretizing the strict normal-cone inequality
MEMBERSHIP_SLACK = 1e-9


class NonConvergenceError(RuntimeError):
    """Jacobi sweeps did not reach the off-diagonal tolerance."""


@dataclass(frozen=True)
class SvdResult:
    singular_values: np.ndarray  # nonincreasing
    u_min: np.ndarray
    v_min: np.ndarray
    sweeps: int

    @property
    def sigma_min(self) -> float:
        return float(self.singular_values[-1])

    @property
    def sigma_max(self) -> float:
        return float(self.singular_values[0])


def _orthonormal_completion(cols: list[np.ndarray], m: int) -> np.ndarray:
    """A unit vector orthogonal to the given columns (Gram-Schmidt over e_i)."""
    for i in range(m):
        v = np.zeros(m)
        v[i] = 1.0
        for c in cols:
            v -= np.dot(v, c) * c
        n = float(np.linalg.norm(v))
        if n > 1e-8:
            return v / n
    raise NonConvergenceError("failed to complete an orthonormal basis")


def sigma_min(A, max_sweeps: int = 200) -> SvdResult:
    """Full SVD of a small dense matrix by one-sided Jacobi rotations."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    m, n = A.shape
    if m > 8 or n > 8:
        raise ValueError("oracle is restricted to matrices up to 8x8")
    transposed = m < n
    B = (A.T if transposed else A).copy()
    m2, n2 = B.shape
    V = np.eye(n2)
    scale = float(np.sqrt(np.sum(B * B))) or 1.0

    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        off = 0.0
        for i in range(n2 - 1):
            for j in range(i + 1, n2):
                bi, bj = B[:, i], B[:, j]
                a = float(np.dot(bi, bi))
                b = float(np.dot(bj, bj))
                c = float(np.dot(bi, bj))
                if a * b <= 0.0:
                    continue
                rel = abs(c) / math.sqrt(a * b)
                off = max(off, rel)
                if rel <= _JACOBI_TOL:
                    continue
                zeta = (b - a) / (2.0 * c)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.sqrt(1.0 + zeta * zeta))
                cs = 1.0 / math.sqrt(1.0 + t * t)
                sn = cs * t
                gi = cs * B[:, i] - sn * B[:, j]
                gj = sn * B[:, i] + cs * B[:, j]
                B[:, i], B[:, j] = gi, gj
                vi = cs * V[:, i] - sn * V[:, j]
                vj = sn * V[:, i] + cs * V[:, j]
                V[:, i], V[:, j] = vi, vj
        if off < _JACOBI_TOL:
            break
    else:
        raise NonConvergenceError(f"no convergence after {max_sweeps} sweeps")

    sigmas = np.sqrt(np.sum(B * B, axis=0))
    order = np.argsort(-sigmas)
    sigmas = sigmas[order]
    B = B[:, order]
    V = V[:, order]
    U = np.zeros((m2, n2))
    built: list[np.ndarray] = []
    for k in range(n2):
        if sigmas[k] > scale * 1e-13:
            U[:, k] = B[:, k] / sigmas[k]
        else:
            U[:, k] = _orthonormal_completion(built, m2)
            sigmas[k] = float(np.linalg.norm(B[:, k]))
        built.append(U[:, k])

    if transposed:
        u_min, v_min = V[:, -1], U[:, -1]
    else:
        u_min, v_min = U[:, -1], V[:, -1]
    result = SvdResult(sigmas, u_min, v_min, sweeps)
    resid = float(np.linalg.norm(A @ result.v_min - result.sigma_min * result.u_min))
    if resid > 1e-10 * max(scale, 1e-30):
        raise NonConvergenceError(f"residual {resid:.3e} exceeds certification tolerance")
    return result


def _cholesky_posdef(M: np.ndarray) -> bool:
    """True iff M is positive definite, by attempting a Cholesky factorization."""
    n = M.shape[0]
    L = np.zeros_like(M)
    for i in range(n):
        s = M[i, i] - np.dot(L[i, :i], L[i, :i])
        if s <= 0.0:
            return False
        L[i, i] = math.sqrt(s)
        for j in range(i + 1, n):
            L[j, i] = (M[j, i] - np.dot(L[j, :i], L[i, :i])) / L[i, i]
    return True


def sigma_min_bisect(A, rel_tol: float = 1e-13) -> float:
    """Smallest singular value by bisection on lambda_min(A^T A).

    A^T A - s^2 I is positive definite exactly when s < sigma_min; the
    boolean is monotone in s, so plain bisection applies.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    M = A.T @ A
    hi = math.sqrt(float(np.max(np.sum(np.abs(M), axis=1)))) + 1e-30  # Gershgorin bound
    lo = 0.0
    if not _cholesky_posdef(M - (lo + 0.0) * np.eye(M.shape[0])):
        return 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _cholesky_posdef(M - mid * mid * np.eye(M.shape[0])):
            lo = mid
        else:
            hi = mid
        if hi - lo <= rel_tol * max(hi, 1e-30):
            break
    return 0.5 * (lo + hi)


def brute_force_rg(F: MappingModel, xs, ys) -> float:
    """Reference regularity-ratio infimum: exhaustive double loop over x and y grids.

    Same definition as the estimator core, no shortcuts, independent code path.
    """
    return brute_force_rg_pairs(F, ((x, y) for x in xs for y in ys))


def brute_force_rg_pairs(F: MappingModel, pairs) -> float:
    """Reference regularity-ratio infimum over an explicit list of (x, y) pairs."""
    best = math.inf
    for x, y in pairs:
        den = F.inverse_distance(x, y)
        if den <= 1e-14:
            continue
        num = F.distance_to_image(x, y)
        if math.isinf(num):
            continue
        if math.isinf(den):
            if F.exact_inverse and num > 1e-12:
                return 0.0
            continue
        ratio = num / den
        if ratio < best:
            best = ratio
    return best


def brute_force_membership(sample: SampledGraph, at, w_pair, eps: float,
                           test_radius: float | None = None) -> bool:
    """Literal check of the normal-cone quotient over every sample point."""
    wx, wy = as_vector(w_pair[0]), as_vector(w_pair[1])
    dists = sample.pair_distances_to(at)
    for i, p in enumerate(sample.points):
        if p.same_as(at):
            continue
        r = dists[i]
        if r <= 0.0:
            continue
        if test_radius is not None and r > test_radius:
            continue
        val = float(np.dot(wx, p.x - at.x) + np.dot(wy, p.y - at.y))
        if val > (eps - MEMBERSHIP_SLACK) * r:
            return False
    return True


def finite_difference_jacobian(f, x, h: float) -> np.ndarray:
    """Central-difference Jacobian; O(h^2) error for twice-differentiable f."""
    if h <= 0.0:
        raise ValueError("step h must be positive")
    x = as_vector(x)
    n = x.size
    f0 = as_vector(f(x))
    J = np.zeros((f0.size, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        J[:, i] = (as_vector(f(x + e)) - as_vector(f(x - e))) / (2.0 * h)
    return J


def _sign_vertices(k: int):
    if k > 12:
        raise ValueError("sign-vertex enumeration limited to 12 coordinates")
    for bits in range(2 ** k):
        yield np.array([1.0 if bits >> j & 1 else -1.0 for j in range(k)])


def operator_norm(M, domain: NormSpec, codomain: NormSpec) -> float:
    """Exact operator norm of a matrix between p-normed spaces, p in {1, 2, inf}.

    The maximum over the unit ball is attained at ball vertices for p in
    {1, inf}; the p = 2 cases reduce to the spectral norm, row norms, or a
    sign-vertex maximum of the transpose.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if domain.p == 1.0:
        return max(norm(M[:, j], codomain) for j in range(M.shape[1]))
    if domain.p == math.inf:
        return max(norm(M @ s, codomain) for s in _sign_vertices(M.shape[1]))
    if codomain.p == 2.0:
        return sigma_min(M).sigma_max
    if codomain.p == math.inf:
        return max(float(np.linalg.norm(M[i])) for i in range(M.shape[0]))
    return max(float(np.linalg.norm(M.T @ s)) for s in _sign_vertices(M.shape[0]))
