"""Norms, dual norms, product-space norms and unit-sphere discretizations.

Primal product pairs carry the sum norm, dual pairs the max norm; every
other module builds its distance computations on top of these helpers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

VALID_EXPONENTS = (1.0, 2.0, math.inf)

#: default tolerance for unit-norm checks on sphere grids
UNIT_TOL = 1e-12


class DimensionMismatchError(ValueError):
    """Vector length does not match the owning NormSpec."""


def conjugate_exponent(p: float) -> float:
    """Conjugate exponent q with 1/p + 1/q = 1 (q = inf for p = 1 and vice versa)."""
    if p == 1.0:
        return math.inf
    if p == math.inf:
        return 1.0
    return p / (p - 1.0)


def inf_to_json(v: float):
    """v as a JSON document holds it: infinity, which JSON lacks, as "inf"."""
    return "inf" if math.isinf(v) else v


def inf_from_json(v) -> float:
    """The float that inf_to_json wrote as v."""
    return math.inf if v == "inf" else float(v)


@dataclass(frozen=True)
class NormSpec:
    """A p-norm on R^dimension, p restricted to {1, 2, inf}."""

    dimension: int
    p: float = 2.0

    def __post_init__(self):
        if not isinstance(self.dimension, int) or self.dimension < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.dimension!r}")
        object.__setattr__(self, "p", float(self.p))
        if self.p not in VALID_EXPONENTS:
            raise ValueError(f"norm exponent must be one of {VALID_EXPONENTS}, got {self.p}")

    @property
    def q(self) -> float:
        return conjugate_exponent(self.p)

    def dual(self) -> "NormSpec":
        return NormSpec(self.dimension, self.q)


@dataclass(frozen=True)
class ProductNormSpec:
    """Product of two normed spaces: sum norm on primal pairs, max norm on dual pairs."""

    left: NormSpec
    right: NormSpec


def as_vector(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    return v if v.ndim else v.reshape(1)


def _check_dimension(v: np.ndarray, spec: NormSpec) -> np.ndarray:
    v = as_vector(v)
    if v.shape != (spec.dimension,):
        raise DimensionMismatchError(
            f"expected vector of length {spec.dimension}, got shape {v.shape}"
        )
    return v


def _p_norm(v: np.ndarray, p: float) -> float:
    # ndarray methods run the same reductions as np.sum / np.max without their
    # per-call dispatch; a destabilization certificate makes millions of calls
    if p == 1.0:
        return float(np.abs(v).sum())
    if p == 2.0:
        m = float(np.abs(v).max()) if v.size else 0.0
        if m == 0.0 or not math.isfinite(m):
            return m
        w = v / m  # scale so the sum of squares cannot underflow to zero
        return m * math.sqrt(float((w * w).sum()))
    return float(np.abs(v).max()) if v.size else 0.0


def norm(v, spec: NormSpec) -> float:
    """p-norm of ``v``; zero iff v = 0."""
    return _p_norm(_check_dimension(v, spec), spec.p)


def norms(rows, spec: NormSpec) -> np.ndarray:
    """p-norm of each row of a 2-D array; entry i equals ``norm(rows[i], spec)`` bit for bit."""
    # _p_norm row by row; a row sum adds in the order of a 1-D sum only while
    # the rows are C-contiguous
    rows = np.ascontiguousarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != spec.dimension:
        raise DimensionMismatchError(
            f"expected rows of length {spec.dimension}, got shape {rows.shape}"
        )
    a = np.abs(rows)
    if spec.p == 1.0:
        return a.sum(axis=1)
    m = a.max(axis=1)
    if spec.p == 2.0:
        ok = (m > 0.0) & np.isfinite(m)
        w = rows[ok] / m[ok, None]
        m[ok] *= np.sqrt((w * w).sum(axis=1))
    return m


def dual_norm(v_star, spec: NormSpec) -> float:
    """Norm of a dual vector: the q-norm with q conjugate to spec.p."""
    return _p_norm(_check_dimension(v_star, spec), spec.q)


def pairing(v_star, v) -> float:
    """Bilinear pairing <v*, v>."""
    return float(np.dot(as_vector(v_star), as_vector(v)))


def pair_norm_primal(x, y, spec: ProductNormSpec) -> float:
    """Sum norm on the primal product: ||x|| + ||y||."""
    return norm(x, spec.left) + norm(y, spec.right)


def pair_norm_dual(x_star, y_star, spec: ProductNormSpec) -> float:
    """Max norm on the dual product: max{||x*||, ||y*||}."""
    return max(dual_norm(x_star, spec.left), dual_norm(y_star, spec.right))


def distance_to_set(y, S, spec: NormSpec) -> float:
    """min_{s in S} ||y - s||; +inf for an empty set (inf over the empty set)."""
    y = _check_dimension(y, spec)
    rows = [_check_dimension(s, spec) for s in S]
    return float(norms(np.array(rows) - y, spec).min()) if rows else math.inf


def generator(*keys: int) -> np.random.Generator:
    """Deterministic RNG keyed by a tuple of nonnegative integers."""
    return np.random.default_rng(np.random.SeedSequence([int(k) & 0x7FFFFFFF for k in keys]))


def _dual_normalize(v: np.ndarray, spec: NormSpec) -> np.ndarray:
    n = _p_norm(v, spec.q)
    if n <= 0.0:
        raise ValueError("cannot normalize the zero vector")
    return v / n


def sphere_grid(spec: NormSpec, count: int, seed: int = 0) -> list[np.ndarray]:
    """Deterministic grid of ``count`` unit vectors of the dual norm.

    Always contains the signed coordinate directions, so the grid covers
    +/- every axis; the remainder is a seeded random fill, each entry
    normalized to dual norm 1 within UNIT_TOL.
    """
    d = spec.dimension
    if count < 2 * d:
        raise ValueError(f"count must be at least {2 * d} for dimension {d}, got {count}")
    out: list[np.ndarray] = []
    for i in range(d):
        e = np.zeros(d)
        e[i] = 1.0
        out.append(e.copy())
        out.append(-e)
    rng = generator(seed, 0x5F3E, d)
    while len(out) < count:
        v = rng.standard_normal(d)
        if _p_norm(v, spec.q) < 1e-8:
            continue
        out.append(_dual_normalize(v, spec))
    return out[:count]


def ball_sample(spec: NormSpec, radius: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded points in the closed p-ball of given radius (rows of the result)."""
    d = spec.dimension
    dirs = rng.standard_normal((count, d))
    lengths = norms(dirs, spec)
    lengths[lengths < 1e-12] = 1.0
    radii = radius * rng.random(count) ** (1.0 / d)
    return dirs / lengths[:, None] * radii[:, None]
