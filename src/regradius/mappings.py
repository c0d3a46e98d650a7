"""Set-valued mapping models F: R^n =: R^m and their oracles.

Four variants are supported: Linear (single-valued A x), Smooth (a finite
union of continuous branches), FiniteGraph (a stored point sample of the
graph) and Perturbed (base + scale * f for a single-valued f).  Each variant
supplies two batched oracles: image_rows() lists every image of every row of
an array, preimage_rows() every preimage candidate.  MappingModel derives
the rest from them: the distances d(y, F(x)) and d(x, F^{-1}(y)) of many
pairs at once, and the one-row images(), inverse_points(),
distance_to_image() and inverse_distance().  Graphs are sampled
deterministically on nested shells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, compress, islice, product
from typing import Callable, Sequence

import numpy as np

from .spaces import (
    DimensionMismatchError,
    NormSpec,
    ProductNormSpec,
    as_vector,
    generator,
    norm,
    norms,
)

#: residual below which a point counts as lying on a graph
ON_GRAPH_TOL = 1e-10

#: entries of one block of the dual-vertex list's candidates or gauge values (8 MiB of floats)
_BLOCK = 2**20


class GraphMembershipError(ValueError):
    """A point claimed to lie on a graph does not."""


class InverseOracleUnavailableError(RuntimeError):
    """The mapping variant has no exact inverse oracle for this query."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class GraphPoint:
    """A point (x, y) with y in F(x)."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _readonly(as_vector(self.x)))
        object.__setattr__(self, "y", _readonly(as_vector(self.y)))

    def same_as(self, other: "GraphPoint") -> bool:
        return np.array_equal(self.x, other.x) and np.array_equal(self.y, other.y)


@dataclass(frozen=True)
class SampledGraph:
    """Finite sample of a graph around a base point, within a pair-norm radius."""

    base: GraphPoint
    points: tuple[GraphPoint, ...]
    radius: float
    spaces: ProductNormSpec

    def __post_init__(self):
        left, right = self.spaces.left, self.spaces.right
        if self.base.x.shape != (left.dimension,) or self.base.y.shape != (right.dimension,):
            raise DimensionMismatchError("base point does not match the product spaces")
        n = len(self.points)
        xs = np.array([p.x for p in self.points]).reshape(n, left.dimension)
        ys = np.array([p.y for p in self.points]).reshape(n, right.dimension)
        object.__setattr__(self, "_xs", _readonly(xs))
        object.__setattr__(self, "_ys", _readonly(ys))
        if not self.matches(self.base).any():
            raise ValueError("base point must be contained in the sample")
        if len({row.tobytes() for row in np.hstack([self._xs, self._ys])}) < n:
            raise ValueError("sample contains exact duplicates")
        d = self.pair_distances_to(self.base)
        far = ~(d <= self.radius * (1.0 + 1e-9) + 1e-15)
        if far.any():
            raise ValueError(f"sample point at pair-distance {d[far][0]} exceeds radius {self.radius}")

    @property
    def xs(self) -> np.ndarray:
        return self._xs

    @property
    def ys(self) -> np.ndarray:
        return self._ys

    def matches(self, at: GraphPoint) -> np.ndarray:
        """Mask of the sample points equal to `at`."""
        return (self._xs == at.x).all(axis=1) & (self._ys == at.y).all(axis=1)

    def pair_distances_to(self, at: GraphPoint) -> np.ndarray:
        """Pair-norm distance of every sample point to `at`, as pair_norm_primal computes it."""
        return norms(self._xs - at.x, self.spaces.left) + norms(self._ys - at.y, self.spaces.right)

    def index_of(self, at: GraphPoint) -> int:
        hits = np.flatnonzero(self.matches(at))
        if not hits.size:
            raise ValueError("point is not part of this sample")
        return int(hits[0])


class MappingModel:
    """Base interface shared by every mapping variant.  A variant implements
    image_rows and preimage_rows, which return (owner, V): V[k] is a value
    for row owner[k] of the argument, rows in order; the rest is derived."""

    #: whether inverse_distance certifies emptiness exactly (+inf is trustworthy)
    exact_inverse = True

    def __init__(self, domain: NormSpec, codomain: NormSpec):
        self.domain = domain
        self.codomain = codomain

    @property
    def product_spec(self) -> ProductNormSpec:
        return ProductNormSpec(self.domain, self.codomain)

    def image_rows(self, X) -> tuple[np.ndarray, np.ndarray]:
        """Every image of every row of X."""
        raise NotImplementedError

    def preimage_rows(self, Y) -> tuple[np.ndarray, np.ndarray]:
        """Every preimage candidate of every row of Y (exact where available)."""
        raise InverseOracleUnavailableError(type(self).__name__)

    def images(self, x) -> list[np.ndarray]:
        return list(self.image_rows(as_vector(x)[None])[1])

    def inverse_points(self, y) -> list[np.ndarray]:
        return list(self.preimage_rows(as_vector(y)[None])[1])

    def distance_to_image(self, x, y) -> float:
        """d(y, F(x)); +inf when F(x) is empty."""
        return float(self.distances_to_image(as_vector(x)[None], as_vector(y)[None])[0])

    def inverse_distance(self, x, y, root=None) -> float:
        """d(x, F^{-1}(y)); +inf when the preimage is empty.  root is a
        root-finding start, used only where the inverse distance is not exact."""
        root = None if root is None else as_vector(root)[None]
        return float(self.inverse_distances(as_vector(x)[None], as_vector(y)[None], root)[0])

    def distances_to_image(self, x, y) -> np.ndarray:
        """distance_to_image of each row pair (x[i], y[i])."""
        y = np.asarray(y, dtype=float)
        owner, W = self.image_rows(x)
        return _least(len(y), owner, norms(y[owner] - W, self.codomain))

    def inverse_distances(self, x, y, roots=None) -> np.ndarray:
        """inverse_distance of each row pair (x[i], y[i]); roots[i] is a root-finding
        start for pair i, used only where the inverse distance is not exact."""
        x = np.asarray(x, dtype=float)
        owner, U = self.preimage_rows(y)
        return _least(len(x), owner, norms(x[owner] - U, self.domain))

    def _nearest_preimages(self, targets, near) -> tuple[np.ndarray, np.ndarray]:
        """The preimage candidate of targets[i] nearest to near[i] (the first
        on ties), for every row i that has one: (rows ascending, candidates)."""
        owner, U = self.preimage_rows(targets)
        pick = nearest_per_owner(owner, norms(U - np.asarray(near, dtype=float)[owner], self.domain))
        return owner[pick], U[pick]

    def _preimage_jacobians(self, targets, near, U) -> np.ndarray:
        """The derivative at targets[i] of the preimage nearest to near[i],
        U[i], as (rows, n, m): forward differences through _nearest_preimages
        with the same near, so the branch is kept."""
        return _forward_differences(lambda Z, i: self._nearest_preimages(Z, near[i]), targets, U)


def _forward_differences(g, X: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Forward-difference Jacobians (rows, outputs, inputs) at the rows of X
    of a row function with values G there: g(Z, i) gives (the rows of Z with
    a value, their values), Z[j] a shift of X[i[j]] by sqrt(eps) (1 + |x|).
    NaN where a shift has no value."""
    k, n = X.shape
    Z = X[:, None, :] + np.sqrt(np.finfo(float).eps) * (1.0 + np.abs(X))[:, :, None] * np.eye(n)
    rows, V = g(Z.reshape(k * n, n), np.repeat(np.arange(k), n))
    D = np.full((k * n, G.shape[1]), math.nan)
    D[rows] = V
    D = D.reshape(k, n, G.shape[1]) - G[:, None, :]
    return np.swapaxes(D / (np.diagonal(Z, axis1=1, axis2=2) - X)[:, :, None], 1, 2)


def _least(count: int, owner: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The least d of each owner in range(count); +inf for an owner with none."""
    out = np.full(count, math.inf)
    np.minimum.at(out, owner, d)
    return out


def nearest_per_owner(owner: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Index of the least d of each owner, the first one on ties (as `min`
    picks it), owners ascending."""
    order = np.lexsort((d, owner))
    return order[np.unique(owner[order], return_index=True)[1]]


def f_rows(f, X: np.ndarray, m: int) -> np.ndarray:
    """f at each row of X, as rows of length m: through f.rows where f has
    it (its rows equal the one-row calls bit for bit), else row by row."""
    rows = getattr(f, "rows", None)
    if rows is not None:
        return rows(X)
    return np.array([as_vector(f(x)) for x in X]).reshape(len(X), m)


def f_jacobians(f, X: np.ndarray, m: int) -> np.ndarray:
    """The Jacobian of f at each row of X, as (rows, m, n): f.jacobian_rows
    where f has it, else forward differences through f_rows."""
    if hasattr(f, "jacobian_rows"):
        return f.jacobian_rows(X)
    return _forward_differences(lambda Z, i: (np.arange(len(Z)), f_rows(f, Z, m)), X, f_rows(f, X, m))


def _matvecs(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """M @ x for each row x of X.  Stacked matrix-vector products give each
    row the bits of M @ x; X @ M.T does not."""
    return np.matmul(M[None], np.asarray(X, dtype=float)[:, :, None])[:, :, 0]


class LinearMapping(MappingModel):
    """Single-valued x -> A x."""

    def __init__(self, matrix, domain: NormSpec | None = None, codomain: NormSpec | None = None):
        A = np.atleast_2d(np.asarray(matrix, dtype=float))
        m, n = A.shape
        super().__init__(domain or NormSpec(n), codomain or NormSpec(m))
        if self.domain.dimension != n or self.codomain.dimension != m:
            raise DimensionMismatchError("matrix shape does not match the norm specs")
        self.matrix = _readonly(A)
        self._pinv = np.linalg.pinv(A)
        # orthonormal bases of range A and of ker A, the latter empty for injective A
        u, s, vt = np.linalg.svd(A)
        rank = int(np.sum(s > s[0] * 1e-13)) if s.size and s[0] > 0 else 0
        self._range = u[:, :rank]
        self._null = vt[rank:].T

    def image_rows(self, X) -> tuple[np.ndarray, np.ndarray]:
        W = _matvecs(self.matrix, X)
        return np.arange(len(W)), W

    def preimage_rows(self, Y) -> tuple[np.ndarray, np.ndarray]:
        # pinv @ y, unless it fails to solve A u = y: a residual norm above 1e-9 (1 + ||y||)
        Y = np.asarray(Y, dtype=float)
        U = _matvecs(self._pinv, Y)
        cod = self.codomain
        on = ~(norms(_matvecs(self.matrix, U) - Y, cod) > 1e-9 * (1.0 + norms(Y, cod)))
        return np.flatnonzero(on), U[on]

    def _preimage_jacobians(self, targets, near, U) -> np.ndarray:
        # the one preimage candidate is pinv @ y
        return np.broadcast_to(self._pinv, (len(targets), *self._pinv.shape))

    def inverse_distances(self, x, y, roots=None) -> np.ndarray:
        """d(x[i], A^-1 y[i]) of each row pair: +inf where preimage_rows finds
        y[i] off the range, else min ||v||_p over A v = A x[i] - y[i], exact
        (for p in {1, inf}, see _dual_vertices).  roots is unused."""
        if not self._null.shape[1]:
            return super().inverse_distances(x, y)
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        owner, U = self.preimage_rows(y)
        out = np.full(len(x), math.inf)
        if self.domain.p == 2.0:
            W = x[owner] - U
            W = W - _matvecs(self._null, _matvecs(self._null.T, W))
            # the 1-D dot np.linalg.norm takes, row by row
            out[owner] = np.sqrt(np.matmul(W[:, None, :], W[:, :, None])[:, 0, 0])
        else:  # in blocks of rows whose (rows x vertices) values fit in _BLOCK
            step = max(1, _BLOCK // len(self._dual_vertices[0]))
            for s in range(0, len(owner), step):
                rows = owner[s:s + step]
                out[rows] = self._gauge(x[rows], y[rows])
        return out

    @cached_property
    def _dual_vertices(self) -> tuple[np.ndarray, ...]:
        """(M, S, g, J): the vertices mu = M[f] of D = {mu : ||B^T mu||_p* <= 1},
        B = Q^T A for the basis Q of range A, so that min{||v||_p : A v = r} =
        max_f <M[f], Q^T r> (LP duality; Rockafellar, *Convex Analysis*, 1970,
        sec. 31).  A vertex is listed once per set of columns J[g[f]] defining
        it, with the signs S[f] of its primal point off those columns (see
        _gauge).  p = 1: mu solves <sign_j b_j, mu> = 1 on k = rank A columns,
        from C(n, k) 2^k candidates.  p = inf: mu = +-nu / ||B^T nu||_1, nu
        orthogonal to k - 1 columns, 2 C(n, k - 1) candidates, times both
        signs of every further nonzero column in nu's hyperplane.  The column
        sets go in blocks of about _BLOCK candidate entries, and only the sets
        that define a vertex are kept, so memory follows the vertex count, not
        the candidate count."""
        B = self._range.T @ self.matrix
        k, n = B.shape
        if k == 0:  # A = 0: D = {0}
            return np.zeros((1, 0)), np.zeros((1, n), np.int8), np.zeros(1, int), np.zeros((1, 0), int)
        l1 = self.domain.p == 1.0
        size = k if l1 else k - 1
        subsets = combinations(range(n), size)
        step = max(1, _BLOCK // (n << k if l1 else n * k))
        signs = np.array(list(product((1.0, -1.0), repeat=k if l1 else 0)))
        cols, base = [[], [], [], []], 0
        for chunk in iter(lambda: list(islice(subsets, step)), []):
            J = np.array(chunk, dtype=int).reshape(len(chunk), size)
            u, sv, vt = np.linalg.svd(B[:, J].transpose(1, 0, 2))
            ok = sv.min(axis=1, initial=math.inf) > 1e-13 * sv.max(axis=1, initial=0.0)
            J, u, sv, vt = J[ok], u[ok], sv[ok], vt[ok]
            if l1:  # the feasible mu^T = sigma^T B_J^-1 over the sign vectors sigma
                inv = np.matmul(np.swapaxes(vt, 1, 2) / sv[:, None, :], np.swapaxes(u, 1, 2))
                M = np.matmul(signs[None], inv).reshape(-1, k)
                top = np.abs(M @ B).max(axis=1)
                f = np.flatnonzero(top <= 1.0 + 1e-9)
                M, S, f = M[f] / top[f, None], np.zeros((len(f), n), np.int8), f // len(signs)
            else:
                M, S, f = self._linf_vertices(B, J, u[:, :, -1])
            used, f = np.unique(f, return_inverse=True)
            for c, a in zip(cols, (M, S, f + base, J[used])):
                c.append(a)
            base += len(used)
        # each column's blocks are freed as soon as they are joined
        return tuple(np.concatenate(cols.pop(0)) for _ in range(len(cols)))

    @staticmethod
    def _linf_vertices(B: np.ndarray, J: np.ndarray, nu: np.ndarray) -> tuple[np.ndarray, ...]:
        """(M, S, f): +-nu[f] / ||B^T nu[f]||_1 with the signs S of <b_j, mu>
        off J[f], once per sign pattern of the free columns: the nonzero
        columns off J[f] in nu[f]'s hyperplane."""
        g = nu @ B
        cn = np.linalg.norm(B, axis=0)
        free = (np.abs(g) <= 1e-9 * cn) & (cn > 0)
        np.put_along_axis(free, J, False, axis=1)
        S = np.sign(g)
        np.put_along_axis(S, J, 0.0, axis=1)
        # the free columns' sign patterns, in binary order
        z = 2 ** free.sum(axis=1)
        f = np.repeat(np.arange(len(J)), z)
        bit = ((np.arange(len(f)) - np.repeat(np.cumsum(z) - z, z))[:, None]
               >> (np.cumsum(free, axis=1)[f] - 1)) & 1
        S = np.where(free[f], 1.0 - 2.0 * bit, S[f]).astype(np.int8)
        M = (nu / np.abs(g).sum(axis=1, keepdims=True))[f]
        return np.vstack([M, -M]), np.vstack([S, -S]), np.tile(f, 2)

    def _gauge(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """max_f <M[f], Q^T (A x - y)> per row, certified by the primal v of a
        vertex within 1e-9 of it: v = value * S[f] off its columns J, and
        v[J] = B_J^+ (Q^T (A x - y) - B v) on them, with ||A v - (A x - y)|| <=
        1e-9 (1 + ||y||), as in preimage_rows, and ||v||_p <= value (1 + 1e-9)."""
        M, S, g, J = self._dual_vertices
        R = _matvecs(self.matrix, x) - y
        V = _matvecs(M, _matvecs(self._range.T, R))
        value = V.max(axis=1)
        i, f = np.nonzero(V >= (value - 1e-9 * np.abs(value))[:, None])
        v = value[i, None] * S[f]
        rest = (R[i] - v @ self.matrix.T) @ self._range
        used, h = np.unique(g[f], return_inverse=True)
        pinv = np.linalg.pinv((self._range.T @ self.matrix)[:, J[used]].transpose(1, 0, 2))
        v[np.arange(len(f))[:, None], J[g[f]]] = np.matmul(pinv[h], rest[:, :, None])[:, :, 0]
        ok = (norms(v, self.domain) <= value[i] * (1.0 + 1e-9)) & (norms(
            v @ self.matrix.T - R[i], self.codomain) <= 1e-9 * (1.0 + norms(y[i], self.codomain)))
        missing = int((np.bincount(i[ok], minlength=len(x)) == 0).sum())
        if missing:
            raise InverseOracleUnavailableError(f"no certified l{self.domain.p:g} inverse distance "
                                                f"for {missing} rows of {self.matrix.tolist()}")
        return value

    # own entries of the one-row forms, which a tracer can wrap per class
    distance_to_image = MappingModel.distance_to_image
    inverse_distance = MappingModel.inverse_distance


class SmoothMapping(MappingModel):
    """Finite union of continuous single-valued branches.

    Closedness of the graph near the base point is an unchecked assumption on
    user-supplied branches; branch inverses, when given, must return the full
    finite preimage set of their branch.
    """

    def __init__(
        self,
        branches: Sequence[Callable[[np.ndarray], np.ndarray]],
        domain: NormSpec,
        codomain: NormSpec,
        branch_inverses: Sequence[Callable[[np.ndarray], list[np.ndarray]] | None] | None = None,
        name: str = "smooth",
    ):
        super().__init__(domain, codomain)
        self.branches = tuple(branches)
        self.branch_inverses = tuple(branch_inverses) if branch_inverses else (None,) * len(self.branches)
        if len(self.branch_inverses) != len(self.branches):
            raise ValueError("one inverse slot per branch required")
        self.name = name

    def image_rows(self, X) -> tuple[np.ndarray, np.ndarray]:
        X = np.asarray(X, dtype=float)
        W = [as_vector(b(x)) for x in X for b in self.branches]
        owner = np.repeat(np.arange(len(X)), len(self.branches))
        return owner, np.array(W).reshape(len(W), self.codomain.dimension)

    def preimage_rows(self, Y) -> tuple[np.ndarray, np.ndarray]:
        owner, U = [], []
        for i, y in enumerate(np.asarray(Y, dtype=float)):
            scale = 1.0 + norm(y, self.codomain)
            for b, inv in zip(self.branches, self.branch_inverses):
                if inv is None:
                    raise InverseOracleUnavailableError(
                        f"branch of {self.name!r} has no inverse; supply one or pre-sample a graph"
                    )
                for u in inv(y):
                    u = as_vector(u)
                    if norm(as_vector(b(u)) - y, self.codomain) <= 1e-9 * scale:
                        owner.append(i)
                        U.append(u)
        return np.array(owner, dtype=int), np.array(U).reshape(len(U), self.domain.dimension)


class FiniteGraphMapping(MappingModel):
    """Mapping given by a stored graph sample; slices use a small membership band."""

    def __init__(self, graph: SampledGraph):
        super().__init__(graph.spaces.left, graph.spaces.right)
        self.graph = graph
        self.tol = 1e-9 * (1.0 + graph.radius)

    def _band(self, keys: np.ndarray, Q, spec: NormSpec, values: np.ndarray):
        """(owner, values[j]) for every stored key j within the band around
        every row of Q; the rows go in chunks whose (rows x stored points)
        differences stay within 128 KiB."""
        Q = np.asarray(Q, dtype=float)
        n, d = keys.shape
        step = max(1, 16384 // (n * d))
        hits = [np.flatnonzero(norms((keys - Q[s:s + step, None]).reshape(-1, d), spec)
                               <= self.tol) + s * n
                for s in range(0, len(Q), step)]
        owner, j = np.divmod(np.concatenate(hits) if hits else np.empty(0, dtype=int), n)
        return owner, values[j]

    def image_rows(self, X) -> tuple[np.ndarray, np.ndarray]:
        return self._band(self.graph.xs, X, self.domain, self.graph.ys)

    def preimage_rows(self, Y) -> tuple[np.ndarray, np.ndarray]:
        return self._band(self.graph.ys, Y, self.codomain, self.graph.xs)

    # for tracers, as in LinearMapping
    inverse_distance = MappingModel.inverse_distance
    images = MappingModel.images


class PerturbedMapping(MappingModel):
    """base + scale * f for a single-valued perturbation f with f(x_bar) = 0."""

    exact_inverse = False

    def __init__(self, base: MappingModel, f: Callable[[np.ndarray], np.ndarray], scale: float,
                 base_point: GraphPoint):
        super().__init__(base.domain, base.codomain)
        self.base = base
        self.f = f
        self.scale = float(scale)
        self.base_point = base_point

    def _shift(self, X: np.ndarray) -> np.ndarray:
        return self.scale * f_rows(self.f, X, self.codomain.dimension)

    def image_rows(self, X) -> tuple[np.ndarray, np.ndarray]:
        X = np.asarray(X, dtype=float)
        owner, W = self.base.image_rows(X)
        return owner, W + self._shift(X)[owner]

    def preimage_rows(self, Y) -> tuple[np.ndarray, np.ndarray]:
        return self._roots(np.asarray(Y, dtype=float), None)

    def distances_to_image(self, x, y) -> np.ndarray:
        # d(y - scale f(x), base(x)): the bits the roots are verified with
        x = np.asarray(x, dtype=float)
        return self.base.distances_to_image(x, np.asarray(y, dtype=float) - self._shift(x))

    def _iterate(self, y: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Newton steps on the fixed point u = N(y - scale f(u); u), N(z; u)
        the base preimage of z nearest to u, run on every row at once: u <- u
        + (I + scale DN J_f)^-1 (N - u), DN the derivative of N at z and J_f
        the Jacobian of f at u.  A row with J_f = 0, or whose matrix is
        singular, takes the plain step N - u.  A row stops when it has no
        base preimage or its step falls below 1e-15 (1 + ||u||), after at
        most 48 steps.  Returns the final points and the mask of those whose
        residual verifies."""
        u = u.copy()
        live = np.arange(len(u))
        n, m = self.domain.dimension, self.codomain.dimension
        for _ in range(48):
            if not live.size:
                break
            z = y[live] - self._shift(u[live])
            rows, nxt = self.base._nearest_preimages(z, u[live])
            live, z = live[rows], z[rows]
            step = nxt - u[live]
            J = f_jacobians(self.f, u[live], m)
            newton = np.flatnonzero(J.any(axis=(1, 2)))
            if newton.size:
                DN = self.base._preimage_jacobians(z[newton], u[live[newton]], nxt[newton])
                M = np.eye(n) + self.scale * np.matmul(DN, J[newton])
                fine = np.isfinite(M).all(axis=(1, 2))
                fine[fine] = np.linalg.det(M[fine]) != 0.0
                newton, M = newton[fine], M[fine]
                step[newton] = np.linalg.solve(M, step[newton][:, :, None])[:, :, 0]
            u[live] = u[live] + step
            live = live[~(norms(step, self.domain) <= 1e-15 * (1.0 + norms(u[live], self.domain)))]
        tol = 1e-10 * (1.0 + norms(y, self.codomain))
        return u, self.distances_to_image(u, y) <= tol

    def _roots(self, y: np.ndarray, roots: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
        """Verified multistart roots of y[i] in F(u) + scale * f(u), for every row
        i at once.  The starts of row i are roots[i] (when given), then the base
        preimages of y[i], each run by _iterate.  Returns the row index of each
        root and the roots, in start order, less those within
        1e-12 (1 + ||r||) of an earlier root of their row."""
        try:
            owner, u0 = self.base.preimage_rows(y)
        except InverseOracleUnavailableError:
            owner, u0 = np.empty(0, dtype=int), np.empty((0, self.domain.dimension))
        if roots is not None:
            # each row's own start goes first
            owner = np.concatenate([np.arange(len(y)), owner])
            order = np.argsort(owner, kind="stable")
            owner, u0 = owner[order], np.vstack([roots, u0])[order]
        u, ok = self._iterate(y[owner], u0)
        # dedupe in start order; the starts of one row are consecutive, so the
        # start at position j of a row sits k places after its position j - k
        position = np.arange(len(owner)) - np.searchsorted(owner, owner)
        cutoff = 1e-12 * (1.0 + norms(u, self.domain))
        for j in range(1, int(position.max(initial=0)) + 1):
            cur = np.flatnonzero(ok & (position == j))
            for k in range(j, 0, -1):
                prev = cur - k
                dup = ok[prev] & ~(norms(u[cur] - u[prev], self.domain) > cutoff[cur])
                ok[cur[dup]] = False
                cur = cur[~dup]
        return owner[ok], u[ok]

    def inverse_distances(self, x, y, roots=None) -> np.ndarray:
        """Distances to the preimages via verified multistart roots; roots[i],
        when given, is also a candidate preimage of its own.

        +inf means "no root found", not certified emptiness; callers must
        treat it accordingly (exact_inverse is False).
        """
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        best = np.full(len(x), math.inf)
        if roots is not None:
            roots = np.asarray(roots, dtype=float)
            hit = self.distances_to_image(roots, y) <= 1e-10 * (1.0 + norms(y, self.codomain))
            best[hit] = norms(roots[hit] - x[hit], self.domain)
        owner, found = self._roots(y, roots)
        np.minimum.at(best, owner, norms(found - x[owner], self.domain))
        return best

    inverse_distance = MappingModel.inverse_distance  # for tracers, as in LinearMapping


def add_perturbation(F: MappingModel, f: Callable[[np.ndarray], np.ndarray], scale: float,
                     base_point: GraphPoint) -> PerturbedMapping:
    """Form F + scale * f; requires f(x_bar) = 0 so the base point is preserved."""
    fx = as_vector(f(base_point.x))
    if norm(fx, F.codomain) > 1e-10:
        raise GraphMembershipError(
            f"perturbation must vanish at the base point, got ||f(x_bar)|| = {norm(fx, F.codomain):.3e}"
        )
    return PerturbedMapping(F, f, scale, base_point)


def sample_graph(F: MappingModel, center: GraphPoint, radius: float, budget: int,
                 seed: int = 0) -> SampledGraph:
    """Deterministic graph sample on nested shells around the center.

    Domain points are drawn on shells of radii radius * 2^-j (antipodal pairs
    plus the signed coordinate directions), each paired with every image value
    that keeps the pair within the pair-norm ball.  Random points of the ball
    top the sample up while it holds at most `budget` points.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if F.distances_to_image(center.x[None], center.y[None])[0] > ON_GRAPH_TOL:
        raise GraphMembershipError("center is not on the graph")
    spec = F.product_spec
    if isinstance(F, FiniteGraphMapping):
        # a stored graph is its own sample: restrict to the requested ball
        g = F.graph
        inside = (g.pair_distances_to(center) <= radius) & ~g.matches(center)
        return SampledGraph(center, (center, *compress(g.points, inside)), radius, spec)
    rng = generator(seed, 0x9A11)
    n = F.domain.dimension
    n_shells = 7
    per_shell = max(1, budget // (2 * n_shells))
    shells = []
    for j in range(n_shells):
        r = radius * (2.0 ** -j)
        # random radii inside the shell band keep one-dimensional domains
        # from collapsing onto the dyadic radii alone
        vs = rng.standard_normal((per_shell, n))
        radii = r * (0.5 + 0.5 * rng.random(per_shell))
        nv = norms(vs, F.domain)
        ok = ~(nv < 1e-12)
        steps = np.vstack([r * np.eye(n), vs[ok] / nv[ok, None] * radii[ok, None]])
        shells.append(np.stack((steps, -steps), axis=1).reshape(-1, n))

    points: list[GraphPoint] = [center]
    seen = {(center.x.tobytes(), center.y.tobytes())}
    X, stop, draws = center.x + np.vstack(shells), math.inf, 4 * budget
    while True:
        # the unseen images of the rows of X inside the pair ball, row after
        # row until the sample holds more than `stop` points
        owner, W = F.image_rows(X)
        outside = norms(X[owner] - center.x, F.domain) + norms(W - center.y, F.codomain) > radius
        last = -1
        for k in np.flatnonzero(~outside):
            if owner[k] != last and len(points) > stop:
                break
            last = owner[k]
            key = (X[last].tobytes(), W[k].tobytes())
            if key not in seen:
                seen.add(key)
                points.append(GraphPoint(X[last], W[k]))
        # top up to the requested budget (the pair-ball filter can drop whole
        # outer bands when the mapping stretches the range side).  The draws
        # do not depend on which points are kept, so each round draws the
        # shortfall before any of its images is taken
        stop = budget
        if len(points) > budget or not draws:
            break
        rows = []
        for _ in range(min(draws, budget + 1 - len(points))):
            draws -= 1
            v = rng.standard_normal(n)
            nv = norm(v, F.domain)
            if nv < 1e-12:
                continue
            rv = radius * 2.0 ** (-float(rng.uniform(0.0, n_shells)))
            rows.append(center.x + v / nv * rv)
        X = np.array(rows).reshape(len(rows), n)
    return SampledGraph(center, tuple(points), radius, spec)


# ---------------------------------------------------------------------------
# JSON loading of mapping specifications
# ---------------------------------------------------------------------------

def _parabola_inverse(y: np.ndarray) -> list[np.ndarray]:
    v = float(y[0])
    if v < 0.0:
        return []
    r = math.sqrt(v)
    return [np.array([r]), np.array([-r])] if r > 0.0 else [np.array([0.0])]


def _builtin_parabola(domain: NormSpec, codomain: NormSpec) -> SmoothMapping:
    if domain.dimension != 1 or codomain.dimension != 1:
        raise ValueError("parabola builtin is one-dimensional")
    return SmoothMapping((lambda x: x * x,), domain, codomain, (_parabola_inverse,), "parabola")


#: smooth builtins by name, each built from its (domain, codomain)
BUILTIN_SMOOTH = {
    "identity": lambda domain, codomain: SmoothMapping(
        (lambda x: x,), domain, codomain, (lambda y: [y],), "identity"),
    "abs-branches": lambda domain, codomain: SmoothMapping(
        (lambda x: x, lambda x: -x), domain, codomain, (lambda y: [y], lambda y: [-y]),
        "abs-branches"),
    "parabola": _builtin_parabola,
}


def load_mapping(doc: dict, domain: NormSpec, codomain: NormSpec) -> MappingModel:
    """Build a MappingModel from its JSON document."""
    if not isinstance(doc, dict):
        raise ValueError(f"a mapping must be an object, got {type(doc).__name__}")
    kind = doc.get("kind")
    if kind == "linear":
        A = np.asarray(doc["matrix"], dtype=float)
        if A.ndim != 2 or not np.isfinite(A).all():
            raise ValueError("matrix must be a list of rows of finite numbers")
        return LinearMapping(A, domain, codomain)
    if kind == "smooth-builtin":
        name = doc.get("builtin")
        if name not in BUILTIN_SMOOTH:
            raise ValueError(f"unknown builtin mapping {name!r}")
        return BUILTIN_SMOOTH[name](domain, codomain)
    if kind == "graph":
        pts = [GraphPoint(p["x"], p["y"]) for p in doc["points"]]
        base = GraphPoint(doc["base"]["x"], doc["base"]["y"])
        radius = float(doc["radius"])
        graph = SampledGraph(base, tuple(pts), radius, ProductNormSpec(domain, codomain))
        return FiniteGraphMapping(graph)
    if kind == "perturbed":
        base_map = load_mapping(doc["base"], domain, codomain)
        base_pt = GraphPoint(doc["base_point"]["x"], doc["base_point"]["y"])
        f = load_perturbation_function(doc["f"], domain, codomain)
        return add_perturbation(base_map, f, float(doc.get("scale", 1.0)), base_pt)
    raise ValueError(f"unknown mapping kind {kind!r}")


def load_perturbation_function(doc: dict, domain: NormSpec, codomain: NormSpec):
    """Perturbation function specs used by configs: zero, linear, or sine."""
    if not isinstance(doc, dict):
        raise ValueError(f"a perturbation must be an object, got {type(doc).__name__}")
    kind = doc.get("kind")
    if kind == "zero":
        m = codomain.dimension
        return lambda x: np.zeros(m)
    if kind == "linear":
        C = np.atleast_2d(np.asarray(doc["matrix"], dtype=float))
        if C.shape != (codomain.dimension, domain.dimension):
            raise DimensionMismatchError("perturbation matrix shape mismatch")
        return lambda x: C @ as_vector(x)
    if kind == "sine":
        a = float(doc["amplitude"])
        w = float(doc["frequency"])
        if domain.dimension != codomain.dimension:
            raise DimensionMismatchError("sine perturbation needs equal dimensions")
        return lambda x: a * np.sin(w * as_vector(x))
    raise ValueError(f"unknown perturbation kind {kind!r}")
