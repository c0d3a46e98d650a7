"""Set-valued mapping models F: R^n =: R^m with image and inverse-distance oracles.

Four variants are supported: Linear (single-valued A x), Smooth (a finite
union of continuous branches), FiniteGraph (a stored point sample of the
graph) and Perturbed (base + scale * f for a single-valued f).  Each variant
supplies images(), distance_to_image() and inverse_distance(), and their
row-batched forms distances_to_image() and inverse_distances(); graphs are
sampled deterministically on nested shells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import Callable, Sequence

import numpy as np

from ._minnorm import min_dual_norm_point
from .spaces import (
    DimensionMismatchError,
    NormSpec,
    ProductNormSpec,
    as_vector,
    generator,
    norm,
    norms,
    pair_norm_primal,
)

#: residual below which a point counts as lying on a graph
ON_GRAPH_TOL = 1e-10


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
    """Base interface shared by every mapping variant."""

    #: whether inverse_distance certifies emptiness exactly (+inf is trustworthy)
    exact_inverse = True

    def __init__(self, domain: NormSpec, codomain: NormSpec):
        self.domain = domain
        self.codomain = codomain

    @property
    def product_spec(self) -> ProductNormSpec:
        return ProductNormSpec(self.domain, self.codomain)

    def images(self, x) -> list[np.ndarray]:
        raise NotImplementedError

    def distance_to_image(self, x, y) -> float:
        """d(y, F(x)); +inf when F(x) is empty."""
        y = as_vector(y)
        best = math.inf
        for w in self.images(x):
            d = norm(y - w, self.codomain)
            if d < best:
                best = d
        return best

    def inverse_distance(self, x, y) -> float:
        """d(x, F^{-1}(y)); +inf when the preimage is empty."""
        raise NotImplementedError

    def inverse_points(self, y) -> list[np.ndarray]:
        """Finite set of preimage candidates of y (exact where available)."""
        raise InverseOracleUnavailableError(type(self).__name__)

    def distances_to_image(self, x, y) -> np.ndarray:
        """distance_to_image of each row pair (x[i], y[i])."""
        return np.array([self.distance_to_image(xi, yi) for xi, yi in zip(x, y)], dtype=float)

    def inverse_distances(self, x, y, roots=None) -> np.ndarray:
        """inverse_distance of each row pair (x[i], y[i]).  roots[i] is a
        root-finding start for pair i, used only where the inverse distance is
        not exact."""
        return np.array([self.inverse_distance(xi, yi) for xi, yi in zip(x, y)], dtype=float)

    def _nearest_preimages(self, targets, near) -> tuple[np.ndarray, np.ndarray]:
        """For each row, the inverse_points candidate of targets[i] nearest to
        near[i] (the first on ties, as `min` picks it), and the mask of the rows
        that have one."""
        out = np.array(near, dtype=float)
        found = np.zeros(len(out), dtype=bool)
        for i, (t, u) in enumerate(zip(targets, near)):
            cands = self.inverse_points(t)
            if cands:
                out[i] = min(cands, key=lambda c: norm(c - u, self.domain))
                found[i] = True
        return out, found


def _off_range(residual, target):
    """Whether pinv @ y fails to solve A u = y: the residual norm exceeds
    1e-9 (1 + ||y||).  Works on norms and on arrays of row norms alike."""
    return residual > 1e-9 * (1.0 + target)


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
        # orthonormal basis of ker A, empty for injective A
        _, s, vt = np.linalg.svd(A)
        rank = int(np.sum(s > s[0] * 1e-13)) if s.size and s[0] > 0 else 0
        self._null = vt[rank:].T

    def images(self, x) -> list[np.ndarray]:
        return [self.matrix @ as_vector(x)]

    def distance_to_image(self, x, y) -> float:
        return norm(as_vector(y) - self.matrix @ as_vector(x), self.codomain)

    def _particular_solution(self, y) -> np.ndarray | None:
        y = as_vector(y)
        u0 = self._pinv @ y
        if _off_range(norm(self.matrix @ u0 - y, self.codomain), norm(y, self.codomain)):
            return None
        return u0

    def _nearest_preimages(self, targets, near) -> tuple[np.ndarray, np.ndarray]:
        # _particular_solution of every row.  Stacked matrix-vector products
        # give each row the bits of M @ t; T @ M.T does not.  One row stays on
        # the scalar path, which costs a third of this one
        T = np.asarray(targets, dtype=float)
        U = np.matmul(self._pinv[None], T[:, :, None])[:, :, 0]
        R = np.matmul(self.matrix[None], U[:, :, None])[:, :, 0] - T
        cod = self.codomain
        return U, ~_off_range(norms(R, cod), norms(T, cod))

    def inverse_distance(self, x, y) -> float:
        x = as_vector(x)
        u0 = self._particular_solution(y)
        if u0 is None:
            return math.inf
        if self._null.shape[1] == 0:
            return norm(x - u0, self.domain)
        w = x - u0
        if self.domain.p == 2.0:
            return float(np.linalg.norm(w - self._null @ (self._null.T @ w)))
        # min ||v||_p over A v = A x - y, as two-sided inequalities
        r = self.matrix @ x - as_vector(y)
        return min_dual_norm_point(np.vstack([self.matrix, -self.matrix]),
                                   np.concatenate([r, -r]), self.domain.p).value

    def inverse_points(self, y) -> list[np.ndarray]:
        u0 = self._particular_solution(y)
        return [] if u0 is None else [u0]


class SmoothMapping(MappingModel):
    """Finite union of continuous single-valued branches.

    Closedness of the graph near the base point is an unchecked assumption on
    user-supplied branches; branch inverses, when given, must return the full
    finite preimage set of their branch.
    """

    exact_inverse = True

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

    def images(self, x) -> list[np.ndarray]:
        x = as_vector(x)
        return [as_vector(b(x)) for b in self.branches]

    def _preimages(self, y) -> list[np.ndarray]:
        y = as_vector(y)
        out: list[np.ndarray] = []
        scale = 1.0 + norm(y, self.codomain)
        for b, inv in zip(self.branches, self.branch_inverses):
            if inv is None:
                raise InverseOracleUnavailableError(
                    f"branch of {self.name!r} has no inverse; supply one or pre-sample a graph"
                )
            for u in inv(y):
                u = as_vector(u)
                if norm(as_vector(b(u)) - y, self.codomain) <= 1e-9 * scale:
                    out.append(u)
        return out

    def inverse_distance(self, x, y) -> float:
        x = as_vector(x)
        cands = self._preimages(y)
        if not cands:
            return math.inf
        return min(norm(x - u, self.domain) for u in cands)

    def inverse_points(self, y) -> list[np.ndarray]:
        return self._preimages(y)


class FiniteGraphMapping(MappingModel):
    """Mapping given by a stored graph sample; slices use a small membership band."""

    def __init__(self, graph: SampledGraph):
        super().__init__(graph.spaces.left, graph.spaces.right)
        self.graph = graph
        self.tol = 1e-9 * (1.0 + graph.radius)

    def _slice(self, y) -> np.ndarray:
        """Mask of the stored points whose value lies within the band around y."""
        return norms(self.graph.ys - as_vector(y), self.codomain) <= self.tol

    def images(self, x) -> list[np.ndarray]:
        g = self.graph
        return list(g.ys[norms(g.xs - as_vector(x), self.domain) <= self.tol])

    def inverse_distance(self, x, y) -> float:
        xs = self.graph.xs[self._slice(y)]
        return float(norms(xs - as_vector(x), self.domain).min()) if len(xs) else math.inf

    def inverse_points(self, y) -> list[np.ndarray]:
        return list(self.graph.xs[self._slice(y)])


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

    def images(self, x) -> list[np.ndarray]:
        x = as_vector(x)
        shift = self.scale * as_vector(self.f(x))
        return [w + shift for w in self.base.images(x)]

    def distance_to_image(self, x, y) -> float:
        """distances_to_image of one pair."""
        return float(self.distances_to_image(as_vector(x)[None], as_vector(y)[None])[0])

    def _f_rows(self, X: np.ndarray) -> np.ndarray:
        rows = getattr(self.f, "rows", None)
        if rows is not None:
            return rows(X)
        return np.array([as_vector(self.f(x)) for x in X]).reshape(len(X), self.codomain.dimension)

    def distances_to_image(self, x, y) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        shifted = np.asarray(y, dtype=float) - self.scale * self._f_rows(x)
        return self.base.distances_to_image(x, shifted)

    def _iterate(self, y: np.ndarray, u: np.ndarray, damping: float,
                 max_iter: int) -> tuple[np.ndarray, np.ndarray]:
        """The fixed-point iteration u <- u + damping * (v - u), v the base
        preimage of y - scale * f(u) nearest to u, run on every row at once.
        A row stops when it has no base preimage or its step falls below
        1e-15 (1 + ||u||).  Returns the final points and the mask of those
        whose residual verifies."""
        u = u.copy()
        live = np.arange(len(u))
        for _ in range(max_iter):
            if not live.size:
                break
            target = y[live] - self.scale * self._f_rows(u[live])
            nxt, found = self.base._nearest_preimages(target, u[live])
            live = live[found]
            step = damping * (nxt[found] - u[live])
            u[live] = u[live] + step
            live = live[~(norms(step, self.domain) <= 1e-15 * (1.0 + norms(u[live], self.domain)))]
        tol = 1e-10 * (1.0 + norms(y, self.codomain))
        return u, self.distances_to_image(u, y) <= tol

    def _roots(self, y: np.ndarray, roots: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
        """Verified multistart roots of y[i] in F(u) + scale * f(u), for every row
        i at once.  The starts of row i are roots[i] (when given), then the base
        preimages of y[i].  Damping 1 runs first; a row with no verified root
        retries every start with damping 0.5.  Returns the roots in start
        order, less those within 1e-12 (1 + ||r||) of an earlier root of their
        row, and the row index of each."""
        starts, owner = [], []
        for i, yi in enumerate(y):
            row = [] if roots is None else [roots[i]]
            try:
                row.extend(self.base.inverse_points(yi))
            except InverseOracleUnavailableError:
                pass
            starts.extend(row)
            owner.extend([i] * len(row))
        owner = np.array(owner, dtype=int)
        u0 = np.array(starts, dtype=float).reshape(len(owner), self.domain.dimension)
        u, ok = self._iterate(y[owner], u0, 1.0, 48)
        retry = (np.bincount(owner[ok], minlength=len(y)) == 0)[owner]
        if retry.any():
            u[retry], ok[retry] = self._iterate(y[owner[retry]], u0[retry], 0.5, 120)
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
        return u[ok], owner[ok]

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
        found, owner = self._roots(y, roots)
        np.minimum.at(best, owner, norms(found - x[owner], self.domain))
        return best

    def inverse_distance(self, x, y, root=None) -> float:
        """inverse_distances of one pair."""
        root = None if root is None else as_vector(root)[None]
        return float(self.inverse_distances(as_vector(x)[None], as_vector(y)[None], root)[0])

    def inverse_points(self, y) -> list[np.ndarray]:
        return list(self._roots(as_vector(y)[None], None)[0])


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
    that keeps the pair within the pair-norm ball.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if F.distance_to_image(center.x, center.y) > ON_GRAPH_TOL:
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
    offsets: list[np.ndarray] = []
    for j in range(n_shells):
        r = radius * (2.0 ** -j)
        for i in range(n):
            e = np.zeros(n)
            e[i] = r
            offsets.append(e.copy())
            offsets.append(-e)
        # random radii inside the shell band keep one-dimensional domains
        # from collapsing onto the dyadic radii alone
        vs = rng.standard_normal((per_shell, n))
        radii = r * (0.5 + 0.5 * rng.random(per_shell))
        for v, nv, rv in zip(vs, norms(vs, F.domain), radii):
            if nv < 1e-12:
                continue
            step = v / nv * rv
            offsets.append(step)
            offsets.append(-step)

    points: list[GraphPoint] = [center]
    seen = {(center.x.tobytes(), center.y.tobytes())}

    def keep(x: np.ndarray) -> None:
        for w in F.images(x):
            if pair_norm_primal(x - center.x, w - center.y, spec) > radius:
                continue
            key = (x.tobytes(), w.tobytes())
            if key in seen:
                continue
            seen.add(key)
            points.append(GraphPoint(x, w))

    for off in offsets:
        keep(center.x + off)
    # top up to the requested budget (the pair-ball filter can drop whole
    # outer bands when the mapping stretches the range side)
    for _ in range(4 * budget):
        if len(points) > budget:
            break
        v = rng.standard_normal(n)
        nv = norm(v, F.domain)
        if nv < 1e-12:
            continue
        rv = radius * 2.0 ** (-float(rng.uniform(0.0, n_shells)))
        keep(center.x + v / nv * rv)
    return SampledGraph(center, tuple(points), radius, spec)


# ---------------------------------------------------------------------------
# JSON loading of mapping specifications
# ---------------------------------------------------------------------------

def _builtin_identity(domain: NormSpec, codomain: NormSpec) -> SmoothMapping:
    return SmoothMapping(
        branches=(lambda x: x,),
        domain=domain,
        codomain=codomain,
        branch_inverses=(lambda y: [y],),
        name="identity",
    )


def _builtin_abs_branches(domain: NormSpec, codomain: NormSpec) -> SmoothMapping:
    return SmoothMapping(
        branches=(lambda x: x, lambda x: -x),
        domain=domain,
        codomain=codomain,
        branch_inverses=(lambda y: [y], lambda y: [-y]),
        name="abs-branches",
    )


def _parabola_inverse(y: np.ndarray) -> list[np.ndarray]:
    v = float(y[0])
    if v < 0.0:
        return []
    r = math.sqrt(v)
    return [np.array([r]), np.array([-r])] if r > 0.0 else [np.array([0.0])]


def _builtin_parabola(domain: NormSpec, codomain: NormSpec) -> SmoothMapping:
    if domain.dimension != 1 or codomain.dimension != 1:
        raise ValueError("parabola builtin is one-dimensional")
    return SmoothMapping(
        branches=(lambda x: x * x,),
        domain=domain,
        codomain=codomain,
        branch_inverses=(_parabola_inverse,),
        name="parabola",
    )


BUILTIN_SMOOTH = {
    "identity": _builtin_identity,
    "abs-branches": _builtin_abs_branches,
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
