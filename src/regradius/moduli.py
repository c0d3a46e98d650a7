"""Estimators for the regularity modulus, the coderivative constant and
Lipschitz moduli, driven by a shrinking scale schedule.

Each estimator reports a per-scale trail plus a stabilization flag instead of
extrapolating: the value is always the finest-scale infimum (or supremum for
Lipschitz moduli), and acceptance keys off stabilized runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from . import oracles
from ._minnorm import PolyhedronProjector
from .mappings import GraphPoint, MappingModel, SampledGraph, sample_graph
from .oracles import MEMBERSHIP_SLACK
from .spaces import (
    NormSpec,
    as_vector,
    ball_sample,
    dual_norm,
    generator,
    norm,
    norms,
    sphere_grid,
)

#: relative gap between the last two scales below which a trail counts as stabilized
STABILIZATION_REL = 0.05

_POS_TOL = 1e-14


@dataclass(frozen=True)
class ScaleSchedule:
    """Shrinking neighborhood radii with coupled coderivative epsilons."""

    radii: tuple[float, ...]
    epsilons: tuple[float, ...]
    samples_per_scale: int = 160
    seed: int = 0
    directions: int = 24
    eval_points: int = 10
    refine_rounds: int = 9
    refine_samples: int = 32

    def __post_init__(self):
        radii = tuple(float(r) for r in self.radii)
        eps = tuple(float(e) for e in self.epsilons)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "epsilons", eps)
        if len(radii) < 3:
            raise ValueError("a schedule needs at least three scales")
        if any(r <= 0 for r in radii) or any(b >= a for a, b in zip(radii, radii[1:])):
            raise ValueError("radii must be positive and strictly decreasing")
        if len(eps) != len(radii):
            raise ValueError("one epsilon per radius required")
        if any(e < 0 for e in eps) or any(b > a for a, b in zip(eps, eps[1:])):
            raise ValueError("epsilons must be nonnegative and nonincreasing")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        lows = {"samples_per_scale": 1, "directions": 1, "eval_points": 1,
                "refine_samples": 1, "refine_rounds": 0}
        for name, low in lows.items():
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}")

    @classmethod
    def geometric(cls, levels: int = 9, first: float = 0.45, ratio: float = 0.4, **kw) -> "ScaleSchedule":
        if not first * ratio ** (levels - 1) > 0.0:  # before a huge `levels` builds its tuple
            raise ValueError("radii must be positive and strictly decreasing")
        radii = tuple(first * ratio**j for j in range(levels))
        return cls(radii=radii, epsilons=radii, **kw)

    @property
    def levels(self) -> int:
        return len(self.radii)


@dataclass(frozen=True)
class ScaleWitness:
    """Argmin data of one scale of the coderivative estimate."""

    point: GraphPoint
    y_star: np.ndarray
    x_star: np.ndarray
    eps: float
    delta: float
    value: float

    def to_json(self) -> dict:
        return {
            "x": self.point.x.tolist(),
            "y": self.point.y.tolist(),
            "y_star": self.y_star.tolist(),
            "x_star": self.x_star.tolist(),
            "eps": self.eps,
            "delta": self.delta,
            "value": self.value,
        }


def _json_value(v: float):
    return "inf" if math.isinf(v) else v


@dataclass(frozen=True)
class ModulusEstimate:
    """A per-scale trail of infima (suprema for lip) with diagnostics."""

    value: float
    per_scale: tuple[tuple[float, float], ...]
    stabilized: bool
    kind: str = "rg"
    witnesses: tuple[ScaleWitness, ...] = ()
    low_confidence: bool = False

    def __post_init__(self):
        if self.kind not in ("rg", "rg_plus", "lip"):
            raise ValueError(f"unknown estimate kind {self.kind!r}")
        if not self.per_scale:
            raise ValueError("per-scale trail must be nonempty")
        last = self.per_scale[-1][1]
        if not (math.isinf(self.value) and math.isinf(last)) and self.value != last:
            raise ValueError("value must equal the last-scale entry")
        if self.kind == "rg":
            vals = [v for _, v in self.per_scale]
            for a, b in zip(vals, vals[1:]):
                if not math.isinf(a) and b < a - 1e-12 * max(1.0, abs(a)):
                    raise ValueError("per-scale infima must not decrease as the radius shrinks")

    def to_json(self) -> dict:
        witness = self.witnesses[-1].to_json() if self.witnesses else None
        return {
            "value": _json_value(self.value),
            "per_scale": [[d, _json_value(v)] for d, v in self.per_scale],
            "stabilized": self.stabilized,
            "low_confidence": self.low_confidence,
            "witness": witness,
        }

    @classmethod
    def from_json(cls, doc: dict, kind: str = "rg") -> "ModulusEstimate":
        def _num(v):
            return math.inf if v == "inf" else float(v)

        per_scale = tuple((float(d), _num(v)) for d, v in doc["per_scale"])
        return cls(_num(doc["value"]), per_scale, bool(doc["stabilized"]), kind=kind,
                   low_confidence=bool(doc.get("low_confidence", False)))


def _stabilized(values: list[float]) -> bool:
    if len(values) < 2:
        return False
    a, b = values[-2], values[-1]
    if math.isinf(a) or math.isinf(b):
        return math.isinf(a) and math.isinf(b)
    return abs(a - b) <= STABILIZATION_REL * max(abs(a), abs(b), 1e-30)


# ---------------------------------------------------------------------------
# epsilon-normals and coderivative elements
# ---------------------------------------------------------------------------

def eps_normal_test(sample: SampledGraph, at: GraphPoint, w_pair, eps: float,
                    test_radius: float) -> bool:
    """Discretized normal-cone test: pairing growth stays below (eps - slack) * r."""
    if test_radius <= 0:
        raise ValueError("test_radius must be positive")
    sample.index_of(at)  # raises when `at` is not in the sample
    wx, wy = as_vector(w_pair[0]), as_vector(w_pair[1])
    dists = sample.pair_distances_to(at)
    # points equal to `at` sit at distance 0 and drop out with it
    near = (dists > 0.0) & (dists <= test_radius)
    growth = (sample.xs[near] - at.x) @ wx + (sample.ys[near] - at.y) @ wy
    return not (growth > (eps - MEMBERSHIP_SLACK) * dists[near]).any()


def coderivative_membership(sample: SampledGraph, at: GraphPoint, y_star, x_star,
                            eps: float, test_radius: float | None = None) -> bool:
    """x* belongs to the eps-coderivative at `at` in direction y* (unit dual)."""
    y_star = as_vector(y_star)
    if abs(dual_norm(y_star, sample.spaces.right) - 1.0) > 1e-9:
        raise ValueError("y* must be a unit dual vector")
    radius = sample.radius if test_radius is None else test_radius
    return eps_normal_test(sample, at, (as_vector(x_star), -y_star), eps, radius)


@dataclass(frozen=True)
class CoderivativeElement:
    at: GraphPoint
    y_star: np.ndarray
    x_star: np.ndarray
    eps: float


@dataclass(frozen=True)
class MinNormCoderivative:
    value: float
    element: CoderivativeElement | None
    low_confidence: bool = False

    @property
    def feasible(self) -> bool:
        return self.element is not None


def _angles_to_unit(angles: np.ndarray, dim: int) -> np.ndarray:
    v = np.ones(dim)
    for i, a in enumerate(angles):
        v[i] *= math.cos(a)
        v[i + 1:] *= math.sin(a)
    return v


def _unit_to_angles(v: np.ndarray) -> np.ndarray:
    v = v / (np.linalg.norm(v) or 1.0)
    angles = []
    rest = v.copy()
    for i in range(v.size - 1):
        r = float(np.linalg.norm(rest[i:]))
        if r == 0.0:
            angles.append(0.0)
            continue
        a = math.acos(max(-1.0, min(1.0, rest[i] / r)))
        if i == v.size - 2 and rest[-1] < 0:
            a = 2.0 * math.pi - a
        angles.append(a)
    return np.array(angles)


def _golden_min(fun, lo: float, hi: float, iters: int = 16) -> float:
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fun(d)
    return c if fc <= fd else d


#: cap on constraint rows per minimization (radially stratified subselection)
_CONSTRAINT_CAP = 96


def _neighbor_system(sample: SampledGraph, at: GraphPoint, test_radius: float):
    """Constraint data (G, V, r) from neighbors of `at` within test_radius."""
    sample.index_of(at)  # raises when `at` is not in the sample
    dists = sample.pair_distances_to(at)
    keep = np.flatnonzero((dists > 0.0) & (dists <= test_radius))
    if len(keep) > _CONSTRAINT_CAP:
        keep = keep[np.argsort(dists[keep], kind="stable")]
        keep = keep[(np.arange(_CONSTRAINT_CAP) * (len(keep) / _CONSTRAINT_CAP)).astype(int)]
    if not len(keep):
        return None
    G = sample.xs[keep] - at.x
    V = sample.ys[keep] - at.y
    r = dists[keep]
    return G, V, r


def min_coderivative_norm(sample: SampledGraph, at: GraphPoint, eps: float,
                          directions, test_radius: float,
                          refine: bool = True) -> MinNormCoderivative:
    """Minimal ||x*|| over unit dual directions subject to the sampled
    normal-cone constraints at `at`.

    Per direction, x* must satisfy <x*, u - x> <= eps * r + <y*, v - y> over
    every neighbor (u, v) within test_radius; the minimum and its witness are
    returned, with infeasibility reported per direction.
    """
    directions = [as_vector(d) for d in directions]
    if not directions:
        raise ValueError("at least one direction required")
    domain = sample.spaces.left
    system = _neighbor_system(sample, at, test_radius)
    if system is None:
        elem = CoderivativeElement(at, directions[0], np.zeros(domain.dimension), eps)
        return MinNormCoderivative(0.0, elem, low_confidence=True)
    G, V, r = system
    margin = max(2.0 * MEMBERSHIP_SLACK, 1e-6 * eps)
    proj = PolyhedronProjector(G, domain.q)

    def solve(y_star: np.ndarray):
        return proj.solve_one((eps - margin) * r + V @ y_star)

    X, feasible, values = proj.solve_batch((eps - margin) * r[:, None]
                                           + V @ np.column_stack(directions))
    k = int(np.argmin(values))
    best_val, best_dir, best_x = math.inf, None, None
    if feasible[k]:
        best_val, best_dir, best_x = float(values[k]), directions[k], X[:, k]

    m = sample.spaces.right.dimension
    if refine and best_dir is not None and m >= 2:
        angles = _unit_to_angles(best_dir)
        width = math.pi / max(4, len(directions) // (2 * m))
        codomain = sample.spaces.right

        def eval_angle(k: int, a: float) -> tuple[float, np.ndarray, np.ndarray]:
            trial = angles.copy()
            trial[k] = a
            y = _angles_to_unit(trial, m)
            y = y / (dual_norm(y, codomain) or 1.0)
            s = solve(y)
            return s.value, y, s.x

        for sweep in range(2):
            before = best_val
            for k in range(angles.size):
                a_best = _golden_min(lambda a: eval_angle(k, a)[0],
                                     angles[k] - width, angles[k] + width, iters=10)
                val, y, x = eval_angle(k, a_best)
                if val <= best_val:
                    angles[k] = a_best
                    best_val, best_dir, best_x = val, y, x
            width *= 0.35
            if sweep == 0 and best_val > before - 3e-3 * max(before, 1e-30):
                break

    if best_dir is None:
        return MinNormCoderivative(math.inf, None)
    elem = CoderivativeElement(at, best_dir, best_x, eps)
    if not coderivative_membership(sample, at, best_dir, best_x, eps, test_radius):
        # solver margin should prevent this; flag rather than trust the value
        return MinNormCoderivative(best_val, elem, low_confidence=True)
    return MinNormCoderivative(best_val, elem, low_confidence=False)


# ---------------------------------------------------------------------------
# coderivative constant (liminf of minimal coderivative norms)
# ---------------------------------------------------------------------------

def _witness_solve(sample: SampledGraph, pt: GraphPoint, eps_scale: float,
                   dirs, test_radius: float) -> tuple[MinNormCoderivative, float]:
    """Re-solve at a witness point over a ladder of epsilons, smallest first.

    The scale epsilon realizes the sup-inf trail, but harvested witnesses
    should carry slopes near the limiting value, which the smallest feasible
    epsilon delivers; the ladder falls back to the scale epsilon on graphs
    whose curvature makes tiny epsilons infeasible at this radius.
    """
    for rung in (eps_scale * 4.0**-4, eps_scale * 4.0**-2, eps_scale):
        res = min_coderivative_norm(sample, pt, rung, dirs, test_radius, refine=False)
        if res.feasible and not res.low_confidence:
            res = min_coderivative_norm(sample, pt, rung, dirs, test_radius)
            if res.feasible:
                return res, rung
    res = min_coderivative_norm(sample, pt, eps_scale, dirs, test_radius)
    return res, eps_scale


def _local_system_sample(F: MappingModel, pt: GraphPoint, radius: float,
                         global_sample: SampledGraph, budget: int, seed: int) -> SampledGraph:
    """Constraint sample centered at an evaluation point.

    Shells centered at the point guarantee two-sided neighbor coverage in
    every direction (the base-centered sample alone can leave a radial gap
    around off-base points); nearby global points are merged in.
    """
    local = sample_graph(F, pt, radius, budget, seed=seed)
    seen = {(p.x.tobytes(), p.y.tobytes()) for p in local.points}
    nearby = compress(global_sample.points, global_sample.pair_distances_to(pt) <= radius)
    merged = local.points + tuple(p for p in nearby if (p.x.tobytes(), p.y.tobytes()) not in seen)
    return SampledGraph(pt, merged, radius, global_sample.spaces)


def rg_plus_estimate(F: MappingModel, base: GraphPoint, schedule: ScaleSchedule) -> ModulusEstimate:
    """Per scale: sample the graph, evaluate the minimal coderivative norm at
    spread-out graph points near the base, and take the infimum; the estimate
    is the finest-scale infimum with the witnessing element recorded per scale.

    Witness elements are re-solved at the smallest feasible epsilon so their
    slope norms track the limiting value at every scale, and witness points
    prefer the middle distance band so downstream constructions get centers
    away from the base point."""
    m = F.codomain.dimension
    dirs = sphere_grid(F.codomain, max(2 * m, schedule.directions), seed=schedule.seed)
    per_scale: list[tuple[float, float]] = []
    raw_witnesses: list[tuple[GraphPoint, CoderivativeElement, float, float, float]] = []
    low_conf = False
    for j, (delta, eps) in enumerate(zip(schedule.radii, schedule.epsilons)):
        sample = sample_graph(F, base, delta, schedule.samples_per_scale,
                              seed=schedule.seed + 101 * j)
        dists = sample.pair_distances_to(base)
        order = np.argsort(dists)
        inside = [int(i) for i in order if dists[i] <= 0.5 * delta]
        if len(inside) > schedule.eval_points:
            picks = np.unique(np.round(np.linspace(0, len(inside) - 1, schedule.eval_points)).astype(int))
            inside = [inside[i] for i in picks]
        results = []
        for i in inside:
            pt = sample.points[i]
            # the normal-cone quotient is a limit over shrinking neighborhoods:
            # when the full-radius system is infeasible (a second graph branch
            # inside the window), retry at smaller radii before giving up
            res, local = None, None
            for halving in range(4):
                test_r = 0.5 * delta * 2.0 ** -halving
                local = _local_system_sample(F, pt, test_r, sample,
                                             schedule.samples_per_scale // 2,
                                             seed=schedule.seed + 101 * j + 7 * i + halving)
                res = min_coderivative_norm(local, pt, eps, dirs, test_radius=test_r)
                if res.feasible:
                    break
            low_conf = low_conf or res.low_confidence
            if res.feasible:
                results.append((res.value, pt, local, test_r))
        if not results:
            per_scale.append((delta, math.inf))
            continue
        inf_val = min(v for v, _, _, _ in results)
        per_scale.append((delta, inf_val))

        # witness point: among near-minimal values prefer the candidate whose
        # distance from the base is closest to a quarter of the scale radius,
        # so harvested center distances track the schedule ratio
        domain = F.domain
        near = [t for t in results if t[0] <= inf_val * 1.05 + 1e-12]
        offbase = [t for t in near if norm(t[1].x - base.x, domain) > 0.0]
        pool = offbase if offbase else near
        _, w_pt, w_sys, w_radius = min(
            pool, key=lambda t: abs(norm(t[1].x - base.x, domain) - delta / 4.0))
        res, eps_w = _witness_solve(w_sys, w_pt, eps, dirs, w_radius)
        if res.feasible:
            raw_witnesses.append((w_pt, res.element, eps_w, delta, res.value))

    # enforce strictly decreasing witness epsilons (raising earlier ones only,
    # which keeps every membership certificate valid)
    witnesses: list[ScaleWitness] = []
    next_eps = None
    fixed: list[float] = []
    for (_, _, eps_w, _, _) in reversed(raw_witnesses):
        if next_eps is not None and eps_w <= next_eps:
            eps_w = next_eps / 0.9
        fixed.append(eps_w)
        next_eps = eps_w
    fixed.reverse()
    for (pt, elem, _, delta, val), eps_w in zip(raw_witnesses, fixed):
        witnesses.append(ScaleWitness(pt, elem.y_star, elem.x_star, eps_w, delta, val))

    values = [v for _, v in per_scale]
    return ModulusEstimate(values[-1], tuple(per_scale), _stabilized(values),
                           kind="rg_plus", witnesses=tuple(witnesses),
                           low_confidence=low_conf)


# ---------------------------------------------------------------------------
# regularity modulus (infimum of distance ratios)
# ---------------------------------------------------------------------------

@dataclass
class _PairEntry:
    x: np.ndarray
    y: np.ndarray
    ratio: float
    dx: float
    dy: float
    ax: np.ndarray  # refinement anchor in the domain (midpoint for straddles)
    ay: np.ndarray


def _pair_ratio(F: MappingModel, x: np.ndarray, y: np.ndarray, anchors=()) -> float | None:
    """Ratio d(y, F(x)) / d(x, F^{-1}(y)); None when the pair carries no information.

    Anchors are root-finding starts, passed on only to mappings whose inverse
    distance is not exact."""
    den = F.inverse_distance(x, y, anchors=anchors) if anchors else F.inverse_distance(x, y)
    if den <= _POS_TOL:
        return None
    num = F.distance_to_image(x, y)
    if math.isinf(num):
        return None
    if math.isinf(den):
        if F.exact_inverse and num > 1e-12:
            return 0.0  # certified empty preimage: regularity fails outright
        return None
    return num / den


class _RatioPool:
    """Cumulative pool of evaluated pairs; per-scale infima are monotone by nesting."""

    def __init__(self, F: MappingModel, base: GraphPoint):
        self.F = F
        self.base = base
        self.anchored = not F.exact_inverse
        self.entries: list[_PairEntry] = []

    def add(self, x, y, anchors=(), ax=None, ay=None) -> _PairEntry | None:
        x, y = as_vector(x), as_vector(y)
        ratio = _pair_ratio(self.F, x, y, anchors if self.anchored else ())
        if ratio is None:
            return None
        e = _PairEntry(x, y, ratio,
                       norm(x - self.base.x, self.F.domain),
                       norm(y - self.base.y, self.F.codomain),
                       x if ax is None else as_vector(ax),
                       y if ay is None else as_vector(ay))
        self.entries.append(e)
        return e

    def minimum(self, delta: float) -> _PairEntry | None:
        gate = delta * (1.0 + 1e-12)
        best = None
        for e in self.entries:
            if e.dx <= gate and e.dy <= gate and (best is None or e.ratio < best.ratio):
                best = e
        return best


def _branch_following_jacobian(F: MappingModel, x: np.ndarray, h: float) -> np.ndarray | None:
    """Finite-difference Jacobian following the image branch nearest to F(x)."""
    refs = F.images(x)
    if not refs:
        return None
    ref = refs[0]
    n = x.size
    J = np.zeros((ref.size, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        cols = []
        for z in (x + e, x - e):
            ws = F.images(z)
            if not ws:
                return None
            cols.append(min(ws, key=lambda w: float(np.linalg.norm(w - ref))))
        J[:, i] = (cols[0] - cols[1]) / (2.0 * h)
    return J


def _ring_grid(domain: NormSpec, delta: float, rng) -> np.ndarray:
    """Deterministic ring sweep of the ball (one offset per row); ring ratio
    and angular density are chosen so any substructure region of radius
    >= 1/8 of its center distance intersects at least one ring point."""
    n = domain.dimension
    radii = [delta * 0.06 * 1.32**i for i in range(11) if delta * 0.06 * 1.32**i <= 0.9 * delta]
    if n == 1:
        dirs = np.array([[1.0], [-1.0]])
    elif n == 2:
        angles = np.linspace(0.0, 2.0 * np.pi, 28, endpoint=False)
        dirs = np.array([[np.cos(a), np.sin(a)] for a in angles])
    else:
        raw = rng.standard_normal((24 * n, n))
        lengths = norms(raw, domain)
        keep = lengths > 1e-12
        dirs = raw[keep] / lengths[keep, None]
    lengths = norms(dirs, domain)
    return np.vstack([(r / lengths)[:, None] * dirs for r in radii])


def _graph_pairs(points, base, rng, cap):
    """Index pairs for ratio probes: nearest-neighbor chain plus random picks."""
    if len(points) < 2:
        return []
    order = sorted(range(len(points)),
                   key=lambda i: float(np.linalg.norm(points[i].x - base.x)))
    pairs = [(order[k], order[k + 1]) for k in range(len(order) - 1)]
    extra = min(cap, 3 * len(order))
    for _ in range(extra):
        i, j = rng.integers(0, len(order), size=2)
        if i != j:
            pairs.append((order[int(i)], order[int(j)]))
    return pairs


def rg_estimate(F: MappingModel, base: GraphPoint, schedule: ScaleSchedule,
                pair_log: list | None = None) -> ModulusEstimate:
    """Infimum of d(y, F(x)) / d(x, F^{-1}(y)) over sampled pairs in shrinking
    balls, with adaptive refinement around the running argmin.

    Pairs come from three families: uniform ball draws, graph-anchored pairs
    (x from one graph point, y the image of another), and short probes off
    sampled images.  The pool is cumulative, so per-scale infima are monotone
    by nesting.  The +inf sentinel is reported when no sampled pair has a
    positive inverse distance.
    """
    from .mappings import FiniteGraphMapping

    pool = _RatioPool(F, base)
    domain, codomain = F.domain, F.codomain
    # stored graphs carry no off-sample range information: restrict y draws
    # to stored values so empty slices are not mistaken for lost surjectivity
    discrete = isinstance(F, FiniteGraphMapping)

    for j, delta in enumerate(schedule.radii):
        rng = generator(schedule.seed, 7919, j)
        budget = schedule.samples_per_scale
        # the pair-norm sampling ball of radius 2*delta covers the product of
        # the two delta-balls that gate regularity pairs
        sample = sample_graph(F, base, 2.0 * delta, budget, seed=schedule.seed + 37 * j)
        in_ball = list(compress(sample.points,
                                (norms(sample.xs - base.x, domain) <= delta)
                                & (norms(sample.ys - base.y, codomain) <= delta)))

        # graph-anchored ratio pairs
        for i, k in _graph_pairs(in_ball, base, rng, cap=budget // 2):
            g1, g2 = in_ball[i], in_ball[k]
            pool.add(g1.x, g2.y, anchors=(g2.x,), ax=0.5 * (g1.x + g2.x))

        # uniform pairs in the ball product
        n_uni = max(8, budget // 3)
        xs = base.x + ball_sample(domain, delta, n_uni, rng)
        if discrete:
            ys = [in_ball[int(rng.integers(0, len(in_ball)))].y for _ in range(n_uni)] \
                if in_ball else []
        else:
            ys = base.y + ball_sample(codomain, delta, n_uni, rng)
        for x, y in zip(xs, ys):
            pool.add(x, y)

        # short probes off sampled images
        n_probe = 0 if discrete else max(4, budget // 5)
        for _ in range(n_probe):
            g = in_ball[int(rng.integers(0, len(in_ball)))] if in_ball else sample.base
            d = rng.standard_normal(codomain.dimension)
            nd = norm(d, codomain)
            if nd < 1e-12:
                continue
            t = delta * float(rng.choice([0.25, 0.04, 0.008]))
            y = g.y + (t / nd) * d
            if norm(y - base.y, codomain) > delta:
                continue
            pool.add(g.x, y, anchors=(g.x,))

        # local-linearization sweep: where the finite-difference Jacobian has a
        # depressed smallest singular value, seed straddle pairs along its
        # minimal-gain direction (deterministic detection of narrow dips)
        if not discrete and domain.dimension <= 4 and codomain.dimension <= 4:
            scan: list[tuple[float, np.ndarray, np.ndarray, float]] = []
            offsets = _ring_grid(domain, delta, rng)
            steps = np.maximum(norms(offsets, domain), delta / 64.0) * 0.02
            for off, h in zip(offsets, steps.tolist()):
                x = base.x + off
                J = _branch_following_jacobian(F, x, h)
                if J is None:
                    continue
                try:
                    res = oracles.sigma_min(J)
                except oracles.NonConvergenceError:
                    continue
                scan.append((res.sigma_min, x, res.v_min, h))
            scan.sort(key=lambda t: t[0])
            for sig, x, v_min, h in scan[:6]:
                for s in (0.5 * h, 2.0 * h, 8.0 * h):
                    x1, x2 = x - s * v_min, x + s * v_min
                    if norm(x1 - base.x, domain) > delta:
                        continue
                    ws = F.images(x2)
                    if not ws:
                        continue
                    y2 = min(ws, key=lambda w: norm(w - base.y, codomain))
                    if norm(y2 - base.y, codomain) <= delta:
                        pool.add(x1, y2, anchors=(x2,), ax=x)

        # adaptive refinement around the running argmin: straddled graph
        # quotients through the anchor of the best pair, directions drifting
        # around the best pair's own axis, plus local jitter of both ends
        def straddle(mid: np.ndarray, d: np.ndarray, s: float) -> None:
            nd = norm(d, domain)
            if nd < 1e-12:
                return
            x1, x2 = mid - s / nd * d, mid + s / nd * d
            if norm(x1 - base.x, domain) > delta:
                return
            ws = F.images(x2)
            if not ws:
                return
            y2 = min(ws, key=lambda w: norm(w - base.y, codomain))
            if norm(y2 - base.y, codomain) <= delta:
                pool.add(x1, y2, anchors=(x2,), ax=mid)

        def top_anchors(k: int = 3) -> list[_PairEntry]:
            gate = delta * (1.0 + 1e-12)
            ranked = sorted((e for e in pool.entries if e.dx <= gate and e.dy <= gate),
                            key=lambda e: e.ratio)
            picked: list[_PairEntry] = []
            for e in ranked:
                if all(norm(e.ax - p.ax, domain) > delta / 16.0 for p in picked):
                    picked.append(e)
                if len(picked) == k:
                    break
            return picked

        axes = list(np.eye(domain.dimension))
        for round_ in range(schedule.refine_rounds):
            anchors_list = top_anchors()
            if not anchors_list:
                break
            n_ref = schedule.refine_samples
            shrink = 0.5 ** round_
            rad = delta * 0.25 * shrink
            for best in anchors_list:
                axis = best.ax - best.x
                n_axis = norm(axis, domain)
                s_best = n_axis if n_axis > 0 else delta * 0.05
                sep0 = max(s_best, delta * 1e-5) * 2.0 * shrink
                # deterministic separation ladder along coordinate axes and
                # the best pair's own axis, all through its anchor
                dirs = axes + ([axis / n_axis] if n_axis > 0 else [])
                for d in dirs:
                    for s_fac in (1.0, 0.25, 0.0625):
                        straddle(best.ax, d, sep0 * s_fac)
                for _ in range(n_ref // 3):
                    mid = best.ax + ball_sample(domain, rad, 1, rng)[0]
                    if n_axis > 0:
                        d = axis / n_axis + 0.5 * shrink * rng.standard_normal(domain.dimension)
                    else:
                        d = rng.standard_normal(domain.dimension)
                    straddle(mid, d, sep0 * float(rng.uniform(0.15, 1.0)))
            best = anchors_list[0]
            jx = best.x + ball_sample(domain, rad, n_ref // 3, rng)
            if discrete:
                jy = np.tile(best.y, (n_ref // 3, 1))
            else:
                jy = best.ay + ball_sample(codomain, rad, n_ref // 3, rng)
            inside = (norms(jx - base.x, domain) <= delta) & (norms(jy - base.y, codomain) <= delta)
            for x, y in compress(zip(jx, jy), inside):
                pool.add(x, y, anchors=(best.x,))

    per_scale = []
    for delta in schedule.radii:
        best = pool.minimum(delta)
        per_scale.append((delta, best.ratio if best is not None else math.inf))
    values = [v for _, v in per_scale]
    if pair_log is not None:
        gate = schedule.radii[-1] * (1.0 + 1e-12)
        pair_log.extend((e.x, e.y) for e in pool.entries if e.dx <= gate and e.dy <= gate)
    return ModulusEstimate(values[-1], tuple(per_scale), _stabilized(values), kind="rg")


# ---------------------------------------------------------------------------
# Lipschitz modulus (supremum of difference quotients)
# ---------------------------------------------------------------------------

@dataclass
class _QuotientEntry:
    gate: float
    quot: float
    a: np.ndarray
    b: np.ndarray


def lip_estimate(f, x_bar, schedule: ScaleSchedule,
                 domain: NormSpec | None = None,
                 codomain: NormSpec | None = None) -> ModulusEstimate:
    """Supremum of ||f(x) - f(x')|| / ||x - x'|| over sampled pairs in
    shrinking balls around x_bar, refined around the running argmax with
    straddle probes of shrinking separation."""
    x_bar = as_vector(x_bar)
    f0 = as_vector(f(x_bar))
    domain = domain or NormSpec(x_bar.size)
    codomain = codomain or NormSpec(f0.size)

    entries: list[_QuotientEntry] = []

    def add_pair(a: np.ndarray, b: np.ndarray):
        sep = norm(a - b, domain)
        if sep <= 1e-15:
            return None
        quot = norm(as_vector(f(a)) - as_vector(f(b)), codomain) / sep
        gate = max(norm(a - x_bar, domain), norm(b - x_bar, domain))
        entries.append(_QuotientEntry(gate, quot, a, b))
        return quot

    n_dim = domain.dimension
    for j, delta in enumerate(schedule.radii):
        rng = generator(schedule.seed, 104729, j)
        budget = schedule.samples_per_scale
        firsts: list[np.ndarray] = []
        # shell-structured anchors plus uniform fill
        for i in range(7):
            r = delta * 2.0 ** -i
            for k in range(n_dim):
                e = np.zeros(n_dim)
                e[k] = r
                firsts.append(x_bar + e)
                firsts.append(x_bar - e)
            vs = rng.standard_normal((max(1, budget // 28), n_dim))
            for v in vs:
                nv = norm(v, domain)
                if nv > 1e-12:
                    firsts.append(x_bar + v / nv * r)
        firsts.extend(x_bar + ball_sample(domain, delta * 0.9, budget // 3, rng))
        for a in firsts:
            if norm(a - x_bar, domain) > delta:
                continue
            ell = float(10.0 ** (-rng.uniform(0.3, 3.0))) * delta
            d = rng.standard_normal(n_dim)
            nd = norm(d, domain)
            if nd < 1e-12:
                continue
            b = a + d / nd * ell
            if norm(b - x_bar, domain) <= delta:
                add_pair(a, b)

        for round_ in range(schedule.refine_rounds):
            gated = [e for e in entries if e.gate <= delta]
            if not gated:
                break
            top = max(gated, key=lambda e: e.quot)
            sep = norm(top.a - top.b, domain)
            mid = 0.5 * (top.a + top.b)
            d0 = (top.b - top.a) / sep
            shrink = 0.6 ** round_
            rad = delta * 0.2 * shrink
            half = max(4, schedule.refine_samples // 4)
            # straddle probes: drifting midpoint, shrinking separation
            for _ in range(half):
                m = mid + ball_sample(domain, rad, 1, rng)[0]
                d = d0 + 0.4 * shrink * rng.standard_normal(n_dim)
                nd = norm(d, domain)
                if nd < 1e-12:
                    continue
                s = max(sep, delta * 1e-4) * shrink * float(rng.uniform(0.15, 0.8))
                a, b = m - s / nd * d, m + s / nd * d
                if norm(a - x_bar, domain) <= delta and norm(b - x_bar, domain) <= delta:
                    add_pair(a, b)
            for _ in range(half):
                a = top.a + ball_sample(domain, rad * 0.5, 1, rng)[0]
                b = top.b + ball_sample(domain, rad * 0.5, 1, rng)[0]
                if norm(a - x_bar, domain) <= delta and norm(b - x_bar, domain) <= delta:
                    add_pair(a, b)

    per_scale = []
    for delta in schedule.radii:
        gated = [e.quot for e in entries if e.gate <= delta]
        per_scale.append((delta, max(gated) if gated else 0.0))
    values = [v for _, v in per_scale]
    return ModulusEstimate(values[-1], tuple(per_scale), _stabilized(values), kind="lip")


# ---------------------------------------------------------------------------
# coderivative shift rule under differentiable perturbations
# ---------------------------------------------------------------------------

def coderivative_shift_check(F: MappingModel, f, base: GraphPoint, eps: float,
                             trials: int, radius: float = 0.05, budget: int = 240,
                             seed: int = 0) -> bool:
    """Check that elements of the eps1-coderivative of F shift by the adjoint
    gradient into the eps-coderivative of F + f, with eps1 = eps / (||grad f|| + 1)."""
    h = 1e-6 * (1.0 + norm(base.x, F.domain))
    J = oracles.finite_difference_jacobian(f, base.x, h)
    opn = oracles.operator_norm(J, F.domain, F.codomain)
    eps1 = eps / (opn + 1.0)

    sample = sample_graph(F, base, radius, budget, seed=seed)
    f_base = as_vector(f(base.x))
    pert_base = GraphPoint(base.x, base.y + f_base)
    pert_points = tuple(GraphPoint(p.x, p.y + as_vector(f(p.x))) for p in sample.points)
    pert_radius = radius * (2.0 + opn)
    pert_sample = SampledGraph(pert_base, pert_points, pert_radius, sample.spaces)

    m = F.codomain.dimension
    dirs = sphere_grid(F.codomain, max(2 * m, trials + 2 * m), seed=seed)
    done = 0
    for y_star in dirs:
        if done >= trials:
            break
        res = min_coderivative_norm(sample, base, eps1, [y_star], test_radius=radius,
                                    refine=False)
        if not res.feasible or res.low_confidence:
            continue
        shifted = res.element.x_star + J.T @ y_star
        if not coderivative_membership(pert_sample, pert_base, y_star, shifted, eps,
                                       test_radius=pert_radius):
            return False
        done += 1
    return True
