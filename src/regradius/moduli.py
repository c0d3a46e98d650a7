"""Estimators for the regularity modulus, the coderivative constant and
Lipschitz moduli, driven by a shrinking scale schedule.

Each estimator reports a per-scale trail plus a stabilization flag instead of
extrapolating: the value is always the finest-scale infimum (or supremum for
Lipschitz moduli), and acceptance keys off stabilized runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import oracles
from ._minnorm import PolyhedronProjector, solve_systems
from .mappings import (
    FiniteGraphMapping,
    GraphPoint,
    MappingModel,
    SampledGraph,
    f_rows,
    nearest_per_owner,
    sample_graph,
)
from .oracles import MEMBERSHIP_SLACK
from .spaces import (
    NormSpec,
    as_vector,
    ball_sample,
    dual_norm,
    generator,
    inf_from_json,
    inf_to_json,
    norm,
    norms,
    sphere_grid,
)

#: relative gap between the last two scales below which a trail counts as stabilized
STABILIZATION_REL = 0.05

_POS_TOL = 1e-14

#: why `rg_estimate` dropped a pair, in the order of ModulusEstimate.dropped
DROP_REASONS = ("zero_inverse_distance", "empty_image", "infinite_inverse_distance")
#: what `rg_plus_estimate` counts, in the order of ModulusEstimate.subproblems
SUBPROBLEM_COUNTS = ("solved", "infeasible", "low_confidence_points")


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


@dataclass(frozen=True)
class ModulusEstimate:
    """A per-scale trail of infima (suprema for lip) with diagnostics."""

    value: float
    per_scale: tuple[tuple[float, float], ...]
    stabilized: bool
    kind: str = "rg"
    witnesses: tuple[ScaleWitness, ...] = ()
    low_confidence: bool = False
    #: pairs an rg estimate dropped, counted per reason of DROP_REASONS
    dropped: tuple[int, ...] = (0,) * len(DROP_REASONS)
    #: min-norm subproblems an rg+ estimate solved, how many of them were
    #: infeasible, and how many evaluation points it flagged low-confidence
    subproblems: tuple[int, ...] = (0,) * len(SUBPROBLEM_COUNTS)

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
        doc = {
            "value": inf_to_json(self.value),
            "per_scale": [[d, inf_to_json(v)] for d, v in self.per_scale],
            "stabilized": self.stabilized,
            "low_confidence": self.low_confidence,
            "witness": witness,
        }
        if self.kind == "rg":
            doc["dropped"] = dict(zip(DROP_REASONS, self.dropped))
        if self.kind == "rg_plus":
            doc["subproblems"] = dict(zip(SUBPROBLEM_COUNTS, self.subproblems))
        return doc

    @classmethod
    def from_json(cls, doc: dict, kind: str = "rg") -> "ModulusEstimate":
        per_scale = tuple((float(d), inf_from_json(v)) for d, v in doc["per_scale"])
        dropped = doc.get("dropped", {})
        counts = doc.get("subproblems", {})
        return cls(inf_from_json(doc["value"]), per_scale, bool(doc["stabilized"]), kind=kind,
                   low_confidence=bool(doc.get("low_confidence", False)),
                   dropped=tuple(int(dropped.get(r, 0)) for r in DROP_REASONS),
                   subproblems=tuple(int(counts.get(c, 0)) for c in SUBPROBLEM_COUNTS))


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

def _neighbors(xs: np.ndarray, ys: np.ndarray, at: GraphPoint, radius: float, spaces):
    """Offsets (u - x, v - y) and pair distances of the rows (u, v) of
    (xs, ys) within `radius` of `at` = (x, y), rows equal to `at` left out."""
    du, dv = xs - at.x, ys - at.y
    # the pair distances of SampledGraph.pair_distances_to
    dists = norms(du, spaces.left) + norms(dv, spaces.right)
    near = (dists > 0.0) & (dists <= radius)
    return du[near], dv[near], dists[near]


def _growth_below(du: np.ndarray, dv: np.ndarray, dist: np.ndarray, wx, wy, eps: float) -> bool:
    """The pairing growth of (wx, wy) stays below (eps - slack) * r over the given neighbors."""
    growth = du @ wx + dv @ wy
    return not (growth > (eps - MEMBERSHIP_SLACK) * dist).any()


def eps_normal_test(sample: SampledGraph, at: GraphPoint, w_pair, eps: float,
                    test_radius: float) -> bool:
    """Discretized normal-cone test: pairing growth stays below (eps - slack) * r."""
    if test_radius <= 0:
        raise ValueError("test_radius must be positive")
    sample.index_of(at)  # raises when `at` is not in the sample
    du, dv, dist = _neighbors(sample.xs, sample.ys, at, test_radius, sample.spaces)
    return _growth_below(du, dv, dist, as_vector(w_pair[0]), as_vector(w_pair[1]), eps)


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


def _golden_min(fun, lo: float, hi: float, iters: int):
    """Golden-section minimum of fun over [lo, hi], as a solve generator:
    fun(a) is itself one, returning a tuple whose first entry is the value
    at a.  Returns the best bracket point and fun's tuple for it."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc = yield from fun(c)
    fd = yield from fun(d)
    for _ in range(iters):
        if fc[0] <= fd[0]:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = yield from fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = yield from fun(d)
    return (c, fc) if fc[0] <= fd[0] else (d, fd)


#: cap on constraint rows per minimization (radially stratified subselection)
_CONSTRAINT_CAP = 96


def _neighbor_system(xs: np.ndarray, ys: np.ndarray, at: GraphPoint, test_radius: float,
                     spaces):
    """Neighbors of `at` among the rows of (xs, ys) within test_radius, as
    `_neighbors` returns them, plus the indices of the at most
    _CONSTRAINT_CAP of them that constrain the minimization; None when there
    is no neighbor."""
    du, dv, dist = _neighbors(xs, ys, at, test_radius, spaces)
    if not dist.size:
        return None
    rows = np.arange(dist.size)
    if dist.size > _CONSTRAINT_CAP:
        rows = np.argsort(dist, kind="stable")
        rows = rows[(np.arange(_CONSTRAINT_CAP) * (dist.size / _CONSTRAINT_CAP)).astype(int)]
    return du, dv, dist, rows


def _lockstep(runs: list) -> tuple[list, int, int]:
    """Run solve generators side by side.

    A solve generator yields a (PolyhedronProjector, C) request (C or a
    function that builds it, as `solve_systems` takes it), receives the
    request's (X, feasible, values) and finally returns its result.  Each
    round answers the pending request of every generator with one
    `solve_systems` call.  Returns the results in the order of `runs`, the
    number of subproblems (columns) solved and how many were infeasible.
    """
    results: list = [None] * len(runs)
    waiting: list[int] = []
    requests: list = []
    solved = infeasible = 0

    def advance(k: int, answer) -> None:
        try:
            requests.append(runs[k].send(answer))
            waiting.append(k)
        except StopIteration as stop:
            results[k] = stop.value

    for k in range(len(runs)):
        advance(k, None)
    while waiting:
        answers = solve_systems(requests)
        batch = waiting[:]
        waiting.clear()
        requests.clear()
        for k, answer in zip(batch, answers):
            solved += answer[1].size
            infeasible += int(answer[1].size - answer[1].sum())
            advance(k, answer)
    return results, solved, infeasible


def _grid_steps(system, at: GraphPoint, eps: float, directions, spaces):
    """The direction grid of `min_coderivative_norm` over a neighbor system of
    `at`, as a solve generator (see `_lockstep`) returning the grid's
    MinNormCoderivative and the angle search from its best direction: a
    solve generator returning the refined MinNormCoderivative, or None when
    there is nothing to refine."""
    if system is None:
        elem = CoderivativeElement(at, directions[0], np.zeros(spaces.left.dimension), eps)
        return MinNormCoderivative(0.0, elem, low_confidence=True), None
    du, dv, dist, rows = system
    margin = max(2.0 * MEMBERSHIP_SLACK, 1e-6 * eps)
    proj = PolyhedronProjector(du[rows], spaces.left.q)

    def rhs(y: np.ndarray) -> np.ndarray:
        """(eps - margin) * r + V y* per constraint row, one column per direction."""
        V, r = dv[rows], dist[rows]
        if y.ndim == 2:
            return (eps - margin) * r[:, None] + V @ y
        return ((eps - margin) * r + V @ y)[:, None]

    # built only when the solve reaches it: a lockstep round holds many sweeps
    X, feasible, values = yield proj, lambda: rhs(np.column_stack(directions))
    k = int(np.argmin(values))
    if not feasible[k]:
        return MinNormCoderivative(math.inf, None), None
    codomain = spaces.right
    m = codomain.dimension

    def result(best_val: float, best_dir: np.ndarray, best_x: np.ndarray):
        if abs(dual_norm(best_dir, codomain) - 1.0) > 1e-9:
            raise ValueError("y* must be a unit dual vector")
        elem = CoderivativeElement(at, best_dir, best_x, eps)
        # solver margin should keep x* a member; flag rather than trust the value
        member = _growth_below(du, dv, dist, as_vector(best_x), -best_dir, eps)
        return MinNormCoderivative(best_val, elem, low_confidence=not member)

    def search(best_val: float, best_dir: np.ndarray, best_x: np.ndarray):
        angles = _unit_to_angles(best_dir)
        width = math.pi / max(4, len(directions) // (2 * m))

        def eval_angle(k: int, a: float):
            trial = angles.copy()
            trial[k] = a
            y = _angles_to_unit(trial, m)
            y = y / (dual_norm(y, codomain) or 1.0)
            X, _, values = yield proj, rhs(y)
            return float(values[0]), y, X[:, 0]

        for sweep in range(2):
            before = best_val
            for k in range(angles.size):
                a_best, (val, y, x) = yield from _golden_min(
                    lambda a: eval_angle(k, a), angles[k] - width, angles[k] + width, iters=10)
                if val <= best_val:
                    angles[k] = a_best
                    best_val, best_dir, best_x = val, y, x
            width *= 0.35
            if sweep == 0 and best_val > before - 3e-3 * max(before, 1e-30):
                break
        return result(best_val, best_dir, best_x)

    best = float(values[k]), directions[k], X[:, k]
    return result(*best), (search(*best) if m >= 2 else None)


def _min_coderivative_steps(system, at: GraphPoint, eps: float, directions, spaces,
                            refine: bool = True):
    """`min_coderivative_norm` over a neighbor system of `at`, as a solve
    generator (see `_lockstep`) returning the MinNormCoderivative."""
    res, search = yield from _grid_steps(system, at, eps, directions, spaces)
    if refine and search is not None:
        res = yield from search
    return res


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
    sample.index_of(at)  # raises when `at` is not in the sample
    system = _neighbor_system(sample.xs, sample.ys, at, test_radius, sample.spaces)
    (res,), _, _ = _lockstep([_min_coderivative_steps(system, at, eps, directions,
                                                      sample.spaces, refine)])
    return res


# ---------------------------------------------------------------------------
# coderivative constant (liminf of minimal coderivative norms)
# ---------------------------------------------------------------------------

def _witness_solve(system, pt: GraphPoint, eps_scale: float, scale_res, dirs, spaces):
    """Re-solve at a witness point over a ladder of epsilons, smallest first,
    as a solve generator returning (result, epsilon).  scale_res is the
    point's result over `system` at the scale epsilon.

    The scale epsilon realizes the sup-inf trail, but harvested witnesses
    should carry slopes near the limiting value, which the smallest feasible
    epsilon delivers; the ladder falls back to the scale epsilon on graphs
    whose curvature makes tiny epsilons infeasible at this radius.  A rung
    passes when its grid's best direction is feasible and a member, and the
    angle search then continues from that grid.
    """
    for rung in (eps_scale * 4.0**-4, eps_scale * 4.0**-2):
        res, search = yield from _grid_steps(system, pt, rung, dirs, spaces)
        if res.feasible and not res.low_confidence:
            return (res if search is None else (yield from search)), rung
    return scale_res, eps_scale


def scale_sample(F: MappingModel, base: GraphPoint, schedule: ScaleSchedule, j: int) -> SampledGraph:
    """The graph sample of scale j of `schedule`, as rg+ draws it."""
    return sample_graph(F, base, schedule.radii[j], schedule.samples_per_scale,
                        seed=schedule.seed + 101 * j)


def _point_system(F: MappingModel, rows, pt: GraphPoint, i: int, j: int, halving: int,
                  schedule: ScaleSchedule):
    """Neighbor system of evaluation point pt, row i of the rows (xs, ys) of
    scale j's sample, at the halving-th test radius.

    The candidate rows are those of a sample centered at the point, whose
    shells guarantee two-sided neighbor coverage in every direction (the
    scale's base-centered sample alone can leave a radial gap around
    off-base points), then the scale's rows that the first does not hold
    byte for byte; the system keeps those within the test radius."""
    test_r = 0.5 * schedule.radii[j] * 2.0 ** -halving
    local = sample_graph(F, pt, test_r, schedule.samples_per_scale // 2,
                         seed=schedule.seed + 101 * j + 7 * i + halving)
    xs, ys = rows
    seen = {(x.tobytes(), y.tobytes()) for x, y in zip(local.xs, local.ys)}
    extra = [k for k, (x, y) in enumerate(zip(xs, ys)) if (x.tobytes(), y.tobytes()) not in seen]
    return _neighbor_system(np.vstack((local.xs, xs[extra])), np.vstack((local.ys, ys[extra])),
                            pt, test_r, local.spaces)


def _eval_point_solve(F: MappingModel, rows, pt: GraphPoint, i: int, j: int, dirs,
                      schedule: ScaleSchedule):
    """The minimal coderivative norm at evaluation point pt, row i of the
    rows (xs, ys) of scale j's sample, as a solve generator returning
    (result, point, neighbor system)."""
    # the normal-cone quotient is a limit over shrinking neighborhoods:
    # when the full-radius system is infeasible (a second graph branch
    # inside the window), retry at smaller radii before giving up
    for halving in range(4):
        system = _point_system(F, rows, pt, i, j, halving, schedule)
        res = yield from _min_coderivative_steps(system, pt, schedule.epsilons[j], dirs,
                                                 F.product_spec)
        if res.feasible:
            break
    return res, pt, system


def rg_plus_estimate(F: MappingModel, base: GraphPoint, schedule: ScaleSchedule) -> ModulusEstimate:
    """Per scale: sample the graph, evaluate the minimal coderivative norm at
    spread-out graph points near the base, and take the infimum; the estimate
    is the finest-scale infimum with the witnessing element recorded per scale.

    Witness elements are re-solved at the smallest feasible epsilon so their
    slope norms track the limiting value at every scale, and witness points
    prefer the middle distance band so downstream constructions get centers
    away from the base point.

    The evaluation points of all scales run in lockstep, and then the witness
    ladders of all scales: each round solves the pending min-norm subproblem
    of every one of them in one call."""
    m = F.codomain.dimension
    dirs = sphere_grid(F.codomain, max(2 * m, schedule.directions), seed=schedule.seed)
    spaces = F.product_spec
    runs, scale_of = [], []
    for j, delta in enumerate(schedule.radii):
        sample = scale_sample(F, base, schedule, j)
        dists = sample.pair_distances_to(base)
        order = np.argsort(dists)
        inside = [int(i) for i in order if dists[i] <= 0.5 * delta]
        if len(inside) > schedule.eval_points:
            picks = np.unique(np.round(np.linspace(0, len(inside) - 1, schedule.eval_points)).astype(int))
            inside = [inside[i] for i in picks]
        # the points keep the scale's rows for their retries, not its GraphPoints
        rows = sample.xs, sample.ys
        runs += [_eval_point_solve(F, rows, sample.points[i], i, j, dirs, schedule)
                 for i in inside]
        scale_of += [j] * len(inside)
    evaluated, solved, infeasible = _lockstep(runs)
    low_points = sum(res.low_confidence for res, _, _ in evaluated)

    per_scale: list[tuple[float, float]] = []
    ladders, ladder_deltas = [], []
    domain = F.domain
    for j, (delta, eps) in enumerate(zip(schedule.radii, schedule.epsilons)):
        results = [(res, pt, system) for (res, pt, system), s in zip(evaluated, scale_of)
                   if s == j and res.feasible]
        if not results:
            per_scale.append((delta, math.inf))
            continue
        inf_val = min(res.value for res, _, _ in results)
        per_scale.append((delta, inf_val))

        # witness point: among near-minimal values prefer the candidate whose
        # distance from the base is closest to a quarter of the scale radius,
        # so harvested center distances track the schedule ratio
        near = [t for t in results if t[0].value <= inf_val * 1.05 + 1e-12]
        offbase = [t for t in near if norm(t[1].x - base.x, domain) > 0.0]
        pool = offbase if offbase else near
        w_res, w_pt, w_sys = min(
            pool, key=lambda t: abs(norm(t[1].x - base.x, domain) - delta / 4.0))
        ladders.append(_witness_solve(w_sys, w_pt, eps, w_res, dirs, spaces))
        ladder_deltas.append(delta)
    laddered, w_solved, w_infeasible = _lockstep(ladders)

    # enforce strictly decreasing witness epsilons, finest scale first
    # (raising earlier ones only, which keeps every membership certificate valid)
    witnesses: list[ScaleWitness] = []
    for (res, eps_w), delta in zip(reversed(laddered), reversed(ladder_deltas)):
        if witnesses and eps_w <= witnesses[-1].eps:
            eps_w = witnesses[-1].eps / 0.9
        elem = res.element
        witnesses.append(ScaleWitness(elem.at, elem.y_star, elem.x_star, eps_w, delta, res.value))
    witnesses.reverse()

    values = [v for _, v in per_scale]
    return ModulusEstimate(values[-1], tuple(per_scale), _stabilized(values),
                           kind="rg_plus", witnesses=tuple(witnesses),
                           low_confidence=low_points > 0,
                           subproblems=(solved + w_solved, infeasible + w_infeasible, low_points))


# ---------------------------------------------------------------------------
# regularity modulus (infimum of distance ratios)
# ---------------------------------------------------------------------------

class _RatioPool:
    """Cumulative pool of evaluated pairs, one row per pair; per-scale infima
    are monotone by nesting."""

    def __init__(self, F: MappingModel, base: GraphPoint):
        self.F, self.base = F, base
        self.x = self.ax = np.empty((0, F.domain.dimension))
        self.y = np.empty((0, F.codomain.dimension))
        # gate: the radius of the smallest product of balls around the base holding the pair
        self.ratio, self.gate = np.empty(0), np.empty(0)
        self.dropped = np.zeros(len(DROP_REASONS), dtype=int)

    def add(self, x, y, roots=None, ax=None) -> None:
        """Evaluate the ratios d(y[i], F(x[i])) / d(x[i], F^{-1}(y[i])) and keep
        the pairs that carry information.  roots[i] is the root-finding start
        of pair i, and ax[i] its refinement anchor in the domain (default x[i]).

        A pair is dropped, and counted, when its inverse distance is zero, its
        image is empty, or its inverse distance is +inf, unless the mapping
        certifies the empty preimage and d(y, F(x)) > 1e-12: then its ratio is
        0 and regularity fails outright."""
        F = self.F
        ax = x if ax is None else ax
        den = F.inverse_distances(x, y, roots)
        num = F.distances_to_image(x, y)
        zero = den <= _POS_TOL
        empty = ~zero & np.isinf(num)
        infinite = ~zero & ~empty & np.isinf(den) & ~(F.exact_inverse & (num > 1e-12))
        self.dropped += [zero.sum(), empty.sum(), infinite.sum()]
        keep = ~(zero | empty | infinite)
        x, y = x[keep], y[keep]
        self.x = np.vstack((self.x, x))
        self.y = np.vstack((self.y, y))
        self.ax = np.vstack((self.ax, ax[keep]))
        # a certified empty preimage gives num / inf = 0
        self.ratio = np.append(self.ratio, num[keep] / den[keep])
        self.gate = np.append(self.gate, np.maximum(norms(x - self.base.x, F.domain),
                                                    norms(y - self.base.y, F.codomain)))

    def gated(self, delta: float) -> np.ndarray:
        """Indices of the pairs in the product of the two delta-balls, in pool order."""
        return np.flatnonzero(self.gate <= delta * (1.0 + 1e-12))

    def minimum(self, delta: float) -> float:
        return float(self.ratio[self.gated(delta)].min(initial=math.inf))

    def top_anchors(self, delta: float, k: int = 3) -> list[int]:
        """The k best gated pairs whose anchors lie more than delta/16 apart,
        best first (ties in pool order)."""
        idx = self.gated(delta)
        idx = idx[np.argsort(self.ratio[idx], kind="stable")]
        picked: list[int] = []
        while idx.size and len(picked) < k:
            picked.append(int(idx[0]))
            idx = idx[norms(self.ax[idx] - self.ax[idx[0]], self.F.domain) > delta / 16.0]
        return picked


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


def _along(dirs: np.ndarray, lengths: np.ndarray, spec: NormSpec):
    """Offsets lengths[i] / ||dirs[i]|| * dirs[i], skipping near-zero
    directions; returns the mask of kept rows and their offsets."""
    nd = norms(dirs, spec)
    ok = ~(nd < 1e-12)
    return ok, (lengths[ok] / nd[ok])[:, None] * dirs[ok]


def _straddles(F: MappingModel, base: GraphPoint, delta: float, mid: np.ndarray, off: np.ndarray):
    """Straddled graph quotients through each row of `mid`: x1 = mid - off
    paired with the image of x2 = mid + off nearest to the base value, for
    pairs in the product of the two delta-balls.  Returns (x1, y2, x2, mid),
    the arguments of `_RatioPool.add`."""
    x1, x2 = mid - off, mid + off
    inside = np.flatnonzero(~(norms(x1 - base.x, F.domain) > delta))
    owner, images = F.image_rows(x2[inside])
    owner = inside[owner]
    dist = norms(images - base.y, F.codomain)
    # the image of each row nearest to the base value
    first = nearest_per_owner(owner, dist)
    first = first[dist[first] <= delta]
    rows = owner[first]
    return x1[rows], images[first], x2[rows], mid[rows]


def _graph_anchored(xs: np.ndarray, ys: np.ndarray, base: GraphPoint, rng, cap: int):
    """x from one graph point, y the image of another, rooted at the second
    point's x: a nearest-neighbor chain plus random picks."""
    if len(xs) < 2:
        return xs[:0], ys[:0]
    order = sorted(range(len(xs)), key=lambda i: float(np.linalg.norm(xs[i] - base.x)))
    pairs = [(order[k], order[k + 1]) for k in range(len(order) - 1)]
    for _ in range(min(cap, 3 * len(order))):
        i, j = rng.integers(0, len(order), size=2)
        if i != j:
            pairs.append((order[int(i)], order[int(j)]))
    first, second = np.array(pairs).T
    return xs[first], ys[second], xs[second], 0.5 * (xs[first] + xs[second])


def _uniform_pairs(F: MappingModel, ys: np.ndarray, base: GraphPoint, delta: float,
                   count: int, discrete: bool, rng):
    """Uniform draws from the product of the two delta-balls; a stored graph
    draws y from its stored values only."""
    x = base.x + ball_sample(F.domain, delta, count, rng)
    if not discrete:
        return x, base.y + ball_sample(F.codomain, delta, count, rng)
    if not len(ys):
        return x[:0], ys
    return x, ys[[int(rng.integers(0, len(ys))) for _ in range(count)]]


def _linearization_sweep(F: MappingModel, base: GraphPoint, delta: float, rng):
    """Where the finite-difference Jacobian on a ring grid has a depressed
    smallest singular value, straddle pairs along its minimal-gain direction
    (deterministic detection of narrow dips).  The singular values come from
    LAPACK, so rg stays independent of the Jacobi oracle it is checked against."""
    offsets = _ring_grid(F.domain, delta, rng)
    steps = np.maximum(norms(offsets, F.domain), delta / 64.0) * 0.02
    mids = base.x + offsets
    # central differences that follow the image branch nearest (in the
    # Euclidean norm, as np.linalg.norm's 1-D dot sums it) to the first image
    # of their mid: every mid and its points mid +- h e_i in one image_rows call
    k, n = mids.shape
    per = 2 * n + 1
    E = steps[:, None, None] * np.eye(n)
    points = np.concatenate([mids[:, None], mids[:, None] + E, mids[:, None] - E], axis=1)
    owner, W = F.image_rows(points.reshape(-1, n))
    # offsets from the first image of each value's mid (a mid without one drops out below)
    D = W - W[np.minimum(np.searchsorted(owner, owner - owner % per), len(W) - 1)]
    pick = nearest_per_owner(owner, np.sqrt(np.matmul(D[:, None, :], D[:, :, None])[:, 0, 0]))
    near = np.full((k * per, F.codomain.dimension), np.nan)
    near[owner[pick]] = W[pick]
    near = near.reshape(k, per, -1)
    found = np.flatnonzero(~np.isnan(near).any(axis=(1, 2)))  # an image at every point
    # J[:, i] = (F(mid + h e_i) - F(mid - h e_i)) / 2h
    J = (near[found, 1:n + 1] - near[found, n + 1:]) / (2.0 * steps[found, None, None])
    _, sigmas, vt = np.linalg.svd(np.swapaxes(J, 1, 2), full_matrices=False)
    v_min = vt[:, -1, :]
    # LAPACK leaves the sign of a singular vector open: fix it by the largest entry
    v_min *= np.sign(v_min[np.arange(len(v_min)), np.abs(v_min).argmax(axis=1)])[:, None]
    best = np.argsort(sigmas[:, -1], kind="stable")[:6]
    scales = (steps[found[best], None] * np.array([0.5, 2.0, 8.0])).reshape(-1, 1)
    return _straddles(F, base, delta, np.repeat(mids[found[best]], 3, axis=0),
                      scales * np.repeat(v_min[best], 3, axis=0))


def _refinement(F: MappingModel, base: GraphPoint, delta: float, pool: _RatioPool,
                top: list[int], round_: int, count: int, rng):
    """One batch of straddled graph quotients through the anchors of the best
    pairs: a separation ladder along the coordinate axes and each pair's own
    axis, and `count` straddles per pair with drifting mid and direction."""
    domain = F.domain
    shrink = 0.5 ** round_
    rad = delta * 0.25 * shrink
    axes = pool.ax[top] - pool.x[top]
    axis_norms = norms(axes, domain)
    rows = []  # (mid, direction, separation) of each straddle
    for i, axis, n_axis in zip(top, axes, axis_norms.tolist()):
        ax = pool.ax[i]
        s_best = n_axis if n_axis > 0 else delta * 0.05
        sep0 = max(s_best, delta * 1e-5) * 2.0 * shrink
        # deterministic separation ladder along coordinate axes and the best
        # pair's own axis, all through its anchor
        ladder = list(np.eye(domain.dimension)) + ([axis / n_axis] if n_axis > 0 else [])
        rows += [(ax, d, sep0 * s_fac) for d in ladder for s_fac in (1.0, 0.25, 0.0625)]
        for _ in range(count):
            mid = ax + ball_sample(domain, rad, 1, rng)[0]
            noise = rng.standard_normal(domain.dimension)
            d = axis / n_axis + 0.5 * shrink * noise if n_axis > 0 else noise
            rows.append((mid, d, sep0 * float(rng.uniform(0.15, 1.0))))
    mids, dirs, seps = (np.array(column) for column in zip(*rows))
    ok, offs = _along(dirs, seps, domain)
    return _straddles(F, base, delta, mids[ok], offs)


def rg_estimate(F: MappingModel, base: GraphPoint, schedule: ScaleSchedule,
                pair_log: list | None = None) -> ModulusEstimate:
    """Infimum of d(y, F(x)) / d(x, F^{-1}(y)) over sampled pairs in shrinking
    balls, with adaptive refinement around the running argmin.

    Four proposal families return their pairs as arrays, which one pool
    evaluates.  Graph-anchored pairs (x from one graph point, y the image of
    another) find the minimum of a stored graph.  Uniform ball draws are the
    surjectivity check: a y off the range of an exact-inverse map gives
    ratio 0.  Straddles along the minimal-gain directions of a linearization
    sweep, and the refinement straddles through the best pairs' anchors, set
    the minimum everywhere else.  The pool is cumulative, so per-scale infima
    are monotone by nesting.  The +inf sentinel is reported when no sampled
    pair has a positive inverse distance.  The estimate counts the pairs the
    pool dropped, per reason of DROP_REASONS.
    """
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
        in_ball = (norms(sample.xs - base.x, domain) <= delta) \
            & (norms(sample.ys - base.y, codomain) <= delta)
        xs, ys = sample.xs[in_ball], sample.ys[in_ball]

        pool.add(*_graph_anchored(xs, ys, base, rng, cap=budget // 2))
        pool.add(*_uniform_pairs(F, ys, base, delta, max(8, budget // 3), discrete, rng))
        if not discrete and domain.dimension <= 4 and codomain.dimension <= 4:
            pool.add(*_linearization_sweep(F, base, delta, rng))

        for round_ in range(schedule.refine_rounds):
            top = pool.top_anchors(delta)
            if not top:
                break
            pool.add(*_refinement(F, base, delta, pool, top, round_,
                                  schedule.refine_samples // 3, rng))

    per_scale = [(delta, pool.minimum(delta)) for delta in schedule.radii]
    values = [v for _, v in per_scale]
    if pair_log is not None:
        idx = pool.gated(schedule.radii[-1])
        pair_log.extend(zip(pool.x[idx], pool.y[idx]))
    return ModulusEstimate(values[-1], tuple(per_scale), _stabilized(values), kind="rg",
                           dropped=tuple(pool.dropped.tolist()))


# ---------------------------------------------------------------------------
# Lipschitz modulus (supremum of difference quotients)
# ---------------------------------------------------------------------------

class _QuotientPool:
    """Cumulative pool of difference quotients ||f(a) - f(b)|| / ||a - b||,
    one row per pair, gated by the larger distance of a and b to the center."""

    def __init__(self, f, center: np.ndarray, domain: NormSpec, codomain: NormSpec):
        self.f, self.center, self.domain, self.codomain = f, center, domain, codomain
        self.a, self.b = np.empty((0, domain.dimension)), np.empty((0, domain.dimension))
        self.quot, self.sep, self.gate = np.empty(0), np.empty(0), np.empty(0)

    def add(self, a: np.ndarray, b: np.ndarray, delta: float) -> None:
        """Evaluate the pairs (a[i], b[i]) that lie in the delta-ball and are
        not coincident, in row order."""
        gate = np.maximum(norms(a - self.center, self.domain), norms(b - self.center, self.domain))
        sep = norms(a - b, self.domain)
        keep = (gate <= delta) & ~(sep <= 1e-15)
        a, b, sep = a[keep], b[keep], sep[keep]
        m = self.codomain.dimension
        diffs = f_rows(self.f, a, m) - f_rows(self.f, b, m)
        self.a, self.b = np.vstack((self.a, a)), np.vstack((self.b, b))
        self.quot = np.append(self.quot, norms(diffs, self.codomain) / sep)
        self.sep = np.append(self.sep, sep)
        self.gate = np.append(self.gate, gate[keep])

    def maximum(self, delta: float) -> float:
        return float(self.quot[self.gate <= delta].max(initial=0.0))


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
    pool = _QuotientPool(f, x_bar, domain, codomain)

    n_dim = domain.dimension
    for j, delta in enumerate(schedule.radii):
        rng = generator(schedule.seed, 104729, j)
        budget = schedule.samples_per_scale
        # shell-structured anchors plus uniform fill
        firsts = []
        for i in range(7):
            r = delta * 2.0 ** -i
            e = r * np.eye(n_dim)
            firsts.append(np.stack((x_bar + e, x_bar - e), axis=1).reshape(-1, n_dim))
            vs = rng.standard_normal((max(1, budget // 28), n_dim))
            lengths = norms(vs, domain)
            keep = lengths > 1e-12
            firsts.append(x_bar + vs[keep] / lengths[keep, None] * r)
        firsts.append(x_bar + ball_sample(domain, delta * 0.9, budget // 3, rng))
        firsts = np.vstack(firsts)
        # the ball gate comes before the draws of each anchor's partner
        firsts = firsts[~(norms(firsts - x_bar, domain) > delta)]
        ells, dirs = [], []
        for _ in range(len(firsts)):
            ells.append(float(10.0 ** (-rng.uniform(0.3, 3.0))) * delta)
            dirs.append(rng.standard_normal(n_dim))
        dirs, ells = np.array(dirs).reshape(-1, n_dim), np.array(ells)
        nd = norms(dirs, domain)
        ok = ~(nd < 1e-12)
        # (d / nd) * ell: rounds differently from _along's (ell / nd) * d
        pool.add(firsts[ok], firsts[ok] + dirs[ok] / nd[ok, None] * ells[ok, None], delta)

        for round_ in range(schedule.refine_rounds):
            gated = np.flatnonzero(pool.gate <= delta)
            if not gated.size:
                break
            t = gated[np.argmax(pool.quot[gated])]
            top_a, top_b, sep = pool.a[t], pool.b[t], float(pool.sep[t])
            mid = 0.5 * (top_a + top_b)
            d0 = (top_b - top_a) / sep
            shrink = 0.6 ** round_
            rad = delta * 0.2 * shrink
            half = max(4, schedule.refine_samples // 4)
            # straddle probes: drifting midpoint, shrinking separation
            mids, dirs, seps = [], [], []
            for _ in range(half):
                mids.append(mid + ball_sample(domain, rad, 1, rng)[0])
                dirs.append(d0 + 0.4 * shrink * rng.standard_normal(n_dim))
                seps.append(max(sep, delta * 1e-4) * shrink * float(rng.uniform(0.15, 0.8)))
            ok, offs = _along(np.array(dirs), np.array(seps), domain)
            mids = np.array(mids)[ok]
            pool.add(mids - offs, mids + offs, delta)
            # local jitter of both ends
            ends = np.array([(top_a + ball_sample(domain, rad * 0.5, 1, rng)[0],
                              top_b + ball_sample(domain, rad * 0.5, 1, rng)[0])
                             for _ in range(half)])
            pool.add(ends[:, 0], ends[:, 1], delta)

    per_scale = [(delta, pool.maximum(delta)) for delta in schedule.radii]
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
