"""Construction of the regularity-destroying Lipschitz rank-one perturbation.

The builder harvests a witness sequence from the coderivative estimate,
relocates any witness sitting exactly at the base point by a discrete
Ekeland descent over the sampled graph, subselects center distances so that
consecutive ones at least halve, and assembles disjointly supported bumps
whose slopes are the witness coderivative elements.

Bump exponents are indexed along a tail of the witness sequence (a fixed
index offset) so that every kept bump has a Lipschitz cap within a few
percent of its slope norm; truncation to finitely many bumps keeps the
construction a well-defined Lipschitz rank-one function.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import moduli
from .mappings import GraphPoint, MappingModel, SampledGraph
from .spaces import (NormSpec, as_vector, dual_norm, generator, inf_from_json, inf_to_json,
                     norm, norms, pairing)

#: bump indices count along a tail of the witness sequence; keeps every
#: exponent within (1, 1.04] so slope caps stay close to the slope norms
TAIL_INDEX_OFFSET = 24

#: coderivative constants below this are treated as the degenerate case
DEGENERATE_TOL = 1e-9

_BASE_EQ_TOL = 1e-12


class DegenerateModulusError(RuntimeError):
    """The coderivative constant vanishes; the zero perturbation already works."""


class NotStabilizedError(RuntimeError):
    """The coderivative estimate has not stabilized; refuse to harvest witnesses."""


class UnderSampledGraphError(RuntimeError):
    """No sampled graph point leaves the base point: enlarge the sample."""


class RelocationError(RuntimeError):
    """The discrete Ekeland descent could not certify a relocated witness."""


@dataclass(frozen=True)
class WitnessEntry:
    x: np.ndarray
    y: np.ndarray
    eps: float
    y_star: np.ndarray
    x_star: np.ndarray
    k: int  # global index along the harvested sequence

    def __post_init__(self):
        object.__setattr__(self, "x", as_vector(self.x))
        object.__setattr__(self, "y", as_vector(self.y))
        object.__setattr__(self, "y_star", as_vector(self.y_star))
        object.__setattr__(self, "x_star", as_vector(self.x_star))


@dataclass(frozen=True)
class WitnessSequence:
    entries: tuple[WitnessEntry, ...]
    gamma: float
    target: float
    domain: NormSpec
    codomain: NormSpec

    def __post_init__(self):
        eps = [e.eps for e in self.entries]
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("witness epsilons must be strictly decreasing")
        norms = [dual_norm(e.x_star, self.domain) for e in self.entries]
        if not norms or min(norms) <= 0.0:
            raise DegenerateModulusError("degenerate: coderivative constant is zero")
        caps = [(1.0 + 1.0 / (e.k + TAIL_INDEX_OFFSET)) * n for e, n in zip(self.entries, norms)]
        if max(caps) >= self.gamma:
            raise ValueError("gamma must dominate every slope cap")

    def slope_norms(self) -> list[float]:
        return [dual_norm(e.x_star, self.domain) for e in self.entries]


@dataclass(frozen=True)
class EkelandDiagnostics:
    steps: int
    rho: float
    eps_prime: float
    varsigma: float
    start: GraphPoint
    moved: float  # pair-distance from start to the relocated point
    budget: float  # ||x_hat - x_bar||, the distance bound of the descent


@dataclass(frozen=True)
class BumpSpec:
    """One bump: s(x) = max(1 - (||x - center|| / radius)^exponent, 0) scaled
    by the affine slope pairing along a fixed unit direction."""

    center: np.ndarray
    radius: float
    slope: np.ndarray
    direction: np.ndarray
    k: int

    def __post_init__(self):
        object.__setattr__(self, "center", as_vector(self.center))
        object.__setattr__(self, "slope", as_vector(self.slope))
        object.__setattr__(self, "direction", as_vector(self.direction))
        if self.radius <= 0:
            raise ValueError("bump radius must be positive")
        if self.k < 1:
            raise ValueError("bump index must be a positive integer")

    @property
    def exponent(self) -> float:
        return 1.0 + 1.0 / self.k


@dataclass(frozen=True)
class BumpPerturbation:
    bumps: tuple[BumpSpec, ...]
    base_point: np.ndarray
    t: tuple[float, ...]
    domain: NormSpec
    codomain: NormSpec

    def __post_init__(self):
        object.__setattr__(self, "base_point", as_vector(self.base_point))
        object.__setattr__(self, "t", tuple(float(v) for v in self.t))
        if len(self.t) != len(self.bumps):
            raise ValueError("one center distance per bump required")
        for a, b in zip(self.t, self.t[1:]):
            if not (0.0 < b < 0.5 * a):
                raise ValueError("center distances must satisfy t_next < t/2")
        for i, (bump, ti) in enumerate(zip(self.bumps, self.t)):
            d = norm(bump.center - self.base_point, self.domain)
            if abs(d - ti) > 1e-9 * (1.0 + ti):
                raise ValueError("stored center distance disagrees with the center")
            t_next = self.t[i + 1] if i + 1 < len(self.t) else self.t[i] / 4.0
            if abs(bump.radius - 0.5 * (ti - t_next)) > 1e-9 * (1.0 + ti):
                raise ValueError("bump radius must be half the gap to the next center")
        for i in range(len(self.bumps)):
            for j in range(i + 1, len(self.bumps)):
                bi, bj = self.bumps[i], self.bumps[j]
                if norm(bi.center - bj.center, self.domain) <= bi.radius + bj.radius:
                    raise ValueError("bump supports must be pairwise disjoint")
                if self.t[i] <= self.t[j] + bj.radius + bi.radius:
                    raise ValueError("outer centers must clear the inner shells")
        # the bumps stacked for rows()
        n, m = self.domain.dimension, self.codomain.dimension
        object.__setattr__(self, "_centers", np.array([b.center for b in self.bumps]).reshape(-1, n))
        object.__setattr__(self, "_slopes", np.array([b.slope for b in self.bumps]).reshape(-1, n))
        object.__setattr__(self, "_directions",
                           np.array([b.direction for b in self.bumps]).reshape(-1, m))
        object.__setattr__(self, "_radii", np.array([b.radius for b in self.bumps]))
        object.__setattr__(self, "_exponents", [b.exponent for b in self.bumps])

    def __call__(self, x) -> np.ndarray:
        return perturbation_eval(self, x)

    def rows(self, X) -> np.ndarray:
        """f at each row of X; row i equals perturbation_eval(self, X[i]) bit for bit."""
        X = np.asarray(X, dtype=float)
        k, b = len(X), len(self.bumps)
        out = np.zeros((k, self.codomain.dimension))
        if not b:
            return out
        d = X[:, None, :] - self._centers
        dist = norms(d.reshape(k * b, self.domain.dimension), self.domain).reshape(k, b)
        inside = dist <= self._radii
        # by disjointness at most one bump holds a row; the first one counts
        hit = np.flatnonzero(inside.any(axis=1))
        which = inside[hit].argmax(axis=1)
        q = (dist[hit, which] / self._radii[which]).tolist()
        # the cutoff in Python floats: numpy's power differs from float pow in
        # the last bit on some inputs
        s = np.array([_cutoff(qi, self._exponents[w]) for qi, w in zip(q, which.tolist())])
        # one stacked (1 x n)(n x 1) product per row adds like the 1-D np.dot of `pairing`
        slope_pairing = np.matmul(d[hit, which][:, None, :], self._slopes[which][:, :, None])
        out[hit] = (-s * slope_pairing[:, 0, 0])[:, None] * self._directions[which]
        return out

    def jacobian_rows(self, X) -> np.ndarray:
        """The Jacobian of f at each row of X, (rows, m, n): -v (s x* + <x*, x - c>
        grad s)^T in the open support holding x, grad s = -(e / rho) q^(e - 1)
        grad ||x - c|| (sign(0) = 0 and p = inf's first largest entry at the
        kinks); 0 outside every support."""
        X = np.asarray(X, dtype=float)
        k, n = X.shape
        out = np.zeros((k, self.codomain.dimension, n))
        if not self.bumps:
            return out
        d = X[:, None, :] - self._centers
        dist = norms(d.reshape(-1, n), self.domain).reshape(k, len(self.bumps))
        inside = dist < self._radii
        hit = np.flatnonzero(inside.any(axis=1))
        which = inside[hit].argmax(axis=1)
        d, dist, rho = d[hit, which], dist[hit, which], self._radii[which]
        q, e = dist / rho, np.array(self._exponents)[which]
        if self.domain.p == 2.0:
            grad = np.divide(d, dist[:, None], out=np.zeros_like(d), where=dist[:, None] > 0.0)
        elif self.domain.p == 1.0:
            grad = np.sign(d)
        else:
            grad = np.where(np.arange(n) == np.abs(d).argmax(axis=1)[:, None], np.sign(d), 0.0)
        grad_s = -(e / rho * q ** (e - 1.0))[:, None] * grad
        slopes = self._slopes[which]
        row = (1.0 - q ** e)[:, None] * slopes + (slopes * d).sum(axis=1)[:, None] * grad_s
        out[hit] = -self._directions[which][:, :, None] * row[:, None, :]
        return out

    def to_json(self) -> dict:
        return {
            "base_point": self.base_point.tolist(),
            "bumps": [
                {
                    "center": b.center.tolist(),
                    "radius": b.radius,
                    "slope": b.slope.tolist(),
                    "direction": b.direction.tolist(),
                    "exponent": b.exponent,
                    "index": b.k,
                }
                for b in self.bumps
            ],
            "t": list(self.t),
            "domain": {"dimension": self.domain.dimension, "p": inf_to_json(self.domain.p)},
            "codomain": {"dimension": self.codomain.dimension, "p": inf_to_json(self.codomain.p)},
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)

    @classmethod
    def from_json(cls, doc: dict) -> "BumpPerturbation":
        domain = NormSpec(doc["domain"]["dimension"], inf_from_json(doc["domain"]["p"]))
        codomain = NormSpec(doc["codomain"]["dimension"], inf_from_json(doc["codomain"]["p"]))
        bumps = tuple(
            BumpSpec(b["center"], b["radius"], b["slope"], b["direction"], int(b["index"]))
            for b in doc["bumps"]
        )
        return cls(bumps, doc["base_point"], tuple(doc["t"]), domain, codomain)


# ---------------------------------------------------------------------------
# witness harvesting
# ---------------------------------------------------------------------------

def extract_witness(F: MappingModel, base: GraphPoint, schedule: moduli.ScaleSchedule,
                    K: int, rg_plus: moduli.ModulusEstimate | None = None) -> WitnessSequence:
    """Harvest K witnesses (one per scale, coarse to fine) from the
    coderivative estimate, relocating any that sit exactly at the base point."""
    if K < 3:
        raise ValueError("at least three witnesses are required")
    if rg_plus is None:
        rg_plus = moduli.rg_plus_estimate(F, base, schedule)
    if rg_plus.kind != "rg_plus":
        raise ValueError("witness extraction needs a coderivative estimate")
    if not rg_plus.stabilized:
        raise NotStabilizedError("coderivative estimate not stabilized; refine the schedule")
    if math.isinf(rg_plus.value):
        raise ValueError("coderivative constant is infinite; nothing to destabilize")
    if rg_plus.value <= DEGENERATE_TOL:
        raise DegenerateModulusError("degenerate: coderivative constant is zero")
    if len(rg_plus.witnesses) < K:
        raise UnderSampledGraphError(
            f"only {len(rg_plus.witnesses)} scale witnesses available, need {K}"
        )
    entries: list[WitnessEntry] = []
    for pos, w in enumerate(rg_plus.witnesses[:K], start=1):
        entry = WitnessEntry(w.point.x, w.point.y, w.eps, w.y_star, w.x_star, k=pos)
        if norm(entry.x - base.x, F.domain) <= _BASE_EQ_TOL:
            sample = moduli.scale_sample(F, base, schedule, schedule.radii.index(w.delta))
            entry, _ = relocate_witness_ekeland(sample, base, entry)
        entries.append(entry)
    norms = [dual_norm(e.x_star, F.domain) for e in entries]
    if min(norms) <= DEGENERATE_TOL:
        raise DegenerateModulusError("degenerate: coderivative constant is zero")
    gamma = 1.05 * max((1.0 + 1.0 / (e.k + TAIL_INDEX_OFFSET)) * n
                       for e, n in zip(entries, norms))
    return WitnessSequence(tuple(entries), gamma, rg_plus.value, F.domain, F.codomain)


# ---------------------------------------------------------------------------
# discrete Ekeland relocation of base-point witnesses
# ---------------------------------------------------------------------------

def relocate_witness_ekeland(sample: SampledGraph, base: GraphPoint,
                             entry: WitnessEntry) -> tuple[WitnessEntry, EkelandDiagnostics]:
    """Move a witness off the base point by descending a penalized pairing
    functional over the sampled graph.

    The descent only ever moves to sample points that strictly decrease the
    functional by the penalty times the step length, so it terminates within
    |sample| steps, stays within the starting distance budget, and the
    relocated point carries the same coderivative element at an inflated
    epsilon, certified by the sampled epsilon-normal test of `moduli`.
    """
    domain = sample.spaces.left
    codomain = sample.spaces.right
    if norm(entry.x - base.x, domain) > _BASE_EQ_TOL:
        raise ValueError("relocation applies to witnesses at the base point only")
    center = GraphPoint(base.x, entry.y)
    k_eff = entry.k + TAIL_INDEX_OFFSET
    x_star, y_star, eps_k = entry.x_star, entry.y_star, entry.eps

    dists = sample.pair_distances_to(center)
    rho = min(0.75 * sample.radius, 1.0 / k_eff)
    for _ in range(7):
        if moduli.eps_normal_test(sample, center, (x_star, -y_star), eps_k, rho):
            break
        rho *= 0.5
    else:
        raise RelocationError("entry is not a valid epsilon-normal on the sample")

    moving = [
        (i, p) for i, p in enumerate(sample.points)
        if dists[i] <= rho and not p.same_as(center)
        and norm(p.x - base.x, domain) > _BASE_EQ_TOL
    ]
    if not moving:
        raise UnderSampledGraphError("isolated domain direction; enlarge the sample")

    def quotient(p: GraphPoint) -> float:
        dx = norm(p.x - base.x, domain)
        dy = norm(p.y - entry.y, codomain)
        return (pairing(x_star, p.x - base.x) - pairing(y_star, p.y - entry.y)
                - eps_k * dy) / dx

    def psi(i: int, p: GraphPoint) -> float:
        return (eps_k * dists[i] - pairing(x_star, p.x - base.x)
                + pairing(y_star, p.y - entry.y))

    # varsigma from the smallest sampled shells around the center
    move_d = sorted(dists[i] for i, _ in moving)
    shell1 = move_d[0] * 1.5
    shell1_pts = [p for i, p in moving if dists[i] <= shell1]
    varsigma = max(quotient(p) for p in shell1_pts)

    start_i, start_p = max(
        ((i, p) for i, p in moving if dists[i] <= shell1),
        key=lambda ip: quotient(ip[1]),
    )
    budget = norm(start_p.x - base.x, domain)

    eps_prime = eps_k + 1.0 / k_eff - varsigma
    for attempt in range(8):
        cur_i, cur_p = start_i, start_p
        steps = 0
        moved = 0.0
        for _ in range(len(moving)):
            cur_psi = psi(cur_i, cur_p)
            candidate = None
            for i, p in moving:
                if i == cur_i:
                    continue
                step = float(
                    norm(p.x - cur_p.x, domain) + norm(p.y - cur_p.y, codomain)
                )
                if psi(i, p) + eps_prime * step <= cur_psi:
                    if candidate is None or psi(i, p) < psi(candidate[0], candidate[1]):
                        candidate = (i, p)
            if candidate is None:
                break
            moved += float(norm(candidate[1].x - cur_p.x, domain)
                           + norm(candidate[1].y - cur_p.y, codomain))
            cur_i, cur_p = candidate
            steps += 1
        eps_tilde = eps_k + eps_prime
        local_radius = max(rho - dists[cur_i], rho * 1e-3)
        if moduli.eps_normal_test(sample, cur_p, (x_star, -y_star), eps_tilde, local_radius):
            diag = EkelandDiagnostics(steps, rho, eps_prime, varsigma, start_p,
                                      moved, budget)
            relocated = WitnessEntry(cur_p.x, cur_p.y, eps_tilde, y_star, x_star, entry.k)
            return relocated, diag
        eps_prime *= 1.6
    raise RelocationError("relocated point failed membership at every penalty level")


# ---------------------------------------------------------------------------
# radii, directions and bump assembly
# ---------------------------------------------------------------------------

def select_radii(witness: WitnessSequence, base: GraphPoint) -> tuple[list[float], list[float], list[int]]:
    """Greedy subsequence of center distances with t_next < t/2, closed by a
    virtual final distance of a quarter of the last kept one."""
    ts = [norm(e.x - base.x, witness.domain) for e in witness.entries]
    kept: list[int] = []
    for i, t in enumerate(ts):
        if t <= 0.0:
            continue
        if not kept or t < 0.5 * ts[kept[-1]]:
            kept.append(i)
    if len(kept) < 2:
        raise UnderSampledGraphError("fewer than two center distances survive subselection")
    t_kept = [ts[i] for i in kept]
    closed = t_kept + [t_kept[-1] / 4.0]
    rho = [0.5 * (a - b) for a, b in zip(closed, closed[1:])]
    return t_kept, rho, kept


def choose_direction(y_star, k: int, codomain: NormSpec) -> np.ndarray:
    """Unit range vector v with <y*, v> > 1 - 1/k for a unit dual y*.

    Euclidean spaces are self-dual (v = y*); for the polyhedral norms the
    lexicographically smallest norming vertex of the unit ball is taken.
    """
    y_star = as_vector(y_star)
    if abs(dual_norm(y_star, codomain) - 1.0) > 1e-9:
        raise ValueError("y* must be a unit dual vector")
    if codomain.p == 2.0:
        v = y_star / float(np.linalg.norm(y_star))
    elif codomain.p == 1.0:
        mx = float(np.max(np.abs(y_star)))
        cands = []
        for i in range(y_star.size):
            if abs(y_star[i]) >= mx - 1e-12:
                e = np.zeros(y_star.size)
                e[i] = math.copysign(1.0, y_star[i])
                cands.append(e)
        v = min(cands, key=lambda c: tuple(c))
    else:
        v = np.where(y_star > 0.0, 1.0, -1.0)
    if not pairing(y_star, v) > 1.0 - 1.0 / k:
        raise ValueError("norming vector failed the pairing bound")
    return v


def _cutoff(q: float, exponent: float) -> float:
    return 0.0 if q >= 1.0 else max(1.0 - q ** exponent, 0.0)


def bump_value(spec: BumpSpec, x, domain: NormSpec) -> float:
    """The cutoff factor s(x) = max(1 - (||x - center|| / radius)^exponent, 0)."""
    return _cutoff(norm(as_vector(x) - spec.center, domain) / spec.radius, spec.exponent)


def perturbation_eval(P: BumpPerturbation, x) -> np.ndarray:
    """f(x): by disjointness at most one bump is active (the first one whose
    closed support holds x); zero elsewhere and at every bump center."""
    return P.rows(as_vector(x)[None])[0]


def perturbation_gradient_at_centers(P: BumpPerturbation, k: int) -> np.ndarray:
    """Exact gradient at the k-th bump center: the rank-one map u -> -<slope, u> direction."""
    bump = P.bumps[k]
    return -np.outer(bump.direction, bump.slope)


def build_perturbation(F: MappingModel, base: GraphPoint, schedule: moduli.ScaleSchedule,
                       K: int, rg_plus: moduli.ModulusEstimate | None = None) -> BumpPerturbation:
    """Full pipeline: witnesses -> relocation -> radii -> directions -> bumps.

    A vanishing coderivative constant short-circuits to the zero perturbation.
    """
    if rg_plus is None:
        rg_plus = moduli.rg_plus_estimate(F, base, schedule)
    if not math.isinf(rg_plus.value) and rg_plus.value <= DEGENERATE_TOL:
        return BumpPerturbation((), base.x, (), F.domain, F.codomain)
    witness = extract_witness(F, base, schedule, K, rg_plus=rg_plus)
    t_kept, rho, kept = select_radii(witness, base)
    bumps = []
    for pos, (idx, radius) in enumerate(zip(kept, rho), start=1):
        e = witness.entries[idx]
        k_eff = pos + TAIL_INDEX_OFFSET
        v = choose_direction(e.y_star, k_eff, F.codomain)
        bumps.append(BumpSpec(e.x, radius, e.x_star, v, k_eff))
    return BumpPerturbation(tuple(bumps), base.x, tuple(t_kept), F.domain, F.codomain)


def scale_perturbation(P: BumpPerturbation, alpha: float) -> BumpPerturbation:
    """Scale every slope by alpha in [0, 1]; the rank-one structure is preserved."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    bumps = tuple(replace(b, slope=alpha * b.slope) for b in P.bumps)
    return BumpPerturbation(bumps, P.base_point, P.t, P.domain, P.codomain)


def rank_one_structure_check(P: BumpPerturbation, trials: int, seed: int = 0) -> bool:
    """Inside each support f is collinear with the bump direction; outside it
    vanishes.  Collinearity is measured by the Euclidean residual against the
    direction line."""
    if not P.bumps:
        return True
    rng = generator(seed, 0xB0)
    n = P.domain.dimension
    per_bump = max(1, trials // (2 * len(P.bumps)))
    for bump in P.bumps:
        d_hat = bump.direction / float(np.linalg.norm(bump.direction))
        for _ in range(per_bump):
            u = rng.standard_normal(n)
            nu = norm(u, P.domain)
            if nu < 1e-12:
                continue
            x = bump.center + u / nu * bump.radius * float(rng.uniform(0.0, 0.98))
            val = perturbation_eval(P, x)
            resid = float(np.linalg.norm(val - np.dot(val, d_hat) * d_hat))
            if resid > 1e-10:
                return False
            x_out = bump.center + u / nu * bump.radius * float(rng.uniform(1.001, 1.2))
            if any(norm(x_out - b.center, P.domain) <= b.radius for b in P.bumps):
                continue
            if float(np.linalg.norm(perturbation_eval(P, x_out))) != 0.0:
                return False
    return True
