"""Radius verification: destabilization certificates, interpolation of the
perturbation bound, the perturbed-modulus lower bound, and the
single-valued-localization probe for strong regularity."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import moduli, perturbation
from .mappings import GraphPoint, MappingModel, add_perturbation, sample_graph
from .spaces import as_vector, ball_sample, generator, norm, norms

#: relative tolerance for the near-equality flag between the two bounds
BOUND_EQUALITY_REL = 0.10

#: destabilization certificate: perturbed modulus below this fraction of the target
DESTABILIZED_FRACTION = 0.10

#: lip budget for the constructed destabilizer, relative to the target
LIP_BUDGET_FACTOR = 1.10
LIP_FLOOR_FACTOR = 0.85

#: interpolation tolerance, relative to the unperturbed modulus
INTERPOLATION_REL = 0.15

#: perturbation-bound residual tolerance
PERTURBATION_BOUND_REL = 0.05


@dataclass
class RadiusReport:
    rg: moduli.ModulusEstimate | None
    rg_plus: moduli.ModulusEstimate | None
    lip_f: float
    rg_perturbed: moduli.ModulusEstimate | None
    r_target: float
    residuals: dict[str, float] = field(default_factory=dict)
    verdicts: dict[str, bool] = field(default_factory=dict)

    def __post_init__(self):
        if set(self.residuals) != set(self.verdicts):
            raise ValueError("every verdict needs a matching residual")

    @property
    def all_pass(self) -> bool:
        return all(self.verdicts.values())

    def to_json(self) -> dict:
        return {
            "rg": self.rg.to_json() if self.rg else None,
            "rg_plus": self.rg_plus.to_json() if self.rg_plus else None,
            "lip_f": self.lip_f,
            "rg_perturbed": self.rg_perturbed.to_json() if self.rg_perturbed else None,
            "r_target": self.r_target,
            "residuals": dict(sorted(self.residuals.items())),
            "verdicts": dict(sorted(self.verdicts.items())),
        }


class RadiusBounds(NamedTuple):
    lower: float
    upper: float
    near_equality: bool
    rg: moduli.ModulusEstimate
    rg_plus: moduli.ModulusEstimate


def radius_bounds(F: MappingModel, base: GraphPoint, schedule: moduli.ScaleSchedule) -> RadiusBounds:
    """Bracket the radius: the regularity modulus from below, the coderivative
    constant from above, flagging near-equality once both trails stabilize."""
    rg = moduli.rg_estimate(F, base, schedule)
    rg_plus = moduli.rg_plus_estimate(F, base, schedule)
    lo, hi = rg.value, rg_plus.value
    near = False
    if rg.stabilized and rg_plus.stabilized and not math.isinf(hi):
        near = abs(hi - lo) <= BOUND_EQUALITY_REL * max(abs(hi), abs(lo), 1e-30)
    return RadiusBounds(lo, hi, near, rg, rg_plus)


def _verdict(residuals: dict[str, float]) -> dict[str, bool]:
    return {k: v <= 0.0 for k, v in residuals.items()}


def verify_destabilization(F: MappingModel, base: GraphPoint,
                           schedule: moduli.ScaleSchedule, K: int) -> RadiusReport:
    """Build the bump perturbation at full strength and certify that the
    perturbed modulus collapses while the Lipschitz cost stays within budget."""
    rg_plus = moduli.rg_plus_estimate(F, base, schedule)
    target = rg_plus.value
    rg = moduli.rg_estimate(F, base, schedule)
    if target <= perturbation.DEGENERATE_TOL:
        residuals = {"lip_budget": 0.0, "destabilized": 0.0, "lip_floor": 0.0}
        return RadiusReport(rg, rg_plus, 0.0, rg, target, residuals, _verdict(residuals))

    P = perturbation.build_perturbation(F, base, schedule, K, rg_plus=rg_plus)
    lip = moduli.lip_estimate(P, base.x, schedule, F.domain, F.codomain).value
    G = add_perturbation(F, P, 1.0, base)
    rg_pert = moduli.rg_estimate(G, base, schedule)
    residuals = {
        "lip_budget": lip - LIP_BUDGET_FACTOR * target,
        "destabilized": rg_pert.value - DESTABILIZED_FRACTION * target,
        "lip_floor": LIP_FLOOR_FACTOR * target - lip,
    }
    return RadiusReport(rg, rg_plus, lip, rg_pert, target, residuals, _verdict(residuals))


def verify_interpolation(F: MappingModel, base: GraphPoint, r: float,
                         schedule: moduli.ScaleSchedule, K: int) -> RadiusReport:
    """Scale the destabilizer to Lipschitz cost r and check that the perturbed
    modulus drops by exactly r, within a tolerance relative to the modulus."""
    rg = moduli.rg_estimate(F, base, schedule)
    if math.isinf(rg.value):
        raise ValueError("regularity modulus is infinite; interpolation undefined")
    if not 0.0 <= r <= rg.value * (1.0 + 1e-9):
        raise ValueError(f"r must lie in [0, {rg.value:.6g}], got {r}")
    tol = INTERPOLATION_REL * rg.value

    if r == 0.0:
        residuals = {"rg_target": 0.0 - tol, "lip_target": 0.0 - tol}
        return RadiusReport(rg, None, 0.0, rg, 0.0, residuals, _verdict(residuals))

    alpha = min(1.0, r / rg.value)
    P = perturbation.build_perturbation(F, base, schedule, K)
    P_scaled = perturbation.scale_perturbation(P, alpha)
    lip = moduli.lip_estimate(P_scaled, base.x, schedule, F.domain, F.codomain).value
    G = add_perturbation(F, P_scaled, 1.0, base)
    rg_pert = moduli.rg_estimate(G, base, schedule)
    residuals = {
        "rg_target": abs(rg_pert.value - (rg.value - r)) - tol,
        "lip_target": abs(lip - r) - tol,
    }
    return RadiusReport(rg, None, lip, rg_pert, r, residuals, _verdict(residuals))


class PerturbationBoundResult(NamedTuple):
    residual: float
    passed: bool
    rg: float
    lip: float
    rg_perturbed: float


def verify_lyusternik_graves(F: MappingModel, base: GraphPoint,
                             f: Callable[[np.ndarray], np.ndarray],
                             schedule: moduli.ScaleSchedule) -> PerturbationBoundResult:
    """Signed residual of the perturbed-modulus lower bound
    rg(F + f) >= rg(F) - lip(f); positive residuals are violations."""
    fx = as_vector(f(base.x))
    if norm(fx, F.codomain) > 1e-10:
        raise ValueError("perturbation must vanish at the base point")
    rg = moduli.rg_estimate(F, base, schedule).value
    lip = moduli.lip_estimate(f, base.x, schedule, F.domain, F.codomain).value
    G = add_perturbation(F, f, 1.0, base)
    rg_pert = moduli.rg_estimate(G, base, schedule).value
    residual = (rg - lip) - rg_pert
    tol = PERTURBATION_BOUND_REL * max(1.0, rg)
    return PerturbationBoundResult(residual, residual <= tol, rg, lip, rg_pert)


def strong_regularity_localization_check(F: MappingModel, base: GraphPoint,
                                         radius: float, grid: int,
                                         seed: int = 0) -> bool:
    """Single-valued localization probe: inverse slices over a grid of range
    points must each form one cluster of diameter at most radius / 20."""
    cluster_tol = radius / 20.0
    band = radius / 200.0
    sample = sample_graph(F, base, 2.0 * radius, max(grid * 6, 400), seed=seed)
    rng = generator(seed, 0x51)
    ys: list[np.ndarray] = []
    in_ball = sample.ys[norms(sample.ys - base.y, F.codomain) <= radius]
    for _ in range(grid):
        if len(in_ball) and rng.random() < 0.7:
            ys.append(in_ball[int(rng.integers(0, len(in_ball)))])
        else:
            ys.append(base.y + ball_sample(F.codomain, radius, 1, rng)[0])
    x_near = norms(sample.xs - base.x, F.domain) <= radius
    for y in ys:
        xs = sample.xs[(norms(sample.ys - y, F.codomain) <= band) & x_near]
        i, j = np.triu_indices(len(xs), 1)
        if len(i) and norms(xs[i] - xs[j], F.domain).max() > cluster_tol:
            return False
    return True
