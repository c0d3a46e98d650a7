"""Workload inputs, mapping construction, and one round of checked operations.

Inputs are plain JSON documents made from the workload seed; the program
sees only these documents, loaded through `regradius.load_mapping`.  A
round runs a fixed list of operations through the public API and checks
each output against the references in `reference.py` or against a
property the method must have.  Every round of a run repeats the same
operations on the same inputs, so per-round figures and counts repeat.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import reference

#: relative tolerance of every estimate against its reference (acceptance criterion 1)
REL_TOL = 0.10
#: an rg estimate of a linear map is an infimum of exact ratios, so it may
#: fall below the exact modulus by round-off only
ROUND_OFF = 1e-6

WORKLOADS = ("euclid-estimate", "destabilize", "polyhedral", "stored-graph")


def _p_json(p: float):
    return "inf" if math.isinf(p) else p


def _p_value(v) -> float:
    return math.inf if v == "inf" else float(v)


def _criterion_1_matrix(k: int, n: int = 3, cond_max: float = 18.0) -> np.ndarray:
    """Matrix k of acceptance criterion 1, drawn the way the test suite draws it."""
    rng = np.random.default_rng(k)
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    inner = rng.uniform(0.3, 0.9, size=n - 2)
    s = np.concatenate(([1.0], np.sort(inner)[::-1], [rng.uniform(1.0 / cond_max, 0.25)]))
    return U @ np.diag(s) @ V.T


def _linear(name: str, A: np.ndarray, domain_p: float = 2.0, range_p: float = 2.0) -> dict:
    return {"name": name, "doc": {"kind": "linear", "matrix": np.asarray(A).tolist()},
            "domain_p": _p_json(domain_p), "range_p": _p_json(range_p),
            "base": {"x": [0.0] * A.shape[1], "y": [0.0] * A.shape[0]}}


def make_inputs(workload: str, seed: int) -> dict:
    """The workload's input documents; the same seed gives the same documents."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "euclid-estimate":
        # one of the ten seeded matrices of acceptance criterion 1: random
        # rotations around singular values (1, U(0.3, 0.9), U(1/18, 0.25)).
        # Other draws of the same family make rg+ miss sigma_min on some
        # seeds (CHANGES.md), which a benchmark run cannot count alike on
        # every seed, so the draw stays within the specified set.
        A = _criterion_1_matrix(seed % 10)
        return {"maps": [_linear("A", A)], "schedule": {"geometric": 9}}
    if workload == "destabilize":
        # the certificate of acceptance criterion 3 on a 6-level schedule; the
        # schedule seed stays 0 because on this short schedule the certificate
        # depends on it (README.md), so these inputs do not depend on the seed
        return {"maps": [_linear("F", np.diag([2.0, 0.5]))], "K": 5,
                "schedule": {"geometric": 6, "samples_per_scale": 80, "eval_points": 4,
                             "directions": 16, "refine_rounds": 5, "refine_samples": 24}}
    if workload == "polyhedral":
        square = np.diag([rng.uniform(1.5, 2.5), rng.uniform(0.4, 0.8)]) \
            + rng.uniform(-0.3, 0.3, (2, 2)) * (1.0 - np.eye(2))
        radii = [0.3, 0.12, 0.048]
        # the wide map does not depend on the seed: its rg fails on every run
        return {"maps": [_linear("square", square, 1.0, math.inf),
                         _linear("wide", np.array([[2.0, 0.5]]), 1.0, 1.0)],
                "schedule": {"radii": radii, "epsilons": [0.02 * r for r in radii],
                             "samples_per_scale": 40, "eval_points": 1, "directions": 2}}
    if workload == "stored-graph":
        A = np.array([[2.0, 0.3], [0.1, 0.5]])
        n = 300
        angle = rng.uniform(0.0, 2.0 * np.pi, n)
        # radius uniform in [0, 0.6]: the points thicken toward the base point,
        # so every scale has neighbors on all sides of its evaluation points
        r = 0.6 * rng.uniform(0.0, 1.0, n)
        xs = np.column_stack([r * np.cos(angle), r * np.sin(angle)])
        ys = xs @ A.T
        radius = float(np.max(np.linalg.norm(xs, axis=1) + np.linalg.norm(ys, axis=1)))
        points = [{"x": [0.0, 0.0], "y": [0.0, 0.0]}]
        points += [{"x": x.tolist(), "y": y.tolist()} for x, y in zip(xs, ys)]
        doc = {"kind": "graph", "points": points, "base": {"x": [0.0, 0.0], "y": [0.0, 0.0]},
               "radius": radius}
        radii = [0.9, 0.6, 0.4]
        return {"maps": [{"name": "G", "doc": doc, "domain_p": 2.0, "range_p": 2.0,
                          "base": doc["base"]}],
                "generator": A.tolist(),
                "schedule": {"radii": radii, "epsilons": [0.02 * r for r in radii],
                             "samples_per_scale": 40}}
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class Setup:
    """What the program builds from the inputs before any timed round."""

    maps: dict
    bases: dict
    schedule: object


def build(inputs: dict) -> Setup:
    """Build the workload's mappings and schedule through the public API."""
    import regradius as rr

    maps, bases = {}, {}
    for spec in inputs["maps"]:
        dim_y, dim_x = len(spec["base"]["y"]), len(spec["base"]["x"])
        domain = rr.NormSpec(dim_x, _p_value(spec["domain_p"]))
        codomain = rr.NormSpec(dim_y, _p_value(spec["range_p"]))
        maps[spec["name"]] = rr.load_mapping(spec["doc"], domain, codomain)
        bases[spec["name"]] = rr.GraphPoint(spec["base"]["x"], spec["base"]["y"])
    sched = dict(inputs["schedule"])
    if "geometric" in sched:
        schedule = rr.ScaleSchedule.geometric(sched.pop("geometric"), **sched)
    else:
        schedule = rr.ScaleSchedule(radii=tuple(sched.pop("radii")),
                                    epsilons=tuple(sched.pop("epsilons")), **sched)
    return Setup(maps, bases, schedule)


def references(inputs: dict) -> dict:
    """Exact values the estimates are checked against, computed without regradius."""
    if "generator" in inputs:  # a stored graph of a known linear map
        return {"G": reference.sigma_min(inputs["generator"])}
    out = {}
    for spec in inputs["maps"]:
        A = np.asarray(spec["doc"]["matrix"], dtype=float)
        domain_p, range_p = _p_value(spec["domain_p"]), _p_value(spec["range_p"])
        if domain_p == 2.0 and range_p == 2.0:
            out[spec["name"]] = reference.sigma_min(A)
        elif A.shape[0] == A.shape[1]:
            out[spec["name"]] = 1.0 / reference.inverse_operator_norm(A, domain_p, range_p)
        else:
            out[spec["name"]] = reference.exact_rg_l1_domain(A, range_p)
    return out


@dataclass
class Op:
    """One checked estimate or certificate."""

    label: str
    kind: str  # "rg", "rg_plus" or "other": the end-to-end metric its time goes to
    seconds: float
    value: float
    ok: bool
    detail: str
    known_fault: bool = False
    rel_err: float | None = None  # against the reference, where the op has one


def _timed(fn, *args, **kwargs):
    t0 = perf_counter()
    out = fn(*args, **kwargs)
    return out, perf_counter() - t0


def _rel_err(value: float, ref: float) -> float:
    return abs(value - ref) / ref


def _rg_op(label, est, seconds, ref, known_fault=False) -> Op:
    err = _rel_err(est.value, ref)
    ok = err <= REL_TOL and est.value >= ref * (1.0 - ROUND_OFF)
    return Op(label, "rg", seconds, est.value, ok,
              f"{est.value:.6g} vs exact {ref:.6g}, rel err {err:.2e}", known_fault, err)


def _rg_plus_op(label, est, seconds, ref) -> Op:
    """rg+ within REL_TOL of the exact modulus, and no scale of its trail
    reading 0 or +inf unless the estimate is flagged low_confidence: the
    modulus of a regular map is positive and finite at every scale."""
    err = _rel_err(est.value, ref)
    trail = [v for _, v in est.per_scale]
    unflagged = [v for v in trail if not 0.0 < v < math.inf and not est.low_confidence]
    return Op(label, "rg_plus", seconds, est.value, err <= REL_TOL and not unflagged,
              f"{est.value:.6g} vs exact {ref:.6g}, rel err {err:.2e}, "
              f"trail {[round(v / ref, 4) for v in trail]} x exact, "
              f"low_confidence {est.low_confidence}", rel_err=err)


def _bumps_certified(P, base_x: np.ndarray) -> tuple[bool, str]:
    """P vanishes at the base point and its bump supports are pairwise disjoint,
    both read from the bump data with Euclidean distances (the domain norm)."""
    bumps = P.bumps
    outside = all(np.linalg.norm(base_x - b.center) >= b.radius for b in bumps)
    disjoint = all(np.linalg.norm(a.center - b.center) > a.radius + b.radius
                   for i, a in enumerate(bumps) for b in bumps[i + 1:])
    return bool(bumps) and outside and disjoint, \
        f"{len(bumps)} bumps, base outside supports {outside}, disjoint {disjoint}"


def run_round(workload: str, setup: Setup, refs: dict, inputs: dict) -> list[Op]:
    """One round of the workload's operations; only program calls are timed."""
    from regradius import add_perturbation, moduli, perturbation

    sched = setup.schedule
    if workload in ("euclid-estimate", "stored-graph"):
        (name,) = setup.maps
        F, base, ref = setup.maps[name], setup.bases[name], refs[name]
        rg, t_rg = _timed(moduli.rg_estimate, F, base, sched)
        rg_plus, t_plus = _timed(moduli.rg_plus_estimate, F, base, sched)
        return [_rg_op(f"rg({name})", rg, t_rg, ref),
                _rg_plus_op(f"rg+({name})", rg_plus, t_plus, ref)]

    if workload == "polyhedral":
        ops = []
        sq, wide = setup.maps["square"], setup.maps["wide"]
        est, t = _timed(moduli.rg_estimate, sq, setup.bases["square"], sched)
        ops.append(_rg_op("rg(square)", est, t, refs["square"]))
        # fails on every run: the affine p-distance grid overestimates d(x, F^-1(y))
        est, t = _timed(moduli.rg_estimate, wide, setup.bases["wide"], sched)
        ops.append(_rg_op("rg(wide)", est, t, refs["wide"], known_fault=True))
        est, t = _timed(moduli.rg_plus_estimate, wide, setup.bases["wide"], sched)
        ops.append(_rg_plus_op("rg+(wide)", est, t, refs["wide"]))
        return ops

    if workload == "destabilize":
        F, base, ref = setup.maps["F"], setup.bases["F"], refs["F"]
        rg_plus, t_plus = _timed(moduli.rg_plus_estimate, F, base, sched)
        rg, t_rg = _timed(moduli.rg_estimate, F, base, sched)
        target = rg_plus.value
        P, t_build = _timed(perturbation.build_perturbation, F, base, sched, inputs["K"],
                            rg_plus=rg_plus)
        G, t_add = _timed(add_perturbation, F, P, 1.0, base)
        lip, t_lip = _timed(moduli.lip_estimate, P, base.x, sched, F.domain, F.codomain)
        rg_pert, t_pert = _timed(moduli.rg_estimate, G, base, sched)
        certified, detail = _bumps_certified(P, base.x)
        ratio = lip.value / target
        return [
            _rg_plus_op("rg+(F)", rg_plus, t_plus, ref),
            _rg_op("rg(F)", rg, t_rg, ref),
            Op("build_perturbation", "other", t_build + t_add, float(len(P.bumps)), certified,
               detail),
            Op("lip(P)", "other", t_lip, lip.value, 0.85 <= ratio <= 1.10,
               f"lip(P) = {ratio:.4f} rg+, window [0.85, 1.10]"),
            Op("rg(F+P)", "rg", t_pert, rg_pert.value, rg_pert.value < 0.10 * target,
               f"rg(F+P) = {rg_pert.value / target:.4f} rg+, limit 0.10"),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def import_program(src: Path):
    """Import regradius from the checkout's src/ directory and nowhere else."""
    sys.path.insert(0, str(src))
    import regradius

    if Path(regradius.__file__).resolve().parent != (src / "regradius").resolve():
        raise ImportError(f"regradius was imported from {regradius.__file__}, not from {src}")
    return regradius
