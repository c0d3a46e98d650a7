"""Acceptance suite: every criterion at its stated tolerance, one pass/fail
line per criterion (run with `pytest tests/test_acceptance.py -v -s`)."""

import json
import math
import time

import numpy as np
import pytest

import regradius as rr
from regradius.cli import parse_config, run_experiment

from helpers import (
    branch_map,
    diag_map,
    fast_schedule,
    full_schedule,
    identity_map,
    origin,
    parabola_map,
    random_conditioned_matrix,
)


def _report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}", flush=True)


# ---------------------------------------------------------------------------
# 1. singular-value agreement on conditioned random matrices
# ---------------------------------------------------------------------------

def test_criterion_1_eckart_young_agreement():
    sched = full_schedule()
    worst_rel = 0.0
    worst_time = 0.0
    ok = True
    details = []
    for seed in range(10):
        A, _ = random_conditioned_matrix(seed, n=3, cond_max=18.0)
        sigma = rr.sigma_min(A).sigma_min
        base = origin(3)
        F = rr.LinearMapping(A)
        t0 = time.time()
        rg = rr.rg_estimate(F, base, sched).value
        rg_plus = rr.rg_plus_estimate(F, base, sched).value
        elapsed = time.time() - t0
        rel_rg = abs(rg - sigma) / sigma
        rel_plus = abs(rg_plus - sigma) / sigma
        worst_rel = max(worst_rel, rel_rg, rel_plus)
        worst_time = max(worst_time, elapsed)
        if rel_rg > 0.10 or rel_plus > 0.10 or elapsed > 30.0:
            ok = False
            details.append(f"seed {seed}: rg rel {rel_rg:.3f}, rg+ rel {rel_plus:.3f}, {elapsed:.0f}s")
    _report(1, ok, f"10 seeded 3x3, worst rel err {worst_rel:.3f} (tol 0.10), "
                   f"worst time {worst_time:.1f}s (<30s) {details}")
    assert ok


# ---------------------------------------------------------------------------
# 2. modulus bounded by the coderivative constant on every test mapping
# ---------------------------------------------------------------------------

def test_criterion_2_bound_suite():
    cases = [
        ("identity-1d", identity_map(1), origin(1)),
        ("identity-2d", identity_map(2), origin(2)),
        ("diag(2,0.5)", diag_map(2.0, 0.5), origin(2)),
        ("abs-branches", branch_map(), origin(1)),
        ("parabola@(1,1)", parabola_map(), rr.GraphPoint([1.0], [1.0])),
    ]
    for seed in range(5):
        A, _ = random_conditioned_matrix(100 + seed, n=2, cond_max=10.0)
        cases.append((f"random-2x2-{seed}", rr.LinearMapping(A), origin(2)))
    sched = fast_schedule(7)
    violations = []
    for name, F, base in cases:
        rg = rr.rg_estimate(F, base, sched).value
        rg_plus = rr.rg_plus_estimate(F, base, sched).value
        if rg > rg_plus + 0.05 * max(1.0, rg_plus):
            violations.append(f"{name}: rg {rg:.4f} > rg+ {rg_plus:.4f}")
    ok = not violations
    _report(2, ok, f"{len(cases)} mappings, violations: {violations or 'none'}")
    assert ok


# ---------------------------------------------------------------------------
# 3. destabilization certificates
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def destabilization_reports():
    sched = full_schedule()
    out = {}
    for name, F, base in [("diag(2,0.5)", diag_map(2.0, 0.5), origin(2)),
                          ("identity-2d", identity_map(2), origin(2))]:
        t0 = time.time()
        rep = rr.verify_destabilization(F, base, sched, K=8)
        out[name] = (rep, time.time() - t0)
    return out


def test_criterion_3_destabilization(destabilization_reports):
    ok = True
    lines = []
    for name, (rep, elapsed) in destabilization_reports.items():
        target = rep.r_target
        lip_ok = 0.85 * target <= rep.lip_f <= 1.10 * target
        rg_ok = rep.rg_perturbed.value < 0.10 * target
        time_ok = elapsed < 60.0
        ok = ok and lip_ok and rg_ok and time_ok
        lines.append(f"{name}: lip {rep.lip_f:.4f} vs rg+ {target:.4f} "
                     f"(window [{0.85*target:.3f},{1.10*target:.3f}]), "
                     f"rg(F+f) {rep.rg_perturbed.value:.5f} < {0.10*target:.4f}, {elapsed:.0f}s")
    _report(3, ok, "; ".join(lines))
    assert ok


# ---------------------------------------------------------------------------
# 4. interpolation of the perturbation bound
# ---------------------------------------------------------------------------

def test_criterion_4_interpolation():
    sched = full_schedule()
    F, base = diag_map(2.0, 0.5), origin(2)
    ok = True
    lines = []
    rg_values = {}
    for r in (0.0, 0.25, 0.5):
        rep = rr.verify_interpolation(F, base, r, sched, K=8)
        rg_pert = rep.rg_perturbed.value
        rg_values[r] = rg_pert
        rg_ok = abs(rg_pert - (0.5 - r)) <= 0.075
        lip_ok = abs(rep.lip_f - r) <= 0.075
        ok = ok and rg_ok and lip_ok
        lines.append(f"r={r}: rg(F+af) {rg_pert:.4f} (target {0.5 - r}), lip {rep.lip_f:.4f}")
    # scaling monotonicity at fixed witness
    mono = rg_values[0.0] >= rg_values[0.25] - 0.05 and rg_values[0.25] >= rg_values[0.5] - 0.05
    ok = ok and mono
    _report(4, ok, "; ".join(lines) + f"; monotone: {mono}")
    assert ok


# ---------------------------------------------------------------------------
# 5. perturbed-modulus lower bound on seeded pairs
# ---------------------------------------------------------------------------

def test_criterion_5_perturbation_bound_suite():
    sched = fast_schedule(6, samples_per_scale=100)
    rng = np.random.default_rng(2024)
    violations = []
    worst = -math.inf
    for trial in range(20):
        kind = trial % 4
        if kind == 0:
            F, base, n = identity_map(1), origin(1), 1
        elif kind == 1:
            F, base, n = identity_map(2), origin(2), 2
        elif kind == 2:
            F, base, n = diag_map(1.5, 0.8), origin(2), 2
        else:
            A, _ = random_conditioned_matrix(300 + trial, n=2, cond_max=4.0)
            F, base, n = rr.LinearMapping(A), origin(2), 2
        sigma = rr.sigma_min(np.asarray(F.matrix)).sigma_min
        if trial % 2 == 0:
            C = rng.standard_normal((n, n))
            C *= 0.35 * sigma / max(rr.operator_norm(C, F.domain, F.codomain), 1e-12)
            f = lambda x, C=C: C @ x
        else:
            a = float(rng.uniform(0.1, 0.35)) * sigma
            w = float(rng.uniform(0.5, 1.5))
            f = lambda x, a=a, w=w: (a / w) * np.sin(w * x)
        res = rr.verify_lyusternik_graves(F, base, f, sched)
        worst = max(worst, res.residual - 0.05 * max(1.0, res.rg))
        if not res.passed:
            violations.append(f"trial {trial}: residual {res.residual:.4f} rg {res.rg:.3f}")
    ok = not violations
    _report(5, ok, f"20 seeded pairs, worst slack {worst:.4f} (<=0), "
                   f"violations: {violations or 'none'}")
    assert ok


# ---------------------------------------------------------------------------
# 6. bump property suite
# ---------------------------------------------------------------------------

def test_criterion_6_bump_properties(destabilization_reports):
    sched = full_schedule()
    F, base = diag_map(2.0, 0.5), origin(2)
    P = rr.build_perturbation(F, base, sched, K=8)
    dom = P.domain
    rng = np.random.default_rng(77)
    failures = []

    for i in range(len(P.bumps)):
        for j in range(i + 1, len(P.bumps)):
            bi, bj = P.bumps[i], P.bumps[j]
            if not rr.norm(bi.center - bj.center, dom) > bi.radius + bj.radius:
                failures.append(f"supports {i},{j} overlap")

    for k, b in enumerate(P.bumps):
        if rr.bump_value(b, b.center, dom) != 1.0:
            failures.append(f"bump {k} center value")
        # boundary displacement that survives the floating-point round-trip
        # (adding the radius to a center coordinate can shave an ulp)
        e1 = np.zeros(dom.dimension)
        e1[0] = b.radius
        x = b.center + e1
        while rr.norm(x - b.center, dom) < b.radius:
            e1[0] = np.nextafter(e1[0], np.inf)
            x = b.center + e1
        if rr.norm(x - b.center, dom) > b.radius * (1.0 + 1e-12):
            failures.append(f"bump {k} boundary displacement construction")
        if rr.bump_value(b, x, dom) != 0.0:
            failures.append(f"bump {k} boundary value")
        if float(np.max(np.abs(rr.perturbation_eval(P, b.center)))) > 1e-12:
            failures.append(f"bump {k} center eval")

        cap = (1.0 + 1.0 / b.k) * rr.dual_norm(b.slope, dom) * (1.0 + 1e-8)
        us = rng.standard_normal((10000, 2, dom.dimension))
        worst_quot = 0.0
        for u_pair in us:
            xs = []
            for u in u_pair:
                nu = rr.norm(u, dom)
                if nu < 1e-12:
                    break
                xs.append(b.center + u / nu * b.radius * rng.uniform(0.0, 1.0))
            if len(xs) < 2:
                continue
            sep = rr.norm(xs[0] - xs[1], dom)
            if sep < 1e-15:
                continue
            quot = rr.norm(rr.perturbation_eval(P, xs[0]) - rr.perturbation_eval(P, xs[1]),
                           P.codomain) / sep
            worst_quot = max(worst_quot, quot)
        if worst_quot > cap:
            failures.append(f"bump {k} ratio {worst_quot:.6f} > cap {cap:.6f}")

        M = rr.perturbation_gradient_at_centers(P, k)
        J = rr.finite_difference_jacobian(P, b.center, 1e-5 * b.radius)
        if float(np.max(np.abs(J - M))) > 1e-4:
            failures.append(f"bump {k} gradient fd")

    if not rr.rank_one_structure_check(P, trials=1000, seed=5):
        failures.append("rank-one structure")

    ok = not failures
    _report(6, ok, f"{len(P.bumps)} bumps; failures: {failures or 'none'}")
    assert ok


# ---------------------------------------------------------------------------
# 7. relocation of base-point witnesses
# ---------------------------------------------------------------------------

def test_criterion_7_ekeland_relocation():
    from regradius.perturbation import WitnessEntry

    cases = []
    cases.append(("identity-1d", identity_map(1), origin(1), [1.0], [1.0], 0.05))
    cases.append(("identity-2d", identity_map(2), origin(2),
                  [0.6, 0.8], [0.6, 0.8], 0.04))
    cases.append(("diag(2,0.5)", diag_map(2.0, 0.5), origin(2),
                  [0.0, 1.0], [0.0, 0.5], 0.05))
    A, _ = random_conditioned_matrix(9, n=3, cond_max=6.0)
    res = rr.sigma_min(A)
    cases.append(("random-3x3", rr.LinearMapping(A), origin(3),
                  res.u_min, A.T @ res.u_min, 0.03))
    cases.append(("parabola@(1,1)", parabola_map(), rr.GraphPoint([1.0], [1.0]),
                  [1.0], [2.0], 0.05))

    failures = []
    for name, F, base, y_star, x_star, eps in cases:
        sample = rr.sample_graph(F, base, 0.4, 150, seed=13)
        entry = WitnessEntry(base.x, base.y, eps, y_star, x_star, k=2)
        try:
            rel, diag = rr.relocate_witness_ekeland(sample, base, entry)
        except Exception as exc:  # noqa: BLE001
            failures.append(f"{name}: {exc}")
            continue
        at = rr.GraphPoint(rel.x, rel.y)
        checks = {
            "moved off base": rr.norm(rel.x - base.x, F.domain) > 0.0,
            "membership": rr.brute_force_membership(
                sample, at, (rel.x_star, -rel.y_star), rel.eps,
                test_radius=max(diag.rho / 4.0, 1e-9)),
            "distance bound": diag.moved <= diag.budget + 1e-15,
            "steps bound": diag.steps <= len(sample.points),
        }
        for label, good in checks.items():
            if not good:
                failures.append(f"{name}: {label}")
    ok = not failures
    _report(7, ok, f"5 synthetic graphs; failures: {failures or 'none'}")
    assert ok


# ---------------------------------------------------------------------------
# 8. oracle cross-checks
# ---------------------------------------------------------------------------

def test_criterion_8_oracle_cross_checks():
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(5000 + seed)
        n = int(rng.integers(2, 5))
        A = rng.standard_normal((n, n))
        s_j = rr.sigma_min(A).sigma_min
        s_b = rr.sigma_min_bisect(A)
        worst = max(worst, abs(s_j - s_b) / max(s_j, 1e-30))
    svd_ok = worst <= 1e-8

    exact_ok = True
    sched = fast_schedule(5)
    for F, base in [(identity_map(), origin()), (diag_map(2.0, 0.5), origin(2)),
                    (branch_map(), origin())]:
        log = []
        est = rr.rg_estimate(F, base, sched, pair_log=log)
        if rr.brute_force_rg_pairs(F, log) != est.value:
            exact_ok = False
    ok = svd_ok and exact_ok
    _report(8, ok, f"50 matrices, worst svd rel gap {worst:.2e} (<=1e-8); "
                   f"brute-force rg agreement exact: {exact_ok}")
    assert ok


# ---------------------------------------------------------------------------
# 9. determinism of experiment reports
# ---------------------------------------------------------------------------

def _report_fingerprint(path):
    doc = json.loads(path.read_text())
    doc.pop("timestamp")
    return json.dumps(doc, sort_keys=True)


def test_criterion_9_determinism(tmp_path):
    doc = {
        "mapping": {"kind": "linear", "matrix": [[2.0, 0.0], [0.0, 0.5]]},
        "base_point": {"x": [0.0, 0.0], "y": [0.0, 0.0]},
        "norms": {"domain_p": 2, "range_p": 2},
        "schedule": {"geometric": {"levels": 5}, "samples_per_scale": 80,
                     "refine_rounds": 5},
        "tasks": ["rg", "rg_plus", "bounds",
                  {"name": "strong_check", "expect": True}],
        "seed": 11,
        "K": 4,
    }
    prints = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code = run_experiment(parse_config(doc), out_dir=str(out))
        assert code == 0
        prints.append(_report_fingerprint(out / "report.json"))
    ok = prints[0] == prints[1]
    _report(9, ok, f"repeat runs identical: {ok}")
    assert ok
