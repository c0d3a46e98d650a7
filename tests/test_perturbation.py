import dataclasses
import json
import math

import numpy as np
import pytest

import regradius as rr
from regradius import perturbation as pert
from regradius.perturbation import (
    BumpPerturbation,
    BumpSpec,
    DegenerateModulusError,
    TAIL_INDEX_OFFSET,
    WitnessEntry,
    WitnessSequence,
)

from helpers import branch_map, diag_map, fast_schedule, forbid_oracle, identity_map, origin


@pytest.fixture(scope="module")
def diag_setup():
    F = diag_map(2.0, 0.5)
    base = origin(2)
    sched = fast_schedule(8)
    rg_plus = rr.rg_plus_estimate(F, base, sched)
    return F, base, sched, rg_plus


@pytest.fixture(scope="module")
def diag_bumps(diag_setup):
    F, base, sched, rg_plus = diag_setup
    return rr.build_perturbation(F, base, sched, K=6, rg_plus=rg_plus)


def test_extract_witness_diag(diag_setup):
    F, base, sched, rg_plus = diag_setup
    ws = rr.extract_witness(F, base, sched, K=5, rg_plus=rg_plus)
    assert len(ws.entries) == 5
    for n in ws.slope_norms():
        assert n == pytest.approx(0.5, rel=0.10)
    eps = [e.eps for e in ws.entries]
    assert all(b < a for a, b in zip(eps, eps[1:]))
    assert ws.gamma > max(ws.slope_norms())


def test_extract_witness_identity():
    F = identity_map()
    base = origin()
    sched = fast_schedule(6)
    ws = rr.extract_witness(F, base, sched, K=3)
    for n in ws.slope_norms():
        assert n == pytest.approx(1.0, rel=0.10)


def test_extract_witness_degenerate_constant_map():
    F = rr.LinearMapping([[0.0]])
    with pytest.raises(DegenerateModulusError):
        rr.extract_witness(F, origin(), fast_schedule(6), K=3)


def _entries_at_distances(ts):
    entries = []
    eps = 0.1
    for k, t in enumerate(ts, start=1):
        entries.append(WitnessEntry([t], [t], eps, [1.0], [1.0], k=k))
        eps *= 0.5
    gamma = 1.05 * (1.0 + 1.0 / (1 + TAIL_INDEX_OFFSET))
    return WitnessSequence(tuple(entries), gamma, 1.0, rr.NormSpec(1), rr.NormSpec(1))


def test_select_radii_keeps_halving_sequence():
    ws = _entries_at_distances([1.0, 0.4, 0.1])
    t, rho, kept = rr.select_radii(ws, origin())
    assert kept == [0, 1, 2]
    assert t == [1.0, 0.4, 0.1]
    assert rho == pytest.approx([0.3, 0.15, 0.0375])


def test_select_radii_drops_slow_decay():
    ws = _entries_at_distances([1.0, 0.6, 0.1])
    t, rho, kept = rr.select_radii(ws, origin())
    assert kept == [0, 2]
    assert t == [1.0, 0.1]


def test_select_radii_rho_strictly_decreasing():
    ws = _entries_at_distances([1.0, 0.45, 0.2, 0.09, 0.02])
    _, rho, _ = rr.select_radii(ws, origin())
    assert all(b < a for a, b in zip(rho, rho[1:]))


def test_choose_direction_euclidean():
    v = rr.choose_direction([0.6, 0.8], 5, rr.NormSpec(2))
    assert np.allclose(v, [0.6, 0.8])
    assert rr.pairing([0.6, 0.8], v) == pytest.approx(1.0)


def test_choose_direction_polyhedral():
    # range norm p=1: dual is the max norm, norming vectors are ball vertices
    v = rr.choose_direction([1.0, 0.0], 2, rr.NormSpec(2, 1))
    assert np.allclose(v, [1.0, 0.0])
    assert rr.pairing([1.0, 0.0], v) > 0.5
    # range norm p=inf: dual is the sum norm, norming vector is a sign vertex
    v2 = rr.choose_direction([0.5, -0.5], 3, rr.NormSpec(2, math.inf))
    assert rr.pairing([0.5, -0.5], v2) == pytest.approx(1.0)
    assert rr.norm(v2, rr.NormSpec(2, math.inf)) == 1.0


def test_choose_direction_pairing_bound():
    rng = np.random.default_rng(4)
    for k in (1, 2, 5, 40):
        y = rng.standard_normal(3)
        y = y / np.linalg.norm(y)
        v = rr.choose_direction(y, k, rr.NormSpec(3))
        assert rr.pairing(y, v) > 1.0 - 1.0 / k


def test_bump_value_examples():
    spec = BumpSpec([0.0, 0.0], 0.5, [1.0, 0.0], [0.0, 1.0], k=1)
    dom = rr.NormSpec(2)
    assert rr.bump_value(spec, [0.0, 0.0], dom) == 1.0
    assert rr.bump_value(spec, [0.5, 0.0], dom) == 0.0
    assert rr.bump_value(spec, [0.25, 0.0], dom) == pytest.approx(0.75)


def _single_bump():
    # radius 0.2 bump at (1, 0); base point placed so radius = 3/8 of the
    # center distance, matching the closing rule for a single bump
    t = 0.2 / 0.375
    return BumpPerturbation(
        (BumpSpec([1.0, 0.0], 0.2, [1.0, 0.0], [0.0, 1.0], k=1),),
        [1.0 - t, 0.0], (t,), rr.NormSpec(2), rr.NormSpec(2),
    )


def test_perturbation_eval_examples():
    P = _single_bump()
    assert np.array_equal(P([5.0, 5.0]), [0.0, 0.0])
    assert np.array_equal(P([1.0, 0.0]), [0.0, 0.0])
    val = P([1.1, 0.0])
    assert np.allclose(val, [0.0, -0.075])
    assert np.array_equal(P(P.base_point), [0.0, 0.0])


def test_gradient_at_centers():
    P = _single_bump()
    M = rr.perturbation_gradient_at_centers(P, 0)
    assert np.allclose(M, [[0.0, 0.0], [-1.0, 0.0]])
    u = np.array([0.3, 9.9])
    assert np.allclose(M @ u, [0.0, -0.3])
    h = 1e-5 * P.bumps[0].radius
    J = rr.finite_difference_jacobian(P, P.bumps[0].center, h)
    assert np.max(np.abs(J - M)) <= 1e-4
    assert rr.operator_norm(M, P.domain, P.codomain) == pytest.approx(1.0)


def test_rank_one_structure_check_manual():
    assert rr.rank_one_structure_check(_single_bump(), trials=200, seed=0)


def test_scale_perturbation():
    P = _single_bump()
    zero = rr.scale_perturbation(P, 0.0)
    half = rr.scale_perturbation(P, 0.5)
    same = rr.scale_perturbation(P, 1.0)
    x = np.array([1.1, 0.0])
    assert np.array_equal(zero(x), [0.0, 0.0])
    assert np.allclose(half(x), 0.5 * P(x))
    assert np.array_equal(same(x), P(x))
    with pytest.raises(ValueError):
        rr.scale_perturbation(P, 1.5)


def test_build_perturbation_invariants(diag_bumps):
    P = diag_bumps
    dom = P.domain
    assert len(P.bumps) >= 2
    # pairwise disjoint closed supports, exact inequality
    for i in range(len(P.bumps)):
        for j in range(i + 1, len(P.bumps)):
            bi, bj = P.bumps[i], P.bumps[j]
            assert rr.norm(bi.center - bj.center, dom) > bi.radius + bj.radius
    # shell separation at ball-center level
    for i in range(len(P.bumps)):
        for k in range(i + 1, len(P.bumps)):
            assert (rr.norm(P.bumps[i].center - P.base_point, dom)
                    > P.t[k] + P.bumps[k].radius + P.bumps[i].radius)
    # vanishes at the base point and at every center
    assert np.array_equal(P(P.base_point), np.zeros(2))
    for b in P.bumps:
        assert float(np.max(np.abs(P(b.center)))) <= 1e-12


def test_built_gradient_matches_finite_differences(diag_bumps):
    P = diag_bumps
    for k, b in enumerate(P.bumps):
        M = rr.perturbation_gradient_at_centers(P, k)
        J = rr.finite_difference_jacobian(P, b.center, 1e-5 * b.radius)
        assert np.max(np.abs(J - M)) <= 1e-4


def test_built_per_bump_lipschitz_cap(diag_bumps):
    P = diag_bumps
    rng = np.random.default_rng(0)
    dom = P.domain
    for b in P.bumps:
        cap = (1.0 + 1.0 / b.k) * rr.dual_norm(b.slope, dom) * (1.0 + 1e-8)
        for _ in range(800):
            u = rng.standard_normal(2)
            u /= np.linalg.norm(u)
            w = rng.standard_normal(2)
            w /= np.linalg.norm(w)
            x = b.center + u * b.radius * rng.uniform(0.0, 1.0)
            x2 = b.center + w * b.radius * rng.uniform(0.0, 1.0)
            sep = rr.norm(x - x2, dom)
            if sep < 1e-14:
                continue
            quot = rr.norm(P(x) - P(x2), P.codomain) / sep
            assert quot <= cap


def test_built_global_lipschitz_and_ball_decay(diag_setup, diag_bumps):
    F, base, sched, rg_plus = diag_setup
    P = diag_bumps
    ws = rr.extract_witness(F, base, sched, K=6, rg_plus=rg_plus)
    gamma = ws.gamma
    rng = np.random.default_rng(1)
    dom = P.domain
    span = P.t[0] + P.bumps[0].radius
    for _ in range(1500):
        x = rng.uniform(-span, span, size=2)
        x2 = rng.uniform(-span, span, size=2)
        sep = rr.norm(x - x2, dom)
        if sep < 1e-14:
            continue
        assert rr.norm(P(x) - P(x2), P.codomain) <= gamma * sep * (1.0 + 1e-9)
    for b in P.bumps:
        for _ in range(300):
            u = rng.standard_normal(2)
            u /= np.linalg.norm(u)
            x = b.center + u * b.radius * rng.uniform(0.0, 0.999)
            margin = gamma * (b.radius - rr.norm(x - b.center, dom))
            assert float(np.linalg.norm(P(x))) < margin


def test_built_rank_one_check(diag_bumps):
    assert rr.rank_one_structure_check(diag_bumps, trials=600, seed=3)


def test_serialization_round_trip_bit_exact(diag_bumps):
    doc = diag_bumps.to_json()
    text = json.dumps(doc, sort_keys=True)
    back = BumpPerturbation.from_json(json.loads(text))
    assert json.dumps(back.to_json(), sort_keys=True) == text
    for b1, b2 in zip(diag_bumps.bumps, back.bumps):
        assert np.array_equal(b1.center, b2.center)
        assert np.array_equal(b1.slope, b2.slope)
        assert b1.radius == b2.radius


def test_build_degenerate_returns_zero_function():
    F = rr.LinearMapping([[0.0]])
    P = rr.build_perturbation(F, origin(), fast_schedule(6), K=3)
    assert P.bumps == ()
    assert np.array_equal(P([0.3]), [0.0])


def test_bump_perturbation_validation():
    with pytest.raises(ValueError):
        BumpPerturbation(
            (BumpSpec([1.0], 0.375, [1.0], [1.0], k=1),
             BumpSpec([0.6], 0.1, [1.0], [1.0], k=2)),
            [0.0], (1.0, 0.6), rr.NormSpec(1), rr.NormSpec(1))  # 0.6 >= 1/2


def test_relocation_identity_2d():
    F = identity_map(2)
    base = origin(2)
    sample = rr.sample_graph(F, base, 0.5, 150, seed=6)
    y_star = np.array([0.6, 0.8])
    entry = WitnessEntry([0.0, 0.0], [0.0, 0.0], 0.04, y_star, y_star, k=3)
    rel, diag = rr.relocate_witness_ekeland(sample, base, entry)
    assert rr.norm(rel.x - base.x, F.domain) > 0.0
    assert diag.steps <= len(sample.points)
    assert diag.moved <= diag.budget + 1e-15
    at = rr.GraphPoint(rel.x, rel.y)
    assert rr.brute_force_membership(sample, at, (rel.x_star, -rel.y_star), rel.eps,
                                     test_radius=max(diag.rho / 4, 1e-6))


def test_relocation_takes_an_ekeland_descent_step():
    # hand-placed l1 sample: the start (0.02, -0.002) is the best quotient of
    # the innermost shell, and the functional falls by more than the penalty
    # on the step to (0.024, -0.012)
    spec = rr.ProductNormSpec(rr.NormSpec(1, 1.0), rr.NormSpec(1, 1.0))
    base = origin()
    points = (base, rr.GraphPoint([0.02], [-0.002]), rr.GraphPoint([0.024], [-0.012]))
    sample = rr.SampledGraph(base, points, 0.5, spec)
    entry = WitnessEntry([0], [0], 0.05, [1.0], [-0.5], k=2)
    rel, diag = rr.relocate_witness_ekeland(sample, base, entry)
    assert diag.steps >= 1
    assert (rel.x.tolist(), rel.y.tolist()) == ([0.024], [-0.012])
    assert diag.moved == pytest.approx(0.014, abs=1e-15)
    assert diag.budget == pytest.approx(0.02, abs=1e-15)
    assert rel.eps == pytest.approx(0.5435, abs=1e-4)
    # the checks of acceptance criterion 7
    at = rr.GraphPoint(rel.x, rel.y)
    assert rr.norm(rel.x - base.x, spec.left) > 0.0
    assert rr.brute_force_membership(sample, at, (rel.x_star, -rel.y_star), rel.eps,
                                     test_radius=max(diag.rho / 4.0, 1e-9))
    assert diag.moved <= diag.budget + 1e-15
    assert diag.steps <= len(sample.points)


def test_relocation_does_not_call_the_membership_oracle(monkeypatch):
    """Criterion 7 checks relocated witnesses with oracles.brute_force_membership,
    so the relocation must certify them without it."""
    base = origin(2)
    sample = rr.sample_graph(identity_map(2), base, 0.5, 150, seed=6)
    y_star = np.array([0.6, 0.8])
    entry = WitnessEntry([0.0, 0.0], [0.0, 0.0], 0.04, y_star, y_star, k=3)
    forbid_oracle(monkeypatch, "brute_force_membership")
    rel, _ = rr.relocate_witness_ekeland(sample, base, entry)
    assert rr.norm(rel.x - base.x, rr.NormSpec(2)) > 0.0


def test_relocation_requires_base_point_entry():
    F = identity_map()
    sample = rr.sample_graph(F, origin(), 0.5, 60, seed=0)
    entry = WitnessEntry([0.2], [0.2], 0.05, [1.0], [1.0], k=1)
    with pytest.raises(ValueError):
        rr.relocate_witness_ekeland(sample, origin(), entry)


def test_coderivative_transfer_after_scaling(diag_setup):
    """Scaled shifts of witness slopes stay coderivative elements of F + alpha f.

    The epsilon carries one extra witness epsilon of slack to absorb the
    finite test radius (the exact statement is a limit as the radius shrinks).
    """
    F, base, sched, rg_plus = diag_setup
    alpha = 0.5
    ws = rr.extract_witness(F, base, sched, K=6, rg_plus=rg_plus)
    t, rho, kept = rr.select_radii(ws, base)
    P = rr.build_perturbation(F, base, sched, K=6, rg_plus=rg_plus)
    P_scaled = rr.scale_perturbation(P, alpha)
    G = rr.add_perturbation(F, P_scaled, 1.0, base)
    for pos, (idx, bump) in enumerate(zip(kept, P.bumps)):
        e = ws.entries[idx]
        slope_norm = rr.dual_norm(e.x_star, F.domain)
        eps_prime = (alpha * slope_norm + 1.0) * e.eps
        shifted = (1.0 - alpha * rr.pairing(e.y_star, bump.direction)) * e.x_star
        tau = bump.radius * (e.eps / (alpha * slope_norm)) ** (1.0 / bump.exponent)
        center = rr.GraphPoint(e.x, e.y)
        local = rr.sample_graph(G, center, tau, 80, seed=pos)
        assert rr.coderivative_membership(local, center, e.y_star, shifted,
                                          eps_prime + e.eps, test_radius=tau)


def _scalar_bump_eval(P, x):
    """f(x) one bump at a time through the scalar norm, bump_value and pairing."""
    for bump in P.bumps:
        if rr.norm(x - bump.center, P.domain) <= bump.radius:
            s = rr.bump_value(bump, x, P.domain)
            return -s * rr.pairing(bump.slope, x - bump.center) * bump.direction
    return np.zeros(P.codomain.dimension)


def test_bump_rows_match_the_scalar_evaluation_bit_for_bit(diag_bumps):
    P = diag_bumps
    rng = np.random.default_rng(21)
    centers = np.array([b.center for b in P.bumps])
    radii = np.array([b.radius for b in P.bumps])
    which = rng.integers(0, len(P.bumps), 600)
    dirs = rng.standard_normal((600, 2))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    # inside and just outside the supports, and at q just below and at 1
    scale = np.concatenate([rng.uniform(0.0, 1.5, 400), 1.0 - 10.0 ** -rng.uniform(6, 15, 100),
                            np.ones(100)])
    X = np.vstack([centers[which] + (scale * radii[which])[:, None] * dirs,
                   centers,
                   rng.uniform(-0.15, 0.15, (200, 2))])
    qs = np.linalg.norm(X[:600] - centers[which], axis=1) / radii[which]
    assert ((qs < 1.0) & (qs > 1.0 - 1e-6)).sum() >= 50
    rows = P.rows(X)
    for x, row in zip(X, rows):
        assert row.tobytes() == _scalar_bump_eval(P, x).tobytes()
        assert row.tobytes() == rr.perturbation_eval(P, x).tobytes()
    assert np.count_nonzero(rows.any(axis=1)) >= 300



def test_bump_rows_of_no_points(diag_bumps):
    assert diag_bumps.rows(np.empty((0, 2))).shape == (0, 2)


@pytest.mark.parametrize("p_dom, p_cod", [(2.0, 2.0), (math.inf, 1.0), (1.0, math.inf)])
def test_bump_jacobian_rows_match_central_differences(p_dom, p_cod):
    dom, cod = rr.NormSpec(2, p_dom), rr.NormSpec(2, p_cod)
    t = (1.0, 0.4)
    units = [np.array(u) / rr.norm(u, dom) for u in ([1.0, 0.2], [0.3, 0.5])]
    radii = (0.3, 0.15)  # half the gap to the next center, the last one at t / 4
    bumps = tuple(BumpSpec(ti * u, r, s, v, k) for ti, u, r, s, v, k in zip(
        t, units, radii, ([0.7, -0.4], [-0.2, 0.9]), ([1.0, 0.0], [0.6, -0.8]), (25, 26)))
    P = BumpPerturbation(bumps, [0.0, 0.0], t, dom, cod)
    rng = np.random.default_rng(3)
    X, h = [], 1e-6
    for b in bumps:
        d = rng.standard_normal((400, 2))
        d *= (b.radius * rng.uniform(0.2, 0.9, 400) / rr.norms(d, dom))[:, None]
        # away from the norm's kinks: no zero entry, no tie of the largest entries
        a = np.abs(d)
        X.append(b.center + d[(a.min(axis=1) > 1e3 * h) & (np.abs(a[:, 0] - a[:, 1]) > 1e3 * h)])
    X = np.vstack(X)
    assert len(X) >= 600
    J = P.jacobian_rows(X)
    central = np.stack([(P.rows(X + h * e) - P.rows(X - h * e)) / (2.0 * h) for e in np.eye(2)],
                       axis=2)
    np.testing.assert_allclose(J, central, rtol=0.0, atol=1e-7)
    assert np.abs(J).max(axis=(1, 2)).min() > 0.01
    # exactly 0 outside the supports: on their boundaries, beyond them and near the base point
    ring = np.vstack([b.center + rng.uniform(1.0, 1.5, (100, 1)) * b.radius * units[k]
                      for k, b in enumerate(bumps)])
    far = np.vstack([ring, rng.uniform(-0.05, 0.05, (100, 2)), [[3.0, 3.0]]])
    assert not P.jacobian_rows(far).any()
    assert P.jacobian_rows(np.empty((0, 2))).shape == (0, 2, 2)


def test_perturbed_map_with_no_base_preimage_finds_no_root(diag_bumps):
    # y = (0, 1) leaves the range of the base, so no start exists
    F = rr.LinearMapping([[1.0, 0.0], [0.0, 0.0]])
    for f in (diag_bumps, lambda x: diag_bumps(x)):  # batched and row-by-row f
        G = rr.add_perturbation(F, f, 1.0, origin(2))
        assert G.inverse_distance([0.1, 0.1], [0.0, 1.0]) == math.inf
        assert G.inverse_points([0.0, 1.0]) == []
        assert G.inverse_distances(np.empty((0, 2)), np.empty((0, 2))).shape == (0,)


def test_rg_of_a_destabilized_map_with_empty_refinement_batches(diag_setup, diag_bumps):
    # refine_samples 2 gives 2 // 3 = 0 drifting straddles per anchor, so
    # only the refinement's separation ladder proposes pairs
    F, base, sched, _ = diag_setup
    G = rr.add_perturbation(F, diag_bumps, 1.0, base)
    est = rr.rg_estimate(G, base, dataclasses.replace(sched, refine_samples=2, refine_rounds=2))
    assert 0.0 <= est.value < math.inf


def test_destabilized_rg_drops_no_pair_for_a_missing_root():
    # the perfbench destabilize inputs: every pair rg(F + P) proposes has a root
    F, base = diag_map(2.0, 0.5), origin(2)
    sched = rr.ScaleSchedule.geometric(6, samples_per_scale=80, eval_points=4, directions=16,
                                       refine_rounds=5, refine_samples=24)
    P = rr.build_perturbation(F, base, sched, K=5, rg_plus=rr.rg_plus_estimate(F, base, sched))
    est = rr.rg_estimate(rr.add_perturbation(F, P, 1.0, base), base, sched)
    assert est.dropped == (0, 0, 0)
    assert 0.0 <= est.value < math.inf


def _bisect_roots(g, lo, hi, points=2001):
    """Every sign change of the vectorized g on each row's [lo, hi], by a
    scan of `points` grid points and bisection: (row, root) arrays."""
    s = np.linspace(0.0, 1.0, points)
    T = lo[:, None] + (hi - lo)[:, None] * s
    V = g(np.arange(len(lo))[:, None].repeat(points, axis=1), T)
    i, j = np.nonzero((V[:, :-1] == 0.0) | (np.sign(V[:, :-1]) * np.sign(V[:, 1:]) < 0.0))
    a, b, ga = T[i, j], T[i, j + 1], V[i, j]
    for _ in range(80):
        mid = 0.5 * (a + b)
        gm = g(i, mid)
        left = (np.sign(gm) != np.sign(ga)) | (ga == 0.0)
        a, b, ga = np.where(left, a, mid), np.where(left, mid, b), np.where(left, ga, gm)
    return i, 0.5 * (a + b)


def _rank_one_nearest_roots(F, P, x, y):
    """d(x[i], (F + P)^-1 y[i]) for an invertible linear F and Euclidean
    bumps P, exactly: inside bump k, F u - phi_k(u) v_k = y gives u = A^-1 (y
    + t v_k) with t = phi_k(u), phi_k(u) = s_k(u) <x*_k, u - c_k>; a root t
    counts where u lies in bump k's support.  t = 0 gives the root A^-1 y
    where A^-1 y lies outside every support."""
    Ainv = np.linalg.inv(F.matrix)
    u0 = y @ Ainv.T
    best = np.full(len(x), math.inf)
    outside = np.ones(len(x), dtype=bool)
    for b in P.bumps:
        w = Ainv @ b.direction
        a = u0 - b.center
        outside &= np.linalg.norm(a, axis=1) >= b.radius
        # the t with ||a + t w|| < radius: an interval, empty where the disc is missed
        qa, qb, qc = w @ w, 2.0 * a @ w, (a * a).sum(axis=1) - b.radius ** 2
        disc = qb ** 2 - 4.0 * qa * qc
        rows = np.flatnonzero(disc > 0.0)
        root = np.sqrt(disc[rows])
        lo, hi = (-qb[rows] - root) / (2.0 * qa), (-qb[rows] + root) / (2.0 * qa)

        def g(i, t, rows=rows, a=a, w=w, b=b):
            d = a[rows[i]] + t[..., None] * w
            q = np.linalg.norm(d, axis=-1) / b.radius
            return np.maximum(1.0 - q ** b.exponent, 0.0) * (d @ b.slope) - t

        i, t = _bisect_roots(g, lo, hi)
        np.minimum.at(best, rows[i], np.linalg.norm(u0[rows[i]] + t[:, None] * w - x[rows[i]], axis=1))
    best[outside] = np.minimum(best[outside], np.linalg.norm(u0[outside] - x[outside], axis=1))
    return best


@pytest.mark.parametrize("F", [diag_map(2.0, 0.5), identity_map(2)], ids=["diag", "identity-2d"])
def test_perturbed_inverse_distances_match_the_rank_one_roots(F):
    # each pair's distance is that of its nearest exact root, also where the
    # map is nearly singular inside a bump (lip(P) close to rg(F))
    base = origin(2)
    sched = fast_schedule(8)
    P = rr.build_perturbation(F, base, sched, K=6, rg_plus=rr.rg_plus_estimate(F, base, sched))
    G = rr.add_perturbation(F, P, 1.0, base)
    rng = np.random.default_rng(0)
    centers = np.array([b.center for b in P.bumps])
    radii = np.array([b.radius for b in P.bumps])
    which = rng.integers(0, len(P.bumps), 400)
    x = centers[which] + rng.standard_normal((400, 2)) * radii[which, None]
    roots = centers[which] + rng.standard_normal((400, 2)) * radii[which, None]
    y = np.array([G.images(r)[0] for r in roots]) \
        + rng.standard_normal((400, 2)) * 0.3 * radii[which, None]
    want = _rank_one_nearest_roots(F, P, x, y)
    assert np.isfinite(want).all()
    for starts in (roots, None):
        got = G.inverse_distances(x, y, starts)
        assert np.isfinite(got).all()
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)
        for i in range(0, len(x), 20):
            one = G.inverse_distance(x[i], y[i], None if starts is None else starts[i])
            assert np.float64(one).tobytes() == got[i].tobytes()


def test_perturbed_inverse_distances_over_a_two_branch_base():
    # the base's preimages come from inverse_points, nearest first, and f is
    # called row by row; an outer perturbation takes its starts from the inner
    # one's roots.  Every distance is that of the nearest root of either
    # branch, found by a scan of [-10, 10] (which holds every root of both)
    inner = rr.add_perturbation(branch_map(), lambda x: 0.3 * np.sin(3.0 * x), 1.0, origin())
    outer = rr.add_perturbation(inner, lambda x: 0.2 * x ** 2, 1.0, origin())
    rng = np.random.default_rng(5)
    x, y, roots = (rng.uniform(-1.0, 1.0, (60, 1)) for _ in range(3))
    for G, rows, extra in ((inner, 60, 0.0), (outer, 4, 0.2)):
        want = np.full(rows, math.inf)
        for sign in (1.0, -1.0):
            def g(i, t, sign=sign, extra=extra):
                return sign * t + 0.3 * np.sin(3.0 * t) + extra * t ** 2 - y[i, 0]
            i, t = _bisect_roots(g, np.full(rows, -10.0), np.full(rows, 10.0), 4001)
            np.minimum.at(want, i, np.abs(t - x[i, 0]))
        for starts in (roots[:rows], None):
            got = G.inverse_distances(x[:rows], y[:rows], starts)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)
            for i in range(rows):
                one = G.inverse_distance(x[i], y[i], None if starts is None else starts[i])
                assert np.float64(one).tobytes() == got[i].tobytes()
