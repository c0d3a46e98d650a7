import math
from itertools import compress

import numpy as np
import pytest

import regradius as rr
from regradius.mappings import GraphPoint, MappingModel, SampledGraph, sample_graph
from regradius.moduli import (DROP_REASONS, SUBPROBLEM_COUNTS, MinNormCoderivative,
                              ModulusEstimate, min_coderivative_norm)

from helpers import (branch_map, diag_map, fast_schedule, forbid_oracle, identity_map, origin,
                     parabola_map, random_conditioned_matrix, record_solved_columns)


def test_schedule_validation():
    with pytest.raises(ValueError):
        rr.ScaleSchedule((0.1, 0.5, 1.0), (0.1, 0.5, 1.0))  # increasing radii
    with pytest.raises(ValueError):
        rr.ScaleSchedule((0.5, 0.1), (0.5, 0.1))  # too few scales
    with pytest.raises(ValueError):
        rr.ScaleSchedule((0.5, 0.25, 0.1), (0.5,))  # epsilon length mismatch
    s = rr.ScaleSchedule.geometric(5)
    assert s.levels == 5
    assert s.radii == s.epsilons


def test_modulus_estimate_invariants():
    with pytest.raises(ValueError):
        ModulusEstimate(1.0, ((0.5, 0.7), (0.25, 0.9)), True, kind="rg")  # value mismatch
    with pytest.raises(ValueError):
        ModulusEstimate(0.5, ((0.5, 0.9), (0.25, 0.5)), True, kind="rg")  # decreasing trail
    est = ModulusEstimate(0.9, ((0.5, 0.7), (0.25, 0.9)), True, kind="rg")
    doc = est.to_json()
    back = ModulusEstimate.from_json(doc, kind="rg")
    assert back.value == est.value and back.per_scale == est.per_scale


def test_modulus_estimate_inf_serialization():
    est = ModulusEstimate(math.inf, ((0.5, math.inf), (0.25, math.inf), (0.1, math.inf)),
                          True, kind="rg")
    doc = est.to_json()
    assert doc["value"] == "inf"
    assert ModulusEstimate.from_json(doc).value == math.inf
    assert doc["low_confidence"] is False
    flagged = ModulusEstimate(0.0, ((0.5, 0.0), (0.25, 0.0), (0.1, 0.0)), True,
                              kind="rg_plus", low_confidence=True)
    doc = flagged.to_json()
    assert doc["low_confidence"] is True
    assert ModulusEstimate.from_json(doc, kind="rg_plus").low_confidence


def test_rg_counts_the_pairs_it_drops():
    # F + f is constant, so no pair off the base value has a root
    G = rr.add_perturbation(identity_map(1), lambda x: -x, 1.0, origin(1))
    est = rr.rg_estimate(G, origin(1), fast_schedule(4, samples_per_scale=30, refine_rounds=1))
    counts = dict(zip(DROP_REASONS, est.dropped))
    assert counts["infinite_inverse_distance"] > 0 and counts["empty_image"] == 0
    doc = est.to_json()
    assert doc["dropped"] == counts
    assert ModulusEstimate.from_json(doc).dropped == est.dropped
    del doc["dropped"]
    assert ModulusEstimate.from_json(doc).dropped == (0, 0, 0)
    exact = rr.rg_estimate(diag_map(2.0, 0.5), origin(2),
                           fast_schedule(4, samples_per_scale=30, refine_rounds=1))
    assert exact.dropped == (0, 0, 0)


def test_rg_reads_zero_on_non_surjective_linear_maps():
    """Uniform ball draws are rg's surjectivity check: a y off the range of
    a linear map has an empty preimage, so its pair has ratio 0."""
    for A in ([[1.0], [0.0]], [[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.2], [0.0, 0.7], [0.0, 0.0]]):
        m, n = np.shape(A)
        est = rr.rg_estimate(rr.LinearMapping(A), origin(n, m), fast_schedule(7))
        assert est.value == 0.0, A


def _identity_sample(n=1, radius=0.5, budget=80, seed=0):
    F = identity_map(n)
    return F, rr.sample_graph(F, origin(n), radius, budget, seed=seed)


def test_eps_normal_examples():
    _, sample = _identity_sample()
    at = sample.base
    assert rr.eps_normal_test(sample, at, ([1.0], [-1.0]), 0.01, 0.5)
    assert not rr.eps_normal_test(sample, at, ([1.0], [1.0]), 0.1, 0.5)
    assert rr.eps_normal_test(sample, at, ([0.0], [0.0]), 0.1, 0.5)


def test_eps_normal_requires_sample_point():
    _, sample = _identity_sample()
    stranger = rr.GraphPoint([0.123456], [0.123456])
    with pytest.raises(ValueError):
        rr.eps_normal_test(sample, stranger, ([1.0], [-1.0]), 0.1, 0.5)


def test_coderivative_membership_examples():
    _, sample = _identity_sample()
    at = sample.base
    assert rr.coderivative_membership(sample, at, [1.0], [1.0], 0.05)
    assert not rr.coderivative_membership(sample, at, [1.0], [0.0], 0.05)
    F2 = branch_map()
    s2 = rr.sample_graph(F2, origin(), 0.5, 80, seed=2)
    assert not rr.coderivative_membership(s2, s2.base, [1.0], [1.0], 0.05)
    with pytest.raises(ValueError):
        rr.coderivative_membership(sample, at, [0.5], [1.0], 0.05)


def test_min_coderivative_norm_identity():
    _, sample = _identity_sample(budget=120)
    dirs = rr.sphere_grid(rr.NormSpec(1), 2, seed=0)
    res = rr.min_coderivative_norm(sample, sample.base, 1e-3, dirs, test_radius=0.4)
    assert res.feasible
    assert res.value == pytest.approx(1.0, rel=0.02)


def test_min_coderivative_norm_diag():
    F = diag_map(2.0, 0.5)
    sample = rr.sample_graph(F, origin(2), 0.5, 200, seed=0)
    dirs = rr.sphere_grid(rr.NormSpec(2), 16, seed=0)
    res = rr.min_coderivative_norm(sample, sample.base, 1e-3, dirs, test_radius=0.4)
    assert res.value == pytest.approx(0.5, rel=0.05)


def test_min_coderivative_norm_constant_map():
    F = rr.LinearMapping([[0.0]])
    sample = rr.sample_graph(F, origin(), 0.5, 60, seed=0)
    dirs = rr.sphere_grid(rr.NormSpec(1), 2, seed=0)
    res = rr.min_coderivative_norm(sample, sample.base, 1e-3, dirs, test_radius=0.4)
    assert res.value == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(res.element.x_star, 0.0)


def test_min_coderivative_norm_monotone_in_eps():
    F = diag_map(2.0, 0.5)
    sample = rr.sample_graph(F, origin(2), 0.5, 150, seed=3)
    dirs = rr.sphere_grid(rr.NormSpec(2), 12, seed=1)
    values = []
    for eps in (1e-4, 1e-3, 1e-2, 1e-1):
        res = rr.min_coderivative_norm(sample, sample.base, eps, dirs,
                                       test_radius=0.4, refine=False)
        values.append(res.value)
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_min_coderivative_norm_self_consistent():
    F = diag_map(2.0, 0.5)
    sample = rr.sample_graph(F, origin(2), 0.5, 150, seed=5)
    dirs = rr.sphere_grid(rr.NormSpec(2), 12, seed=2)
    res = rr.min_coderivative_norm(sample, sample.base, 1e-3, dirs, test_radius=0.4)
    assert res.feasible and not res.low_confidence
    assert rr.coderivative_membership(sample, sample.base, res.element.y_star,
                                      res.element.x_star, 1e-3, test_radius=0.4)


def test_min_coderivative_norm_solves_each_column_once(monkeypatch):
    # the 3x3 map of the point-by-point test below; refinement runs golden
    # searches, whose winning bracket point the search has already solved
    F = rr.LinearMapping(np.array([[1.2, 0.3, -0.1], [0.2, 0.7, 0.4], [-0.3, 0.1, 0.35]]))
    sample = rr.sample_graph(F, origin(3), 0.3, 120, seed=2)
    dirs = rr.sphere_grid(F.codomain, 24, seed=0)
    columns = record_solved_columns(monkeypatch)
    res = min_coderivative_norm(sample, sample.base, 0.05, dirs, test_radius=0.15)
    assert res.feasible and len(columns) > len(dirs)
    repeated = len(columns) - len(set(columns))
    assert repeated == 0


def test_rg_estimate_identity():
    est = rr.rg_estimate(identity_map(), origin(), fast_schedule(6))
    assert est.value == pytest.approx(1.0, rel=0.05)
    assert est.stabilized


def test_rg_estimate_diag():
    est = rr.rg_estimate(diag_map(2.0, 0.5), origin(2), fast_schedule(7))
    assert est.value == pytest.approx(0.5, rel=0.10)


def test_rg_estimate_branches():
    est = rr.rg_estimate(branch_map(), origin(), fast_schedule(6))
    assert est.value == pytest.approx(1.0, rel=0.10)


def test_rg_estimate_does_not_call_the_svd_oracle(monkeypatch):
    """Criterion 1 checks rg against oracles.sigma_min, so rg must not use it."""
    A = np.array([[2.0, 0.3, 0.0], [0.1, 1.0, 0.2], [0.0, 0.4, 0.5]])
    forbid_oracle(monkeypatch, "sigma_min")
    est = rr.rg_estimate(rr.LinearMapping(A), origin(3), fast_schedule())
    exact = np.linalg.svd(A, compute_uv=False)[-1]
    assert abs(est.value - exact) <= 0.10 * exact  # criterion 1's tolerance


def test_rg_estimate_makes_no_one_row_oracle_calls(monkeypatch):
    """rg evaluates its pairs, straddles and ring-sweep points through the
    batched oracles: the one-row forms raise, as forbid_oracle makes oracles raise."""
    def forbidden(*args, **kwargs):
        raise AssertionError("one-row mapping oracle called by rg_estimate")

    for cls in (rr.LinearMapping, rr.PerturbedMapping):
        for name in ("images", "inverse_points", "distance_to_image", "inverse_distance"):
            monkeypatch.setattr(cls, name, forbidden)
    F = diag_map(2.0, 0.5)
    G = rr.add_perturbation(F, lambda x: 0.1 * np.sin(x), 1.0, origin(2))
    for M in (F, G):
        est = rr.rg_estimate(M, origin(2), fast_schedule(4))
        assert 0.0 < est.value < math.inf


def test_rg_per_scale_monotone_by_nesting():
    est = rr.rg_estimate(diag_map(2.0, 0.5), origin(2), fast_schedule(6))
    vals = [v for _, v in est.per_scale]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_rg_plus_estimate_examples():
    est = rr.rg_plus_estimate(diag_map(2.0, 0.5), origin(2), fast_schedule(8))
    assert est.value == pytest.approx(0.5, rel=0.10)
    est_i = rr.rg_plus_estimate(identity_map(), origin(), fast_schedule(6))
    assert est_i.value == pytest.approx(1.0, rel=0.10)


def test_rg_plus_parabola_degenerates():
    sched = rr.ScaleSchedule.geometric(7, first=0.64, ratio=0.5)
    est = rr.rg_plus_estimate(parabola_map(), origin(), sched)
    at_delta = {d: v for d, v in est.per_scale}
    assert at_delta[0.01] < 0.1
    assert est.value < 0.05


def test_rg_plus_witnesses_recorded_per_scale():
    est = rr.rg_plus_estimate(diag_map(2.0, 0.5), origin(2), fast_schedule(7))
    assert len(est.witnesses) == 7
    eps = [w.eps for w in est.witnesses]
    assert all(b < a for a, b in zip(eps, eps[1:]))
    for w in est.witnesses:
        assert rr.dual_norm(w.x_star, rr.NormSpec(2)) == pytest.approx(0.5, rel=0.10)



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


def _rg_plus_point_by_point(F, base, schedule):
    """rg_plus_estimate solving one evaluation point after another, each
    through the public min_coderivative_norm: a literal copy of the
    estimator's loop before its points ran in lockstep.  Returns the trail,
    the low-confidence flag and the witnesses."""
    def witness_solve(sample, pt, eps_scale, dirs, test_radius):
        for rung in (eps_scale * 4.0**-4, eps_scale * 4.0**-2, eps_scale):
            res = min_coderivative_norm(sample, pt, rung, dirs, test_radius, refine=False)
            if res.feasible and not res.low_confidence:
                res = min_coderivative_norm(sample, pt, rung, dirs, test_radius)
                if res.feasible:
                    return res, rung
        res = min_coderivative_norm(sample, pt, eps_scale, dirs, test_radius)
        return res, eps_scale

    m = F.codomain.dimension
    dirs = rr.sphere_grid(F.codomain, max(2 * m, schedule.directions), seed=schedule.seed)
    per_scale, raw_witnesses, low_conf = [], [], False
    for j, (delta, eps) in enumerate(zip(schedule.radii, schedule.epsilons)):
        sample = rr.sample_graph(F, base, delta, schedule.samples_per_scale,
                                 seed=schedule.seed + 101 * j)
        dists = sample.pair_distances_to(base)
        order = np.argsort(dists)
        inside = [int(i) for i in order if dists[i] <= 0.5 * delta]
        if len(inside) > schedule.eval_points:
            picks = np.unique(np.round(np.linspace(0, len(inside) - 1,
                                                   schedule.eval_points)).astype(int))
            inside = [inside[i] for i in picks]
        results = []
        for i in inside:
            pt = sample.points[i]
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
        near = [t for t in results if t[0] <= inf_val * 1.05 + 1e-12]
        offbase = [t for t in near if rr.norm(t[1].x - base.x, F.domain) > 0.0]
        pool = offbase if offbase else near
        _, w_pt, w_sys, w_radius = min(
            pool, key=lambda t: abs(rr.norm(t[1].x - base.x, F.domain) - delta / 4.0))
        res, eps_w = witness_solve(w_sys, w_pt, eps, dirs, w_radius)
        if res.feasible:
            raw_witnesses.append((w_pt, res.element, eps_w, delta, res.value))

    witnesses, next_eps, fixed = [], None, []
    for (_, _, eps_w, _, _) in reversed(raw_witnesses):
        if next_eps is not None and eps_w <= next_eps:
            eps_w = next_eps / 0.9
        fixed.append(eps_w)
        next_eps = eps_w
    fixed.reverse()
    for (pt, elem, _, delta, val), eps_w in zip(raw_witnesses, fixed):
        witnesses.append((pt.x, pt.y, elem.y_star, elem.x_star, eps_w, delta, val))
    return per_scale, low_conf, witnesses


@pytest.mark.parametrize("F", [diag_map(2.0, 0.5),
                               rr.LinearMapping(np.array([[1.2, 0.3, -0.1],
                                                          [0.2, 0.7, 0.4],
                                                          [-0.3, 0.1, 0.35]]))],
                         ids=["2x2", "3x3"])
def test_rg_plus_matches_the_point_by_point_loop(F):
    n = F.domain.dimension
    schedule = fast_schedule(5)
    est = rr.rg_plus_estimate(F, origin(n), schedule)
    per_scale, low_conf, witnesses = _rg_plus_point_by_point(F, origin(n), schedule)
    assert est.per_scale == tuple(per_scale)
    assert est.low_confidence == low_conf
    assert len(est.witnesses) == len(witnesses) == schedule.levels
    for w, (x, y, y_star, x_star, eps, delta, value) in zip(est.witnesses, witnesses):
        assert np.array_equal(w.point.x, x) and np.array_equal(w.point.y, y)
        assert np.array_equal(w.y_star, y_star) and np.array_equal(w.x_star, x_star)
        assert (w.eps, w.delta, w.value) == (eps, delta, value)


def test_rg_plus_witness_ladder_reuses_the_scale_result(monkeypatch):
    A, _ = random_conditioned_matrix(3)
    schedule = fast_schedule(5)
    columns = record_solved_columns(monkeypatch)
    est = rr.rg_plus_estimate(rr.LinearMapping(A), origin(3), schedule)
    # every ladder falls through to the scale epsilon, whose result the
    # evaluation pass already holds for the witness point's system
    assert len(est.witnesses) == schedule.levels
    for w in est.witnesses:
        assert w.eps == schedule.epsilons[schedule.radii.index(w.delta)]
    repeated = len(columns) - len(set(columns))
    assert repeated == 0


def test_rg_plus_solves_no_column_twice_on_a_passing_ladder(monkeypatch):
    schedule = fast_schedule(5)
    columns = record_solved_columns(monkeypatch)
    est = rr.rg_plus_estimate(diag_map(2.0, 0.5), origin(2), schedule)
    # every ladder passes its eps/256 rung, and the angle search goes on
    # from that rung's grid instead of solving the grid again
    assert [w.eps for w in est.witnesses] == [e / 256.0 for e in schedule.epsilons]
    repeated = len(columns) - len(set(columns))
    assert repeated == 0


def test_rg_plus_counts_its_subproblems():
    est = rr.rg_plus_estimate(parabola_map(), origin(), fast_schedule(4))
    counts = dict(zip(SUBPROBLEM_COUNTS, est.subproblems))
    assert counts["solved"] > counts["infeasible"] > 0
    assert est.low_confidence == (counts["low_confidence_points"] > 0)
    doc = est.to_json()
    assert doc["subproblems"] == counts
    assert ModulusEstimate.from_json(doc, kind="rg_plus").subproblems == est.subproblems
    del doc["subproblems"]
    assert ModulusEstimate.from_json(doc, kind="rg_plus").subproblems == (0, 0, 0)
    assert "subproblems" not in rr.rg_estimate(
        identity_map(), origin(), fast_schedule(4, samples_per_scale=30)).to_json()


POLYHEDRAL_A = np.array([[2.0, 0.3], [-0.2, 0.6]])


def _polyhedral_schedule():
    radii = (0.3, 0.12, 0.048)
    return rr.ScaleSchedule(radii=radii, epsilons=tuple(0.02 * r for r in radii),
                            samples_per_scale=40, eval_points=1, directions=2)


@pytest.mark.parametrize("domain_p, range_p", [(1.0, math.inf), (math.inf, 1.0)])
def test_rg_and_rg_plus_under_polyhedral_norms(domain_p, range_p):
    domain, codomain = rr.NormSpec(2, domain_p), rr.NormSpec(2, range_p)
    F = rr.LinearMapping(POLYHEDRAL_A, domain, codomain)
    exact = 1.0 / rr.operator_norm(np.linalg.inv(POLYHEDRAL_A), codomain, domain)
    for estimator in (rr.rg_estimate, rr.rg_plus_estimate):
        est = estimator(F, origin(2), _polyhedral_schedule())
        assert est.value == pytest.approx(exact, rel=0.10)


def test_lip_estimate_linear():
    est = rr.lip_estimate(lambda x: -1.3 * x, np.zeros(1), fast_schedule(5))
    assert est.value == pytest.approx(1.3, rel=0.01)


def test_lip_estimate_quadratic_vanishes():
    sched = rr.ScaleSchedule.geometric(7, first=0.64, ratio=0.5)
    est = rr.lip_estimate(lambda x: x * x, np.zeros(1), sched)
    at_delta = {d: v for d, v in est.per_scale}
    assert at_delta[0.01] < 0.05


def test_coderivative_shift_check_examples():
    F = identity_map()
    base = origin()
    assert rr.coderivative_shift_check(F, lambda x: np.zeros(1), base, eps=0.05, trials=3)
    rng = np.random.default_rng(8)
    for _ in range(3):
        c = float(rng.uniform(-0.8, 0.8))
        assert rr.coderivative_shift_check(F, lambda x, c=c: c * x, base, eps=0.05, trials=3)
    assert rr.coderivative_shift_check(branch_map(), lambda x: 0.4 * x, base,
                                       eps=0.08, trials=3)


def test_rg_vacuous_sentinel():
    # a one-point stored graph: every pair has zero inverse distance or an
    # empty slice, so the infimum is vacuous
    spec = rr.ProductNormSpec(rr.NormSpec(1), rr.NormSpec(1))
    g = rr.SampledGraph(rr.GraphPoint([0.0], [0.0]),
                        (rr.GraphPoint([0.0], [0.0]),), 0.5, spec)
    F = rr.FiniteGraphMapping(g)
    est = rr.rg_estimate(F, origin(), fast_schedule(5))
    assert math.isinf(est.value)
