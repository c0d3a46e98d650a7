import math

import numpy as np
import pytest

import regradius as rr
from regradius.mappings import GraphMembershipError

from helpers import branch_map, diag_map, identity_map, origin


def test_linear_images():
    F = diag_map(2.0, 0.5)
    (img,) = F.images([1.0, 1.0])
    assert np.allclose(img, [2.0, 0.5])


def test_smooth_branch_images():
    F = branch_map()
    vals = sorted(v[0] for v in F.images([3.0]))
    assert vals == [-3.0, 3.0]


def test_perturbed_zero_images():
    F = identity_map(2)
    G = rr.add_perturbation(F, lambda x: np.zeros(2), 1.0, origin(2))
    x = np.array([0.3, -0.2])
    (img,) = G.images(x)
    assert np.array_equal(img, x)


def test_distance_to_image_examples():
    assert identity_map().distance_to_image([1.0], [3.0]) == 2.0
    assert branch_map().distance_to_image([1.0], [0.0]) == 1.0
    assert diag_map(2.0, 0.5).distance_to_image([0.0, 0.0], [1.0, 0.0]) == 1.0


def test_inverse_distance_examples():
    assert identity_map().inverse_distance([1.0], [3.0]) == 2.0
    assert branch_map().inverse_distance([1.0], [-1.0]) == 0.0


def test_inverse_distance_diag_least_squares_vs_grid():
    F = diag_map(2.0, 0.5)
    d = F.inverse_distance([0.0, 0.0], [2.0, 0.5])
    # independent oracle: grid minimization of ||u - x|| over {u : Au = y}
    best = math.inf
    for u1 in np.linspace(0.5, 1.5, 2001):
        for u2 in (np.linspace(0.5, 1.5, 41)):
            if abs(2.0 * u1 - 2.0) < 1e-9 and abs(0.5 * u2 - 0.5) < 1e-9:
                best = min(best, math.hypot(u1, u2))
    assert abs(best - math.sqrt(2.0)) < 1e-6
    assert abs(d - 1.4142135623730951) < 1e-12


def test_inverse_distance_out_of_range_is_inf():
    F = rr.LinearMapping([[0.0]])
    assert F.inverse_distance([0.0], [1.0]) == math.inf
    assert F.inverse_distance([3.0], [0.0]) == 0.0


def test_inverse_distance_underdetermined_p2_and_p1():
    # A = [1 0]: preimage of y is the line u1 = y
    F = rr.LinearMapping([[1.0, 0.0]])
    assert abs(F.inverse_distance([0.0, 0.0], [1.0]) - 1.0) < 1e-10
    F1 = rr.LinearMapping([[1.0, 0.0]], domain=rr.NormSpec(2, 1), codomain=rr.NormSpec(1, 1))
    assert abs(F1.inverse_distance([0.0, 2.0], [1.0]) - 1.0) < 1e-6
    # A = [2 0.5]: d(x, A^-1(y)) is |r| / 2 under l1 and |r| / 2.5 under l_inf, r = Ax - y
    x = np.array([0.3, -0.4])
    for p, gain in ((1.0, 2.0), (math.inf, 2.5)):
        Fp = rr.LinearMapping([[2.0, 0.5]], domain=rr.NormSpec(2, p), codomain=rr.NormSpec(1, 1))
        for sep in (1e-3, 1e-4, 1e-5):
            y = Fp.matrix @ x + sep
            r = float(abs(Fp.matrix @ x - y)[0])
            assert Fp.inverse_distance(x, y) == pytest.approx(r / gain, rel=1e-9)


def test_sample_graph_identity():
    F = identity_map()
    g = rr.sample_graph(F, origin(), radius=1.0, budget=100, seed=0)
    assert len(g.points) >= 100
    for p in g.points:
        assert np.array_equal(p.x, p.y)
        assert F.distance_to_image(p.x, p.y) <= 1e-10


def test_sample_graph_covers_both_branches():
    F = branch_map()
    g = rr.sample_graph(F, origin(), radius=0.5, budget=60, seed=1)
    signs = {np.sign(p.y[0] * p.x[0]) for p in g.points if abs(p.x[0]) > 1e-12}
    assert signs == {1.0, -1.0}


def test_sample_graph_deterministic():
    F = diag_map(2.0, 0.5)
    a = rr.sample_graph(F, origin(2), 0.5, 50, seed=7)
    b = rr.sample_graph(F, origin(2), 0.5, 50, seed=7)
    assert len(a.points) == len(b.points)
    assert all(p.same_as(q) for p, q in zip(a.points, b.points))


def test_sample_graph_rejects_off_graph_center():
    with pytest.raises(GraphMembershipError):
        rr.sample_graph(identity_map(), rr.GraphPoint([0.0], [0.5]), 1.0, 10, seed=0)


def test_sampled_graph_invariants():
    spec = rr.ProductNormSpec(rr.NormSpec(1), rr.NormSpec(1))
    base = rr.GraphPoint([0.0], [0.0])
    p = rr.GraphPoint([0.1], [0.1])
    with pytest.raises(ValueError):
        rr.SampledGraph(base, (p,), 1.0, spec)  # base missing
    with pytest.raises(ValueError):
        rr.SampledGraph(base, (base, p, rr.GraphPoint([0.1], [0.1])), 1.0, spec)  # duplicate
    with pytest.raises(ValueError):
        rr.SampledGraph(base, (base, rr.GraphPoint([2.0], [2.0])), 1.0, spec)  # outside radius


def test_add_perturbation_requires_vanishing_at_base():
    with pytest.raises(GraphMembershipError):
        rr.add_perturbation(identity_map(), lambda x: x + 1.0, 1.0, origin())


def test_add_perturbation_zero_scale_matches_base():
    F = diag_map(2.0, 0.5)
    G = rr.add_perturbation(F, lambda x: x, 0.0, origin(2))
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.standard_normal(2)
        y = rng.standard_normal(2)
        assert G.distance_to_image(x, y) == F.distance_to_image(x, y)
        assert abs(G.inverse_distance(x, y) - F.inverse_distance(x, y)) < 1e-10


def test_perturbed_identity_minus_x_collapses():
    F = identity_map(2)
    G = rr.add_perturbation(F, lambda x: -x, 1.0, origin(2))
    for x in ([0.4, 0.0], [0.1, -0.7]):
        (img,) = G.images(x)
        assert np.allclose(img, 0.0)


def test_rank_one_destabilizer_kills_sigma_min():
    A, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((3, 3)))
    A = A @ np.diag([1.0, 0.6, 0.2])
    res = rr.sigma_min(A)
    # F + f with f(x) = -sigma <v_min, x> u_min acts as the matrix A - sigma u v^T
    A_eff = A - res.sigma_min * np.outer(res.u_min, res.v_min)
    assert rr.sigma_min(A_eff).sigma_min <= 1e-10


def test_perturbed_graph_identity():
    F = branch_map()
    f = lambda x: 0.3 * np.sin(x)
    G = rr.add_perturbation(F, f, 0.7, origin())
    rng = np.random.default_rng(2)
    for _ in range(25):
        x = rng.standard_normal(1)
        base_imgs = F.images(x)
        pert_imgs = G.images(x)
        for w, wp in zip(base_imgs, pert_imgs):
            assert np.array_equal(wp, w + 0.7 * f(x))


def test_finite_graph_slices_and_inverse():
    F = identity_map()
    g = rr.sample_graph(F, origin(), 0.5, 40, seed=3)
    FG = rr.FiniteGraphMapping(g)
    p = g.points[5]
    assert any(np.array_equal(v, p.y) for v in FG.images(p.x))
    # brute-force reference for the slice-based inverse distance
    x = np.array([0.03])
    y = p.y
    expected = min(
        rr.norm(q.x - x, FG.domain)
        for q in g.points
        if rr.norm(q.y - y, FG.codomain) <= FG.tol
    )
    assert FG.inverse_distance(x, y) == expected
    assert FG.inverse_distance(x, np.array([99.0])) == math.inf
    # a 2-D stored graph with two branches: two images per x, two preimages per y
    B = rr.load_mapping({"kind": "smooth-builtin", "builtin": "abs-branches"},
                        rr.NormSpec(2), rr.NormSpec(2, 1))
    g2 = rr.sample_graph(B, origin(2), 0.5, 60, seed=4)
    FG2 = rr.FiniteGraphMapping(g2)
    for p in g2.points:
        images = [q.y for q in g2.points if rr.norm(q.x - p.x, FG2.domain) <= FG2.tol]
        preimages = [q.x for q in g2.points if rr.norm(q.y - p.y, FG2.codomain) <= FG2.tol]
        assert len(FG2.images(p.x)) == len(images)
        assert all(np.array_equal(a, b) for a, b in zip(FG2.images(p.x), images))
        assert len(FG2.inverse_points(p.y)) == len(preimages)
        assert all(np.array_equal(a, b) for a, b in zip(FG2.inverse_points(p.y), preimages))
        x = p.x + 0.01
        assert FG2.inverse_distance(x, p.y) == min(rr.norm(u - x, FG2.domain) for u in preimages)
    assert max(len(FG2.images(p.x)) for p in g2.points) == 2
    assert max(len(FG2.inverse_points(p.y)) for p in g2.points) == 2
    assert FG2.images([0.3, 0.3]) == [] and FG2.inverse_points([9.0, 9.0]) == []


def test_pair_distances_resolve_tiny_separations():
    spec = rr.ProductNormSpec(rr.NormSpec(2), rr.NormSpec(2))
    near = rr.GraphPoint([1e-170, 0.0], [0.0, 1e-170])
    g = rr.SampledGraph(origin(2), (origin(2), near), 1.0, spec)
    d = g.pair_distances_to(origin(2))
    assert d[1] > 0.0
    assert d[1] == rr.pair_norm_primal(near.x, near.y, spec)


def test_graph_membership_invariant_all_variants():
    maps = [identity_map(2), diag_map(2.0, 0.5), branch_map()]
    bases = [origin(2), origin(2), origin()]
    for F, base in zip(maps, bases):
        g = rr.sample_graph(F, base, 0.4, 40, seed=11)
        for p in g.points:
            assert F.distance_to_image(p.x, p.y) <= 1e-10
            assert F.inverse_distance(p.x, p.y) <= 1e-9


def test_load_mapping_kinds():
    dom = rr.NormSpec(2)
    F = rr.load_mapping({"kind": "linear", "matrix": [[2.0, 0.0], [0.0, 0.5]]}, dom, dom)
    assert isinstance(F, rr.LinearMapping)
    S = rr.load_mapping({"kind": "smooth-builtin", "builtin": "abs-branches"},
                        rr.NormSpec(1), rr.NormSpec(1))
    assert sorted(v[0] for v in S.images([2.0])) == [-2.0, 2.0]
    P = rr.load_mapping(
        {
            "kind": "perturbed",
            "base": {"kind": "smooth-builtin", "builtin": "identity"},
            "base_point": {"x": [0.0], "y": [0.0]},
            "f": {"kind": "linear", "matrix": [[-1.0]]},
            "scale": 1.0,
        },
        rr.NormSpec(1), rr.NormSpec(1),
    )
    assert np.allclose(P.images([0.3])[0], 0.0)
    with pytest.raises(ValueError):
        rr.load_mapping({"kind": "mystery"}, dom, dom)


def test_load_graph_mapping():
    doc = {
        "kind": "graph",
        "base": {"x": [0.0], "y": [0.0]},
        "radius": 1.0,
        "points": [{"x": [0.0], "y": [0.0]}, {"x": [0.2], "y": [0.2]}],
    }
    F = rr.load_mapping(doc, rr.NormSpec(1), rr.NormSpec(1))
    assert isinstance(F, rr.FiniteGraphMapping)
    assert F.inverse_distance([0.0], [0.2]) == pytest.approx(0.2)


def test_linear_nearest_preimages_match_pinv_row_by_row():
    rng = np.random.default_rng(8)
    missed = 0
    for n in range(1, 5):
        for m in (n, n + 1):  # with m > n most targets leave the range
            A = rng.standard_normal((m, n))
            if n > 1:
                A[:, -1] = A[:, 0]  # a kernel as well
            F = rr.LinearMapping(A)
            pinv = np.linalg.pinv(A)
            T = np.vstack([rng.standard_normal((100, m)) * 10.0 ** rng.uniform(-9, 2, (100, 1)),
                           rng.standard_normal((100, n)) @ A.T])
            rows, U = F._nearest_preimages(T, rng.standard_normal((len(T), n)))
            found = np.isin(np.arange(len(T)), rows)
            assert np.array_equal(rows, np.flatnonzero(found))  # ascending, one each
            nearest = dict(zip(rows.tolist(), U))
            for i, (t, ok) in enumerate(zip(T, found)):
                # the reference: pinv @ t, off the range when its residual
                # exceeds 1e-9 (1 + ||t||)
                u0 = pinv @ t
                residual = rr.norm(A @ u0 - t, F.codomain)
                off_range = residual > 1e-9 * (1.0 + rr.norm(t, F.codomain))
                assert ok == (not off_range)
                if ok:
                    assert nearest[i].tobytes() == u0.tobytes()
                    assert [v.tobytes() for v in F.inverse_points(t)] == [u0.tobytes()]
                else:
                    assert F.inverse_points(t) == []
            assert found[100:].all()
            missed += int((~found).sum())
    assert missed >= 300


def test_polyhedral_inverse_distance_gauge_matches_simplex(monkeypatch):
    from regradius._minnorm import PolyhedronProjector

    # blocks of a few column sets and rows, so every list and batch spans several
    monkeypatch.setattr(rr.mappings, "_BLOCK", 64)
    rng = np.random.default_rng(20)
    matrices = [rng.standard_normal(shape) for shape in ((1, 2), (2, 3), (2, 4), (3, 4))]
    A = rng.standard_normal((2, 5))
    matrices.append(np.vstack([A, A[0] + A[1]]))  # rank 2
    matrices.append(rng.standard_normal((2, 2))[:, [0, 1, 1]])  # a duplicated column
    matrices.append(np.zeros((1, 2)))  # rank 0
    matrices.append(rng.standard_normal((3, 1))[:, [0, 0]])  # tall, rank 1
    matrices.append(np.pad(rng.standard_normal((1, 2)), ((0, 0), (0, 4))))  # 4 zero columns
    for A in matrices:
        m, n = A.shape
        for p in (1.0, math.inf):
            F = rr.LinearMapping(A, rr.NormSpec(n, p), rr.NormSpec(m, p))
            X = rng.standard_normal((200, n))
            Y = rng.standard_normal((200, n)) @ A.T
            Y[::10] = rng.standard_normal((20, m))  # off the range of the rank-deficient maps
            d = F.inverse_distances(X, Y)
            R = X @ A.T - Y
            ref = PolyhedronProjector(np.vstack([A, -A]), p).solve_batch(np.hstack([R, -R]).T)[2]
            assert np.array_equal(np.isinf(d), np.isinf(ref))
            assert np.isfinite(d).sum() >= 20
            finite = np.isfinite(ref)
            assert np.all(np.abs(d[finite] - ref[finite]) <= 1e-12 * ref[finite])
            if n == 6:  # one vertex pair, with no sign patterns of the zero columns
                assert len(F._dual_vertices[0]) == 2
    wide = rr.LinearMapping([[2.0, 0.5]], rr.NormSpec(2, 1.0), rr.NormSpec(1, 1.0))
    assert sorted(wide._dual_vertices[0].ravel()) == [-0.5, 0.5]


def _images_by_definition(F, x):
    if isinstance(F, rr.LinearMapping):
        return [F.matrix @ x]
    if isinstance(F, rr.SmoothMapping):
        return [np.atleast_1d(b(x)) for b in F.branches]
    if isinstance(F, rr.FiniteGraphMapping):
        return [p.y for p in F.graph.points if rr.norm(p.x - x, F.domain) <= F.tol]
    return [w + F.scale * F.f(x) for w in _images_by_definition(F.base, x)]


def _oracle_zoo():
    """(mapping, x rows, y rows, root rows or None) for every mapping kind."""
    rng = np.random.default_rng(15)
    zoo = []
    for p in (1.0, 2.0, math.inf):
        for shape in ((3, 3), (2, 3), (3, 2)):  # square, wide (with a kernel), tall
            A = rng.standard_normal(shape)
            zoo.append(rr.LinearMapping(A, rr.NormSpec(shape[1], p), rr.NormSpec(shape[0], p)))
    # degenerate dual vertices: a vertex of the l_inf gauge on 4 facets in R^3,
    # and an l1 map of rank 2 with a duplicated column
    zoo.append(rr.LinearMapping(rng.standard_normal((3, 4)), rr.NormSpec(4, math.inf),
                                rr.NormSpec(3, math.inf)))
    zoo.append(rr.LinearMapping(rng.standard_normal((3, 2))[:, [0, 1, 1]], rr.NormSpec(3, 1.0),
                                rr.NormSpec(3, 1.0)))
    zoo += [rr.load_mapping({"kind": "smooth-builtin", "builtin": name}, rr.NormSpec(1),
                            rr.NormSpec(1)) for name in rr.mappings.BUILTIN_SMOOTH]
    B = rr.load_mapping({"kind": "smooth-builtin", "builtin": "abs-branches"},
                        rr.NormSpec(2), rr.NormSpec(2, 1))
    zoo.append(rr.FiniteGraphMapping(rr.sample_graph(B, origin(2), 0.5, 60, seed=4)))
    t = 0.2 / 0.375
    bump = rr.BumpPerturbation((rr.BumpSpec([1.0, 0.0], 0.2, [1.0, 0.0], [0.0, 1.0], k=1),),
                               [1.0 - t, 0.0], (t,), rr.NormSpec(2), rr.NormSpec(2))
    zoo.append(rr.add_perturbation(diag_map(2.0, 0.5), bump, 1.0,
                                   rr.GraphPoint([1.0 - t, 0.0], [2.0 * (1.0 - t), 0.0])))
    for f in ({"kind": "linear", "matrix": [[0.3, 0.1], [-0.2, 0.4]]},
              {"kind": "sine", "amplitude": 0.3, "frequency": 2.0}):
        zoo.append(rr.load_mapping({"kind": "perturbed", "f": f, "scale": 1.0,
                                    "base": {"kind": "linear", "matrix": [[2.0, 0.0], [0.0, 0.5]]},
                                    "base_point": {"x": [0.0, 0.0], "y": [0.0, 0.0]}},
                                   rr.NormSpec(2), rr.NormSpec(2)))
    out = []
    for F in zoo:
        # a stored graph scans its points in chunks of rows: give it several
        rows = 300 if isinstance(F, rr.FiniteGraphMapping) else 12
        X = 0.4 * rng.standard_normal((rows, F.domain.dimension))
        Y = 0.4 * rng.standard_normal((rows, F.codomain.dimension))
        roots = None
        if isinstance(F, rr.LinearMapping) and np.linalg.matrix_rank(F.matrix) < len(F.matrix):
            Y[::2] = F.image_rows(X[::2] + 0.1)[1]  # half of them in the range
        if isinstance(F, rr.FiniteGraphMapping):
            # stored x and y in the first half, off-sample ones after
            picks = rng.integers(0, len(F.graph.points), (2, rows // 2))
            X[:rows // 2], Y[:rows // 2] = F.graph.xs[picks[0]], F.graph.ys[picks[1]]
        if isinstance(F, rr.PerturbedMapping):
            X[::2] = F.base_point.x + [t, 0.0] + 0.25 * X[::2]  # mostly in the bump's support
            roots = X + 0.05
        out.append((F, X, Y, roots))
    return out


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


def test_batched_oracles_match_one_row_calls():
    no_image = no_preimage = 0
    for F, X, Y, roots in _oracle_zoo():
        owner, W = F.image_rows(X)
        one_row = [F.images(x) for x in X]
        assert owner.tolist() == [i for i, ws in enumerate(one_row) for _ in ws]
        assert [w.tobytes() for w in W] == [w.tobytes() for ws in one_row for w in ws]
        assert [w.tobytes() for w in W] == [np.asarray(w, dtype=float).tobytes()
                                            for x in X for w in _images_by_definition(F, x)]
        d = F.distances_to_image(X, Y)
        assert _bits(d) == _bits(F.distance_to_image(x, y) for x, y in zip(X, Y))
        inv = F.inverse_distances(X, Y)
        assert _bits(inv) == _bits(F.inverse_distance(x, y) for x, y in zip(X, Y))
        if roots is not None:
            assert _bits(F.inverse_distances(X, Y, roots)) == _bits(
                F.inverse_distance(x, y, r) for x, y, r in zip(X, Y, roots))
        no_image += int(np.isinf(d).sum())
        no_preimage += int(np.isinf(inv).sum())
    # rows without an image (off-sample graph x) and rows with an empty
    # preimage (tall maps, the parabola below 0, off-sample graph y)
    assert no_image >= 100 and no_preimage >= 100


def test_perfbench_tracer_installs_and_uninstalls(monkeypatch):
    import importlib.util
    import sys
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer_module)  # dataclasses look it up
    spec.loader.exec_module(tracer_module)
    before = {cls: dict(vars(cls)) for cls in (rr.LinearMapping, rr.FiniteGraphMapping,
                                                rr.PerturbedMapping)}
    tracer = tracer_module.Tracer()
    tracer_module.install(tracer)
    try:
        assert diag_map(2.0, 0.5).inverse_distance([0.0, 0.0], [1.0, 1.0]) == math.sqrt(4.25)
        assert tracer.stats["mappings.linear.inverse_distance"].calls == 1
    finally:
        tracer.uninstall()
    assert {cls: dict(vars(cls)) for cls in before} == before
