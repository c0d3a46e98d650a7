"""Shared builders for the test suite."""

import numpy as np

import regradius as rr


def origin(n=1, m=None):
    return rr.GraphPoint(np.zeros(n), np.zeros(m if m is not None else n))


def identity_map(n=1):
    return rr.LinearMapping(np.eye(n))


def diag_map(*vals):
    return rr.LinearMapping(np.diag(vals))


def branch_map():
    """F(x) = {x, -x} in dimension 1."""
    return rr.SmoothMapping(
        branches=(lambda x: x, lambda x: -x),
        domain=rr.NormSpec(1),
        codomain=rr.NormSpec(1),
        branch_inverses=(lambda y: [y], lambda y: [-y]),
        name="abs-branches",
    )


def parabola_map():
    from regradius.mappings import _parabola_inverse

    return rr.SmoothMapping(
        branches=(lambda x: x * x,),
        domain=rr.NormSpec(1),
        codomain=rr.NormSpec(1),
        branch_inverses=(_parabola_inverse,),
        name="parabola",
    )


def fast_schedule(levels=7, **kw):
    kw.setdefault("samples_per_scale", 120)
    kw.setdefault("refine_rounds", 8)
    return rr.ScaleSchedule.geometric(levels, **kw)


def full_schedule(**kw):
    return rr.ScaleSchedule.geometric(**kw)


def random_conditioned_matrix(seed, n=3, cond_max=18.0):
    """Seeded n x n matrix with condition number at most cond_max."""
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = np.ones(n)
    if n > 1:
        inner = rng.uniform(0.3, 0.9, size=n - 2) if n > 2 else []
        s = np.concatenate(([1.0], np.sort(inner)[::-1], [rng.uniform(1.0 / cond_max, 0.25)]))
    return U @ np.diag(s) @ V.T, s[-1]


def forbid_oracle(monkeypatch, name):
    """Make the oracle `oracles.<name>` raise when a program module calls it,
    also where a module imported it by name."""
    from regradius import mappings, moduli, oracles, perturbation, radius

    def forbidden(*args, **kwargs):
        raise AssertionError(f"oracles.{name} called by the program")

    for module in (oracles, mappings, moduli, perturbation, radius):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, forbidden)


def record_solved_columns(monkeypatch):
    """Record every column that `moduli` hands to the min-norm solver, as
    (G bytes, q, column bytes), in the returned list.  A request whose C is a
    function gets it built; every request then reaches the solver."""
    from regradius import _minnorm, moduli

    columns = []

    def recording(requests):
        built = []
        for proj, C in requests:
            C = np.asarray(C() if callable(C) else C, dtype=float)
            columns.extend((proj._G.tobytes(), proj.q, c.tobytes()) for c in C.T)
            built.append((proj, C))
        return _minnorm.solve_systems(built)

    monkeypatch.setattr(moduli, "solve_systems", recording)
    return columns
