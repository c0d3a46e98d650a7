"""Per-function aggregates for the traced run, recorded from outside regradius.

The tracer replaces public functions and methods of the package's modules
with wrappers that keep one aggregate per function (calls, total time, self
time) instead of one span per call: `norm` alone runs millions of times in
one destabilize round.  Self time is a call's time minus the time of the
wrapped calls made inside it.  Wrappers only observe; every call reaches the
original function with its arguments unchanged.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Aggregate:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    #: outcome counts returned by the function's probe (infeasible, no root, ...)
    events: Counter = field(default_factory=Counter)


class Tracer:
    def __init__(self):
        self.stats: dict[str, Aggregate] = {}
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for agg in self.stats.values():
            agg.calls, agg.total_s, agg.self_s = 0, 0.0, 0.0
            agg.events.clear()

    def _wrap(self, key: str, fn, probe=None, error=None):
        agg = self.stats.setdefault(key, Aggregate())
        stack = self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if error is not None and isinstance(exc, error):
                    agg.events[error.__name__] += 1
                raise
            finally:
                dt = perf_counter() - t0
                agg.calls += 1
                agg.total_s += dt
                agg.self_s += dt - stack.pop()
                if stack:
                    stack[-1] += dt
            if probe is not None:
                agg.events.update(probe(result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, name: str, wrapper) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def wrap_function(self, key: str, module, name: str, probe=None, error=None) -> None:
        """Wrap module.name, and every alias of it that another regradius module imported."""
        fn = getattr(module, name)
        wrapper = self._wrap(key, fn, probe, error)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "regradius" or mod_name.startswith("regradius.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patch(mod, attr, wrapper)

    def wrap_method(self, key: str, cls, name: str, probe=None) -> None:
        """Wrap a method in its class, so every instance's calls reach the wrapper."""
        self._patch(cls, name, self._wrap(key, cls.__dict__[name], probe))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def install(tracer: Tracer) -> None:
    """Wrap the public functions whose aggregates the per-layer metrics report."""
    from regradius import _minnorm, mappings, moduli, oracles, perturbation, spaces

    tracer.wrap_function("spaces.norm", spaces, "norm")
    tracer.wrap_function("mappings.sample_graph", mappings, "sample_graph")
    tracer.wrap_method("mappings.sampled_graph", mappings.SampledGraph, "__post_init__")
    tracer.wrap_function("mappings.load_mapping", mappings, "load_mapping")
    for key, cls in (("linear", mappings.LinearMapping), ("graph", mappings.FiniteGraphMapping)):
        tracer.wrap_method(f"mappings.{key}.inverse_distance", cls, "inverse_distance")
    tracer.wrap_method("mappings.linear.distance_to_image", mappings.LinearMapping,
                       "distance_to_image")
    tracer.wrap_method("mappings.graph.images", mappings.FiniteGraphMapping, "images")
    tracer.wrap_method("mappings.perturbed.inverse_distance", mappings.PerturbedMapping,
                       "inverse_distance", probe=lambda d: {"no_root": int(math.isinf(d))})
    tracer.wrap_method("minnorm.solve_batch", _minnorm.PolyhedronProjector, "solve_batch",
                       probe=lambda out: {"infeasible": int((~out[1]).sum())})
    tracer.wrap_method("minnorm.solve_one", _minnorm.PolyhedronProjector, "solve_one")
    tracer.wrap_function("minnorm.min_dual_norm_point", _minnorm, "min_dual_norm_point")
    tracer.wrap_function("oracles.sigma_min", oracles, "sigma_min",
                         error=oracles.NonConvergenceError)
    tracer.wrap_function("moduli.rg_estimate", moduli, "rg_estimate")
    tracer.wrap_function("moduli.rg_plus_estimate", moduli, "rg_plus_estimate")
    tracer.wrap_function("moduli.min_coderivative_norm", moduli, "min_coderivative_norm",
                         probe=lambda res: {"infeasible": int(not res.feasible),
                                            "low_confidence": int(res.low_confidence)})
    tracer.wrap_function("moduli.lip_estimate", moduli, "lip_estimate")
    tracer.wrap_function("perturbation.build_perturbation", perturbation, "build_perturbation")
    tracer.wrap_function("perturbation.perturbation_eval", perturbation, "perturbation_eval")


def layer_metrics(stats: dict[str, Aggregate]) -> dict[str, float]:
    """Per-layer metric values from one round's aggregates."""
    def agg(key: str) -> Aggregate:
        return stats.get(key, Aggregate())

    out: dict[str, float] = {}
    for key in ("spaces.norm", "mappings.sample_graph",
                "mappings.linear.inverse_distance", "mappings.linear.distance_to_image",
                "mappings.graph.inverse_distance", "mappings.graph.images",
                "mappings.perturbed.inverse_distance",
                "minnorm.solve_batch", "minnorm.solve_one", "minnorm.min_dual_norm_point",
                "oracles.sigma_min", "moduli.min_coderivative_norm",
                "perturbation.perturbation_eval"):
        out[f"{key}.calls"] = agg(key).calls
        out[f"{key}.self_s"] = agg(key).self_s
    out["mappings.sampled_graph.builds"] = agg("mappings.sampled_graph").calls
    out["mappings.sampled_graph.self_s"] = agg("mappings.sampled_graph").self_s
    perturbed = agg("mappings.perturbed.inverse_distance")
    no_root = perturbed.events["no_root"]
    out["mappings.perturbed.no_root"] = no_root
    out["mappings.perturbed.root_found_ratio"] = (
        (perturbed.calls - no_root) / perturbed.calls if perturbed.calls else 0.0)
    out["minnorm.infeasible"] = agg("minnorm.solve_batch").events["infeasible"]
    out["oracles.sigma_min.nonconverged"] = agg("oracles.sigma_min").events["NonConvergenceError"]
    out["moduli.rg_estimate.self_s"] = agg("moduli.rg_estimate").self_s
    out["moduli.rg_plus_estimate.self_s"] = agg("moduli.rg_plus_estimate").self_s
    minnorm_cod = agg("moduli.min_coderivative_norm")
    out["moduli.min_coderivative_norm.infeasible"] = minnorm_cod.events["infeasible"]
    out["moduli.min_coderivative_norm.low_confidence"] = minnorm_cod.events["low_confidence"]
    out["moduli.lip_estimate.s"] = agg("moduli.lip_estimate").total_s
    out["perturbation.build_perturbation.s"] = agg("perturbation.build_perturbation").total_s
    return out
