"""Batch experiment runner.

Loads a JSON experiment config (mapping, base point, norms, scale schedule,
task list), dispatches estimator / construction / verification tasks, and
writes a JSON report plus a CSV of per-scale traces.  Exit codes: 0 all
verdicts pass, 1 config parse error, 2 verdict failure, 3 construction
error, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import logging
import math
import os
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import moduli, radius
from .mappings import (GraphPoint, InverseOracleUnavailableError, load_mapping,
                       load_perturbation_function)
from .perturbation import (DegenerateModulusError, NotStabilizedError, RelocationError,
                           UnderSampledGraphError)
from .spaces import VALID_EXPONENTS, NormSpec

log = logging.getLogger("regradius")

_TASK_NAMES = {"rg", "rg_plus", "bounds", "destabilize", "interpolate",
               "lyusternik_graves", "strong_check"}


#: what building a value from a malformed config field raises
_FIELD_ERRORS = (ValueError, TypeError, KeyError, OverflowError)

#: what a task raises when its construction fails (exit code 3); anything
#: else is a program fault and propagates with its traceback.  ValueError
#: covers GraphMembershipError and DimensionMismatchError
_CONSTRUCTION_ERRORS = (DegenerateModulusError, NotStabilizedError, UnderSampledGraphError,
                        RelocationError, InverseOracleUnavailableError, ValueError)


class ConfigError(ValueError):
    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


@dataclass(frozen=True)
class TaskSpec:
    name: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ExperimentConfig:
    mapping_doc: dict
    base: GraphPoint
    domain: NormSpec
    codomain: NormSpec
    schedule: moduli.ScaleSchedule
    tasks: tuple[TaskSpec, ...]
    K: int
    seed: int
    output: str | None


def _parse_p(value, errors: list[str], label: str) -> float:
    if value == "inf":
        return math.inf
    try:
        p = float(value)
    except (TypeError, ValueError, OverflowError):
        errors.append(f"{label}: invalid norm exponent {value!r}")
        return 2.0
    if p not in VALID_EXPONENTS:
        errors.append(f"{label}: norm exponent must be 1, 2 or 'inf'")
        return 2.0
    return p


def _section(doc: dict, key: str, errors: list[str]) -> dict:
    """An optional object-valued field; anything but an object or null is an error."""
    value = doc.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        errors.append(f"{key}: must be an object")
        return {}
    return value


def parse_config(text) -> ExperimentConfig:
    """Validate a JSON config document; raises ConfigError listing every problem."""
    if isinstance(text, (str, bytes)):
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise ConfigError([f"not valid JSON: {exc}"]) from None
    else:
        doc = text
    if not isinstance(doc, dict):
        raise ConfigError(["the top level must be an object"])
    errors: list[str] = []

    base_doc = _section(doc, "base_point", errors)
    try:
        base = GraphPoint(base_doc.get("x", [0.0]), base_doc.get("y", [0.0]))
        if any(v.ndim != 1 or not v.size or not np.isfinite(v).all() for v in (base.x, base.y)):
            raise ValueError("x and y must be nonempty lists of finite numbers")
    except _FIELD_ERRORS as exc:
        errors.append(f"base_point: {exc}")
        base = GraphPoint([0.0], [0.0])

    norm_doc = _section(doc, "norms", errors)
    domain = NormSpec(base.x.size, _parse_p(norm_doc.get("domain_p", 2), errors, "norms.domain_p"))
    codomain = NormSpec(base.y.size, _parse_p(norm_doc.get("range_p", 2), errors, "norms.range_p"))

    mapping_doc = doc.get("mapping")
    try:
        load_mapping(mapping_doc, domain, codomain)
    except KeyError as exc:
        errors.append(f"mapping: missing field {exc}")
    except _FIELD_ERRORS as exc:
        errors.append(f"mapping: {exc}")

    sched_doc = _section(doc, "schedule", errors)
    schedule = None
    try:
        rest = {k: v for k, v in sched_doc.items() if k != "geometric"}
        if "geometric" in sched_doc:
            if not isinstance(sched_doc["geometric"], dict):
                raise TypeError("geometric must be an object")
            schedule = moduli.ScaleSchedule.geometric(**sched_doc["geometric"], **rest)
        elif not sched_doc.get("radii"):
            errors.append("schedule.radii: required")
        else:
            radii = rest.pop("radii")
            schedule = moduli.ScaleSchedule(tuple(radii), tuple(rest.pop("epsilons", radii)), **rest)
    except _FIELD_ERRORS as exc:
        errors.append(f"schedule: {exc}")
    if schedule is None:
        schedule = moduli.ScaleSchedule.geometric(5)

    tasks: list[TaskSpec] = []
    raw_tasks = doc.get("tasks")
    if not raw_tasks or not isinstance(raw_tasks, list):
        errors.append("tasks: a nonempty list of tasks required")
        raw_tasks = []
    for i, t in enumerate(raw_tasks):
        if isinstance(t, str):
            name, params = t, {}
        elif isinstance(t, dict):
            name = t.get("name", "")
            params = {k: v for k, v in t.items() if k != "name"}
        else:
            errors.append(f"tasks[{i}]: must be a string or object")
            continue
        if not isinstance(name, str) or name not in _TASK_NAMES:
            errors.append(f"tasks[{i}]: unknown task name {name!r}")
            continue
        if name == "interpolate":
            if "r" not in params:
                errors.append(f"tasks[{i}]: interpolate requires field 'r'")
            elif not isinstance(params["r"], (int, float)) or not params["r"] >= 0:
                errors.append(f"tasks[{i}]: r must be a nonnegative number")
        if name == "strong_check":
            ball, grid = params.get("radius", 1.0), params.get("grid", 24)
            if not isinstance(ball, (int, float)) or not ball > 0:
                errors.append(f"tasks[{i}]: radius must be a positive number")
            if not isinstance(grid, int) or grid < 1:
                errors.append(f"tasks[{i}]: grid must be a positive integer")
        if name == "lyusternik_graves":
            if "f" not in params:
                errors.append(f"tasks[{i}]: lyusternik_graves requires a perturbation spec 'f'")
            else:
                try:
                    load_perturbation_function(params["f"], domain, codomain)
                except _FIELD_ERRORS as exc:
                    errors.append(f"tasks[{i}].f: {exc}")
        tasks.append(TaskSpec(name, params))

    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or seed < 0:
        errors.append("seed: must be a nonnegative integer")
        seed = 0
    K = doc.get("K", 8)
    if not isinstance(K, int) or K < 3:
        errors.append("K: must be an integer >= 3")
        K = 8
    output = doc.get("output")
    if output is not None and not isinstance(output, str):
        errors.append("output: must be a string")

    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(mapping_doc, base, domain, codomain, schedule,
                            tuple(tasks), K, seed, output)


# ---------------------------------------------------------------------------
# task execution
# ---------------------------------------------------------------------------

def _trace_rows(label: str, est: moduli.ModulusEstimate | None) -> list[tuple[str, float, float]]:
    if est is None:
        return []
    return [(label, d, v) for d, v in est.per_scale]


def _run_task(config: ExperimentConfig, idx: int, task: TaskSpec):
    schedule = replace(config.schedule, seed=config.seed + 1009 * idx)
    F = load_mapping(config.mapping_doc, config.domain, config.codomain)
    base = config.base
    name = task.name
    log.info("task %d: %s", idx, name)
    if name == "rg":
        est = moduli.rg_estimate(F, base, schedule)
        return {"task": name, "estimate": est.to_json()}, _trace_rows("rg", est), {}
    if name == "rg_plus":
        est = moduli.rg_plus_estimate(F, base, schedule)
        return {"task": name, "estimate": est.to_json()}, _trace_rows("rg_plus", est), {}
    if name == "bounds":
        b = radius.radius_bounds(F, base, schedule)
        entry = {"task": name, "lower": b.lower, "upper": b.upper,
                 "near_equality": b.near_equality,
                 "rg": b.rg.to_json(), "rg_plus": b.rg_plus.to_json()}
        rows = _trace_rows("bounds.rg", b.rg) + _trace_rows("bounds.rg_plus", b.rg_plus)
        return entry, rows, {}
    if name == "destabilize":
        rep = radius.verify_destabilization(F, base, schedule, config.K)
        rows = (_trace_rows("destabilize.rg", rep.rg)
                + _trace_rows("destabilize.rg_plus", rep.rg_plus)
                + _trace_rows("destabilize.rg_perturbed", rep.rg_perturbed))
        return {"task": name, "report": rep.to_json()}, rows, dict(rep.verdicts)
    if name == "interpolate":
        r = float(task.params["r"])
        rep = radius.verify_interpolation(F, base, r, schedule, config.K)
        rows = (_trace_rows("interpolate.rg", rep.rg)
                + _trace_rows("interpolate.rg_perturbed", rep.rg_perturbed))
        return {"task": name, "r": r, "report": rep.to_json()}, rows, dict(rep.verdicts)
    if name == "lyusternik_graves":
        f = load_perturbation_function(task.params["f"], config.domain, config.codomain)
        res = radius.verify_lyusternik_graves(F, base, f, schedule)
        entry = {"task": name, "residual": res.residual, "passed": res.passed,
                 "rg": res.rg, "lip": res.lip, "rg_perturbed": res.rg_perturbed}
        return entry, [], {"lyusternik_graves": res.passed}
    if name == "strong_check":
        ball = task.params.get("radius", schedule.radii[0])
        grid = int(task.params.get("grid", 24))
        result = radius.strong_regularity_localization_check(F, base, float(ball), grid,
                                                             seed=schedule.seed)
        expected = task.params.get("expect")
        verdicts = {} if expected is None else {"strong_check": result == bool(expected)}
        entry = {"task": name, "result": result, "expected": expected}
        return entry, [], verdicts
    raise ValueError(f"unhandled task {name!r}")


def run_experiment(config: ExperimentConfig, out_dir: str | None = None) -> int:
    """Run every task, write report.json and traces.csv, return the exit code."""
    out = Path(out_dir or config.output or ".")
    results: list[dict] = []
    all_rows: list[tuple[str, float, float]] = []
    verdicts: dict[str, bool] = {}
    construction_failed = False

    for idx, task in enumerate(config.tasks):
        try:
            entry, rows, task_verdicts = _run_task(config, idx, task)
        except _CONSTRUCTION_ERRORS as exc:
            log.error("task %d (%s) failed: %s", idx, task.name, exc)
            entry, rows, task_verdicts = {"task": task.name, "error": str(exc)}, [], None
        results.append(entry)
        all_rows.extend((f"{idx}.{label}", d, v) for label, d, v in rows)
        if task_verdicts is None:
            construction_failed = True
        else:
            for key, ok in task_verdicts.items():
                verdicts[f"{idx}.{task.name}.{key}"] = ok

    report = {
        "seed": config.seed,
        "results": results,
        "verdicts": dict(sorted(verdicts.items())),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    try:
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "report.json", "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        with open(out / "traces.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["task", "delta", "value"])
            for row in all_rows:
                writer.writerow(row)
    except OSError as exc:
        log.error("failed to write outputs: %s", exc)
        return 4
    if construction_failed:
        return 3
    if not all(verdicts.values()):
        return 2
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="regradius",
                                     description="regularity-modulus experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_val = sub.add_parser("validate", help="validate a config without running it")
    p_val.add_argument("--config", required=True)
    args = parser.parse_args(argv)

    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("REGRADIUS_LOG", "error"), logging.ERROR)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 4
    try:
        config = parse_config(text)
    except ConfigError as exc:
        for e in exc.errors:
            print(f"config error: {e}", file=sys.stderr)
        return 1

    if args.command == "validate":
        print("config ok")
        return 0
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    return run_experiment(config, out_dir=args.out)


if __name__ == "__main__":
    sys.exit(main())
