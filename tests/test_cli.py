import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regradius.cli import ConfigError, ExperimentConfig, main, parse_config, run_experiment


def minimal_config(**overrides):
    doc = {
        "mapping": {"kind": "smooth-builtin", "builtin": "identity"},
        "base_point": {"x": [0.0], "y": [0.0]},
        "norms": {"domain_p": 2, "range_p": 2},
        "schedule": {"geometric": {"levels": 5}, "samples_per_scale": 80,
                     "refine_rounds": 5},
        "tasks": ["rg"],
        "seed": 3,
        "K": 4,
    }
    doc.update(overrides)
    return doc


def test_parse_minimal_config():
    cfg = parse_config(json.dumps(minimal_config()))
    assert cfg.seed == 3
    assert [t.name for t in cfg.tasks] == ["rg"]


def test_parse_rejects_nondecreasing_radii():
    doc = minimal_config(schedule={"radii": [0.1, 0.5, 1.0]})
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert any("decreasing" in e for e in err.value.errors)


def test_parse_rejects_interpolate_without_r():
    doc = minimal_config(tasks=[{"name": "interpolate"}])
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert any("requires field 'r'" in e for e in err.value.errors)


def test_parse_rejects_unknown_task_and_collects_errors():
    doc = minimal_config(tasks=["rg", "frobnicate"], seed=-1)
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    msgs = "\n".join(err.value.errors)
    assert "frobnicate" in msgs
    assert "seed" in msgs


def test_parse_rejects_matrix_dimension_mismatch():
    doc = minimal_config(mapping={"kind": "linear", "matrix": [[1.0, 0.0]]})
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert any("matrix" in e for e in err.value.errors)


def test_run_experiment_identity(tmp_path):
    cfg = parse_config(minimal_config(tasks=["rg", "bounds",
                                             {"name": "strong_check", "expect": True}]))
    code = run_experiment(cfg, out_dir=str(tmp_path))
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    rg_entry = next(r for r in report["results"] if r["task"] == "rg")
    assert rg_entry["estimate"]["value"] == pytest.approx(1.0, rel=0.05)
    lines = (tmp_path / "traces.csv").read_text().strip().splitlines()
    assert lines[0] == "task,delta,value"
    assert len(lines) > 5


def test_run_experiment_verdict_failure(tmp_path):
    # expecting strong regularity from the two-branch mapping must fail
    doc = minimal_config(mapping={"kind": "smooth-builtin", "builtin": "abs-branches"},
                         tasks=[{"name": "strong_check", "expect": True}])
    code = run_experiment(parse_config(doc), out_dir=str(tmp_path))
    assert code == 2


def test_run_experiment_propagates_program_faults(tmp_path, monkeypatch):
    from regradius import moduli
    from regradius.perturbation import RelocationError

    def raising(exc):
        def estimate(*args, **kwargs):
            raise exc
        return estimate

    cfg = parse_config(minimal_config())
    monkeypatch.setattr(moduli, "rg_estimate", raising(IndexError("index 2 is out of bounds")))
    with pytest.raises(IndexError):
        run_experiment(cfg, out_dir=str(tmp_path))
    monkeypatch.setattr(moduli, "rg_estimate", raising(RelocationError("no certified witness")))
    assert run_experiment(cfg, out_dir=str(tmp_path)) == 3
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["results"] == [{"task": "rg", "error": "no certified witness"}]


def test_main_validate_and_parse_error(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(minimal_config()))
    assert main(["validate", "--config", str(good)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err
    missing_r = tmp_path / "missing.json"
    missing_r.write_text(json.dumps(minimal_config(tasks=[{"name": "interpolate"}])))
    assert main(["validate", "--config", str(missing_r)]) == 1


README_EXAMPLE = {
    "mapping": {"kind": "linear", "matrix": [[2.0, 0.0], [0.0, 0.5]]},
    "base_point": {"x": [0.0, 0.0], "y": [0.0, 0.0]},
    "norms": {"domain_p": 2, "range_p": 2},
    "schedule": {"geometric": {"levels": 9}},
    "tasks": [
        "rg", "rg_plus", "bounds", "destabilize",
        {"name": "interpolate", "r": 0.25},
        {"name": "lyusternik_graves",
         "f": {"kind": "linear", "matrix": [[0.1, 0.0], [0.0, -0.1]]}},
        {"name": "strong_check", "expect": True},
    ],
    "K": 8,
    "seed": 7,
}


def test_main_runs_the_readme_example(tmp_path):
    # --seed 7 overrides the file's seed, so this is the README example's run
    config = tmp_path / "experiment.json"
    config.write_text(json.dumps(dict(README_EXAMPLE, seed=0)))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out), "--seed", "7"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["seed"] == 7
    assert len(report["verdicts"]) == 7 and all(report["verdicts"].values())
    tasks = [r["task"] for r in report["results"]]
    assert {"destabilize", "interpolate", "lyusternik_graves"} <= set(tasks)
    labels = {row.split(",")[0] for row in (out / "traces.csv").read_text().splitlines()[1:]}
    assert {"3.destabilize.rg_perturbed", "4.interpolate.rg_perturbed"} <= labels


def test_main_missing_file():
    assert main(["run", "--config", "/nonexistent/cfg.json"]) == 4


def _with(doc, path, value):
    """Copy of a config document with the field at `path` replaced."""
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


_POINT = {"x": [0.0], "y": [0.0]}

MALFORMED = {
    "matrix-scalar": _with(minimal_config(), ["mapping"], {"kind": "linear", "matrix": 5}),
    "levels-float": _with(minimal_config(), ["schedule", "geometric", "levels"], 2.5),
    "levels-string": _with(minimal_config(), ["schedule", "geometric", "levels"], "5"),
    "unknown-schedule-key": _with(minimal_config(), ["schedule", "refine_round"], 5),
    "geometric-scalar": _with(minimal_config(), ["schedule", "geometric"], 5),
    "norms-list": _with(minimal_config(), ["norms"], [2, 2]),
    "top-level-list": [minimal_config()],
    "matrix-nan": _with(minimal_config(), ["mapping"], {"kind": "linear", "matrix": [[math.nan]]}),
    "graph-without-points": _with(minimal_config(), ["mapping"],
                                  {"kind": "graph", "base": _POINT, "radius": 1.0}),
    "perturbed-without-base": _with(minimal_config(), ["mapping"],
                                    {"kind": "perturbed", "base_point": _POINT,
                                     "f": {"kind": "zero"}}),
    "zero-samples-per-scale": _with(minimal_config(), ["schedule", "samples_per_scale"], 0),
    "strong-check-grid-string": minimal_config(tasks=[{"name": "strong_check", "grid": "24"}]),
    "strong-check-negative-radius": minimal_config(tasks=[{"name": "strong_check", "radius": -1}]),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_config_is_a_config_error(name, tmp_path, capsys):
    text = json.dumps(MALFORMED[name])
    with pytest.raises(ConfigError):
        parse_config(text)
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert main(["validate", "--config", str(path)]) == 1
    assert "config error" in capsys.readouterr().err


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=10,
)

_VALID = [
    minimal_config(),
    minimal_config(mapping={"kind": "linear", "matrix": [[2.0]]},
                   tasks=[{"name": "interpolate", "r": 0.5}, "strong_check"]),
    minimal_config(mapping={"kind": "graph", "base": _POINT, "radius": 1.0,
                            "points": [_POINT, {"x": [0.2], "y": [0.2]}]},
                   schedule={"radii": [0.5, 0.2, 0.1], "epsilons": [0.01, 0.004, 0.002]}),
    minimal_config(mapping={"kind": "perturbed", "base": {"kind": "linear", "matrix": [[1.0]]},
                            "base_point": _POINT, "f": {"kind": "sine", "amplitude": 0.1,
                                                        "frequency": 2.0}},
                   tasks=[{"name": "lyusternik_graves", "f": {"kind": "linear",
                                                              "matrix": [[0.1]]}}]),
]


def _paths(doc, prefix=()):
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _assert_parses_or_config_error(text):
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    assert isinstance(cfg, ExperimentConfig)


@settings(max_examples=300, deadline=None)
@given(_JSON)
def test_any_json_value_parses_or_is_a_config_error(value):
    _assert_parses_or_config_error(json.dumps(value))


@settings(max_examples=600, deadline=None)
@given(st.sampled_from(_VALID), st.data(), _JSON)
def test_any_field_replaced_parses_or_is_a_config_error(doc, data, value):
    path = data.draw(st.sampled_from([p for p in _paths(doc) if p]))
    _assert_parses_or_config_error(json.dumps(_with(doc, path, value)))
