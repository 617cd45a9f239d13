import contextlib
import copy
import csv
import dataclasses
import functools
import io
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

import detsched as ds
from detsched import cli


# the coverage table's fields, in order
_LINK_FIELDS = tuple(f.name for f in dataclasses.fields(ds.LinkReport))


def _base_config(**over):
    doc = {
        "mode": "pairs",
        "transmitters": [[0.0, 0.0], [1.0, 0.0]],
        "receivers": [[0.0, 0.5], [1.0, 0.5]],
        "kernel": {"type": "explicit_L", "matrix": [[2.0, 1.0], [1.0, 2.0]]},
        "pathloss": {"type": "power_law", "kappa": 1.0, "beta": 2.0},
        "threshold": 1.0,
        "noise": 0.1,
        "simulate": {"reps": 2000, "seed": 42},
    }
    doc.update(over)
    return doc


def _write(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# one section of each kernel and path-loss type, valid for three nodes
_KERNELS = {
    "gaussian": {"type": "gaussian", "sigma": 0.8, "scale": 0.6},
    "quality_similarity": {"type": "quality_similarity", "quality": [0.9, 0.5, 1.1],
                           "similarity": [[1.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.0]]},
    "explicit_K": {"type": "explicit_K",
                   "matrix": [[0.4, 0.1, 0.0], [0.1, 0.3, 0.05], [0.0, 0.05, 0.5]]},
    "explicit_L": {"type": "explicit_L",
                   "matrix": [[1.5, 0.2, 0.0], [0.2, 0.7, 0.1], [0.0, 0.1, 2.0]]},
    "aloha_diagonal": {"type": "aloha_diagonal", "probabilities": [0.3, 0.5, 0.2]},
}
_PATHLOSSES = {
    "power_law": {"type": "power_law", "kappa": 1.0, "beta": 3.0},
    "custom": {"type": "custom", "radii": [0.0, 0.5, 3.0], "values": [1.0, 0.2, 0.01]},
}


def _typed_config(mode="txrx", kernel="aloha_diagonal", pathloss="power_law"):
    """A three-node config with the named kernel and path-loss types."""
    points = [[0.0, 0.0], [0.7, 0.1], [0.2, 0.9]]
    if mode == "pairs":
        geometry = {"transmitters": points, "receivers": [[x + 0.1, y] for x, y in points]}
        link = 1
    else:
        geometry = {"nodes": points}
        link = [2, 0]
    return {"mode": mode, **geometry, "kernel": copy.deepcopy(_KERNELS[kernel]),
            "pathloss": copy.deepcopy(_PATHLOSSES[pathloss]), "threshold": 0.5,
            "simulate": {"reps": 10, "seed": 1, "targets": ["coverage", ["delay", link]]}}


# ---------------------------------------------------------------------------
# parsing


def test_parse_config_full_document():
    cfg = cli.parse_config_dict(_base_config())
    assert cfg.mode == "pairs"
    assert cfg.geometry.n == 2
    assert isinstance(cfg.kernel_spec, ds.ExplicitLSpec)
    assert isinstance(cfg.params.pathloss, ds.PowerLawPathLoss)
    assert cfg.params.noise == 0.1
    assert cfg.params.fading_mean == 1.0  # default
    assert cfg.plan.replications == 2000 and cfg.plan.seed == 42
    assert cfg.targets == ("coverage",)


def test_parse_config_collects_every_problem():
    doc = _base_config(
        receivers=[[0.0, 0.5]],
        threshold=-2.0,
        pathloss={"type": "power_law", "kappa": 1.0, "beta": -1.0},
    )
    with pytest.raises(ds.ConfigError) as err:
        cli.parse_config_dict(doc)
    paths = [p for p, _ in err.value.problems]
    assert "receivers" in paths
    assert "threshold" in paths
    assert "pathloss.beta" in paths
    assert len(paths) >= 3


def test_parse_config_rejects_unknown_keys():
    doc = _base_config(extra=1)
    doc["kernel"]["bogus"] = 2
    doc["pathloss"]["gamma"] = 4
    doc["simulate"]["typo"] = 3
    with pytest.raises(ds.ConfigError) as err:
        cli.parse_config_dict(doc)
    paths = [p for p, _ in err.value.problems]
    assert "extra" in paths
    assert "kernel.bogus" in paths
    assert "pathloss.gamma" in paths
    assert "simulate.typo" in paths


def test_parse_config_mode_exclusive_keys():
    with pytest.raises(ds.ConfigError) as err:
        cli.parse_config_dict(_base_config(nodes=[[0.0, 0.0]]))
    assert any(p == "nodes" for p, _ in err.value.problems)

    doc = {
        "mode": "txrx",
        "nodes": [[0.0, 0.0], [1.0, 0.0]],
        "transmitters": [[0.0, 0.0]],
        "kernel": {"type": "aloha_diagonal", "probabilities": [0.4, 0.4]},
        "pathloss": {"type": "power_law", "kappa": 1.0, "beta": 2.0},
        "threshold": 1.0,
    }
    with pytest.raises(ds.ConfigError) as err:
        cli.parse_config_dict(doc)
    assert any(p == "transmitters" for p, _ in err.value.problems)


def test_parse_config_kernel_geometry_size_mismatch():
    doc = _base_config(kernel={"type": "explicit_K", "matrix": [[0.5]]})
    with pytest.raises(ds.ConfigError) as err:
        cli.parse_config_dict(doc)
    assert any("kernel" == p for p, _ in err.value.problems)


def test_parse_config_invalid_kernel_matrix():
    doc = _base_config(
        kernel={"type": "explicit_K", "matrix": [[1.3, 0.0], [0.0, 0.5]]}
    )
    with pytest.raises(ds.ConfigError) as err:
        cli.parse_config_dict(doc)
    msgs = [m for p, m in err.value.problems if p == "kernel"]
    assert msgs and "eigenvalue" in msgs[0]


def test_parse_config_coincident_pair_under_power_law():
    doc = _base_config(receivers=[[0.0, 0.0], [1.0, 0.5]])
    with pytest.raises(ds.ConfigError) as err:
        cli.parse_config_dict(doc)
    assert any(p == "geometry" for p, _ in err.value.problems)
    # a bounded table has no singularity, so the same layout parses
    doc["pathloss"] = {"type": "custom", "radii": [0.0, 2.0], "values": [1.0, 0.1]}
    cli.parse_config_dict(doc)


def test_parse_config_targets():
    doc = _base_config()
    doc["simulate"]["targets"] = ["coverage", "delay", ["delay", 1]]
    cfg = cli.parse_config_dict(doc)
    assert cfg.targets == ("coverage", "delay", ("delay", 1))

    doc["simulate"]["targets"] = [["delay", 5]]
    with pytest.raises(ds.ConfigError):
        cli.parse_config_dict(doc)

    txrx = {
        "mode": "txrx",
        "nodes": [[0.0, 0.0], [1.0, 0.0]],
        "kernel": {"type": "aloha_diagonal", "probabilities": [0.4, 0.4]},
        "pathloss": {"type": "power_law", "kappa": 1.0, "beta": 2.0},
        "threshold": 1.0,
        "simulate": {"reps": 10, "seed": 1, "targets": [["delay", [0, 1]]]},
    }
    cfg = cli.parse_config_dict(txrx)
    assert cfg.targets == (("delay", (0, 1)),)
    # a link that is no link key of the geometry, in either mode
    for doc, shape, links in (
            (_base_config(), "an int", [5, -1, True, 1.0, "1", [1], None]),
            (txrx, "[tx, rx] with distinct ints",
             [[0, 0], [0, 2], [True, 0], [0.0, 1], [0, 1, 1], 1, [[0], 1]])):
        for link in links:
            doc["simulate"]["targets"] = [["delay", link]]
            with pytest.raises(ds.ConfigError) as err:
                cli.parse_config_dict(doc)
            assert err.value.problems == [
                ("simulate.targets[0]", f"link must be {shape} in [0, 2), got {link!r}")]


@pytest.mark.parametrize("mode, broken", [("pairs", "transmitters"), ("txrx", "nodes")])
def test_failed_geometry_is_the_only_target_problem(mode, broken):
    # the delay link cannot be checked without a geometry, so it adds no
    # second problem
    doc = _typed_config(mode)
    doc[broken] = "x"
    with pytest.raises(ds.ConfigError) as err:
        cli.parse_config_dict(doc)
    assert err.value.problems == [(broken, "must be a nonempty list of rows")]


def test_parse_config_top_level_must_be_object():
    with pytest.raises(ds.ConfigError):
        cli.parse_config_dict([1, 2, 3])
    with pytest.raises(ds.ConfigError) as err:
        cli.parse_config_dict(_base_config(kernel=[1], pathloss="power_law"))
    assert err.value.problems == [("kernel", "required object"), ("pathloss", "required object")]


_NAMES = {"kernel": "['aloha_diagonal', 'explicit_K', 'explicit_L', 'gaussian', "
                    "'quality_similarity']",
          "pathloss": "['custom', 'power_law']"}
_SQUARE = [[0.4, 0.0, 0.0], [0.0, 0.3, 0.0], [0.0, 0.0, 0.5]]
_SIMILARITY = _KERNELS["quality_similarity"]["similarity"]


@pytest.mark.parametrize("section, body, problems", [
    # per type: a missing key, a wrong kind, out of range, an unknown key
    ("kernel", {"type": "gaussian", "scale": 0.6}, [("kernel.sigma", "required")]),
    ("kernel", {"type": "gaussian", "sigma": "x"},
     [("kernel.sigma", "must be a number, got 'x'")]),
    ("kernel", {"type": "gaussian", "sigma": 0, "scale": -1},
     [("kernel.sigma", "must be > 0.0, got 0.0"), ("kernel.scale", "must be > 0.0, got -1.0")]),
    ("kernel", {"type": "gaussian", "sigma": 0.8, "bogus": 1}, [("kernel.bogus", "unknown key")]),
    ("kernel", {"type": "quality_similarity", "similarity": _SIMILARITY},
     [("kernel.quality", "required")]),
    ("kernel", {"type": "quality_similarity"},
     [("kernel.quality", "required"), ("kernel.similarity", "required")]),
    ("kernel", {"type": "quality_similarity", "quality": [0.9, 0.5, 1.1], "similarity": "x"},
     [("kernel.similarity", "must be a nonempty list of rows")]),
    ("kernel", {"type": "quality_similarity", "quality": [0.9, 0.5, 1.1],
                "similarity": [[1.0, 0.3], [0.3]]},
     [("kernel.similarity", "rows must all have the same length")]),
    ("kernel", {"type": "quality_similarity", "quality": [-0.9, 0.5, 1.1],
                "similarity": _SIMILARITY},
     [("kernel", "quality values must be strictly positive")]),
    ("kernel", {"type": "quality_similarity", "quality": [0.9, True, 1.1],
                "similarity": _SIMILARITY, "bogus": 1},
     [("kernel.bogus", "unknown key"), ("kernel.quality[1]", "must be a finite number, got True")]),
    ("kernel", {"type": "explicit_K"}, [("kernel.matrix", "required")]),
    ("kernel", {"type": "explicit_K", "matrix": [[0.1, 0.2]]},
     [("kernel.matrix", "must be square, got 1x2")]),
    ("kernel", {"type": "explicit_K", "matrix": [[0.1, "a"], [0.0, 0.1]]},
     [("kernel.matrix[0][1]", "must be a finite number, got 'a'")]),
    ("kernel", {"type": "explicit_K", "matrix": [[1.3, 0.0, 0.0], [0.0, 0.5, 0.0],
                                                 [0.0, 0.0, 0.5]]},
     [("kernel", "marginal kernel eigenvalues must lie in [0, 1]; found range [0.5, 1.3]")]),
    ("kernel", {"type": "explicit_K", "matrix": _SQUARE, "bogus": 1},
     [("kernel.bogus", "unknown key")]),
    ("kernel", {"type": "explicit_L"}, [("kernel.matrix", "required")]),
    ("kernel", {"type": "explicit_L", "matrix": 3},
     [("kernel.matrix", "must be a nonempty list of rows")]),
    ("kernel", {"type": "explicit_L", "matrix": [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0],
                                                 [0.0, 0.0, 1.0]]},
     [("kernel", "likelihood kernel must be positive semidefinite; smallest eigenvalue -1")]),
    ("kernel", {"type": "explicit_L", "matrix": _SQUARE, "bogus": 1},
     [("kernel.bogus", "unknown key")]),
    ("kernel", {"type": "aloha_diagonal"}, [("kernel.probabilities", "required")]),
    ("kernel", {"type": "aloha_diagonal", "probabilities": "x"},
     [("kernel.probabilities", "must be a nonempty list of numbers")]),
    ("kernel", {"type": "aloha_diagonal", "probabilities": [0.3, 1.5, 0.2]},
     [("kernel", "access probabilities must lie in [0, 1]")]),
    ("kernel", {"type": "aloha_diagonal", "probabilities": [0.3, 0.5, 0.2], "bogus": 1},
     [("kernel.bogus", "unknown key")]),
    ("pathloss", {"type": "power_law", "beta": 3.0}, [("pathloss.kappa", "required")]),
    ("pathloss", {"type": "power_law"},
     [("pathloss.kappa", "required"), ("pathloss.beta", "required")]),
    ("pathloss", {"type": "power_law", "kappa": "x", "beta": 3.0},
     [("pathloss.kappa", "must be a number, got 'x'")]),
    ("pathloss", {"type": "power_law", "kappa": -1.0, "beta": 0},
     [("pathloss.kappa", "must be > 0.0, got -1.0"), ("pathloss.beta", "must be > 0.0, got 0.0")]),
    ("pathloss", {"type": "power_law", "kappa": 1.0, "beta": 3.0, "bogus": 1},
     [("pathloss.bogus", "unknown key")]),
    ("pathloss", {"type": "custom", "values": [1.0, 0.1]}, [("pathloss.radii", "required")]),
    ("pathloss", {"type": "custom", "bogus": 1},
     [("pathloss.bogus", "unknown key"), ("pathloss.radii", "required"),
      ("pathloss.values", "required")]),
    ("pathloss", {"type": "custom", "radii": [0.0, "a"], "values": [1.0, 0.1]},
     [("pathloss.radii[1]", "must be a finite number, got 'a'")]),
    ("pathloss", {"type": "custom", "radii": [0.0, 3.0, 2.0], "values": [1.0, 0.1, 0.0]},
     [("pathloss", "radii must be nonnegative and strictly increasing")]),
    ("pathloss", {"type": "custom", "radii": [0.0, 3.0], "values": [1.0, 0.1], "bogus": 1},
     [("pathloss.bogus", "unknown key")]),
    # unknown types, one message form for both sections
    ("kernel", {"type": "nope"}, [("kernel.type", f"must be one of {_NAMES['kernel']}, got 'nope'")]),
    ("kernel", {"type": [1]}, [("kernel.type", f"must be one of {_NAMES['kernel']}, got [1]")]),
    ("kernel", {}, [("kernel.type", f"must be one of {_NAMES['kernel']}, got None")]),
    ("pathloss", {"type": "nope"},
     [("pathloss.type", f"must be one of {_NAMES['pathloss']}, got 'nope'")]),
    ("pathloss", {"type": {"a": 1}},
     [("pathloss.type", f"must be one of {_NAMES['pathloss']}, got {{'a': 1}}")]),
])
def test_parse_config_typed_section_problems(section, body, problems):
    doc = _typed_config()
    doc[section] = body
    with pytest.raises(ds.ConfigError) as err:
        cli.parse_config_dict(doc)
    assert err.value.problems == problems


_ABSENT = object()  # a key left out of the document
_MODE = "must be 'pairs' or 'txrx', got "
_SIMULATE_OBJECT = ("simulate", "must be an object")
_COINCIDE = ("link {} has no defined signal: its transmitter and receiver coincide under "
             "power_law path loss")


@pytest.mark.parametrize("mode, changes, problems", [
    # geometry: the mode, the other mode's keys, the mode's own keys
    ("txrx", {"mode": "ring"}, [("mode", _MODE + "'ring'")]),
    ("txrx", {"mode": [1]}, [("mode", _MODE + "[1]")]),
    ("txrx", {"mode": _ABSENT}, [("mode", _MODE + "None")]),
    ("txrx", {"bogus": 1, "mode": "ring"}, [("bogus", "unknown key"), ("mode", _MODE + "'ring'")]),
    ("txrx", {"receivers": [[0.0, 0.0]], "transmitters": [[0.0, 0.0]]},
     [("transmitters", "not allowed in txrx mode"), ("receivers", "not allowed in txrx mode")]),
    ("pairs", {"nodes": [[0.0, 0.0]]}, [("nodes", "not allowed in pairs mode")]),
    ("pairs", {"nodes": [[0.0, 0.0]], "receivers": _ABSENT},
     [("nodes", "not allowed in pairs mode"), ("receivers", "required")]),
    ("pairs", {"receivers": [[0.1, 0.0], [0.8, 0.1]]},
     [("receivers", "transmitters (3, 2) and receivers (2, 2) must match")]),
    ("pairs", {"transmitters": [[0.0, 0.0, 0.0], [0.7, 0.1, 0.0], [0.2, 0.9, 0.0]]},
     [("receivers", "transmitters (3, 3) and receivers (3, 2) must match")]),
    ("txrx", {"nodes": _ABSENT}, [("nodes", "required")]),
    ("txrx", {"nodes": [[0.0, 0.0], [1.0]]}, [("nodes", "rows must all have the same length")]),
    # channel: missing, not a number, out of range
    ("txrx", {"threshold": _ABSENT}, [("threshold", "required")]),
    ("txrx", {"threshold": "x"}, [("threshold", "must be a number, got 'x'")]),
    ("txrx", {"threshold": -1}, [("threshold", "must be >= 0.0, got -1.0")]),
    ("txrx", {"fading_mean": None}, [("fading_mean", "must be a number, got None")]),
    ("txrx", {"fading_mean": 0}, [("fading_mean", "must be > 0.0, got 0.0")]),
    ("txrx", {"noise": [0.1]}, [("noise", "must be a number, got [0.1]")]),
    ("txrx", {"noise": -0.5}, [("noise", "must be >= 0.0, got -0.5")]),
    ("txrx", {"noise": True, "fading_mean": -2.0, "threshold": _ABSENT},
     [("threshold", "required"), ("fading_mean", "must be > 0.0, got -2.0"),
      ("noise", "must be a number, got True")]),
    # simulate
    ("txrx", {"simulate": [1]}, [_SIMULATE_OBJECT]),
    ("txrx", {"simulate": "x"}, [_SIMULATE_OBJECT]),
    ("txrx", {"simulate": {}}, [("simulate.reps", "required"), ("simulate.seed", "required")]),
    ("txrx", {"simulate": {"reps": 0, "seed": -1, "delay_cap": 0, "workers": 0, "targets": [],
                           "bogus": 1}},
     [("simulate.bogus", "unknown key"), ("simulate.reps", "must be >= 1, got 0"),
      ("simulate.seed", "must be >= 0, got -1"), ("simulate.delay_cap", "must be >= 1, got 0"),
      ("simulate.workers", "must be >= 1, got 0"), ("simulate.targets", "must be a nonempty list")]),
    ("txrx", {"simulate": {"targets": "delay", "workers": 1.5, "delay_cap": True, "seed": "7",
                           "reps": None}},
     [("simulate.reps", "must be an integer, got None"),
      ("simulate.seed", "must be an integer, got '7'"),
      ("simulate.delay_cap", "must be an integer, got True"),
      ("simulate.workers", "must be an integer, got 1.5"),
      ("simulate.targets", "must be a nonempty list")]),
    ("pairs", {"simulate": {"reps": 10, "seed": 1, "targets": [
        "latency", ["delay", 7], "delay", ["delay"], ["coverage", 3], ["delay", 1, 2]]}},
     [("simulate.targets[0]", "must be 'coverage', 'delay', or ['delay', link]; got 'latency'"),
      ("simulate.targets[1]", "link must be an int in [0, 3), got 7"),
      ("simulate.targets[3]", "must be 'coverage', 'delay', or ['delay', link]; got ['delay']"),
      ("simulate.targets[4]",
       "must be 'coverage', 'delay', or ['delay', link]; got ['coverage', 3]"),
      ("simulate.targets[5]",
       "must be 'coverage', 'delay', or ['delay', link]; got ['delay', 1, 2]")]),
    # a delay link whose transmitter sits on its receiver under a power law
    ("txrx", {"nodes": [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
              "simulate": {"reps": 10, "seed": 1,
                           "targets": [["delay", [0, 1]], ["delay", [1, 2]]]}},
     [("simulate.targets[0]", _COINCIDE.format([0, 1]))]),
    ("pairs", {"receivers": [[0.0, 0.0], [0.8, 0.1], [0.3, 0.9]],
               "simulate": {"reps": 10, "seed": 1, "targets": [["delay", 0]]}},
     [("geometry", "transmitter 0 coincides with its receiver under power_law path loss"),
      ("simulate.targets[0]", _COINCIDE.format(0))]),
])
def test_parse_config_untyped_section_problems(mode, changes, problems):
    doc = _typed_config(mode)
    for key, value in changes.items():
        if value is _ABSENT:
            del doc[key]
        else:
            doc[key] = value
    with pytest.raises(ds.ConfigError) as err:
        cli.parse_config_dict(doc)
    assert err.value.problems == problems


_LOSS = ds.PowerLawPathLoss(1.0, 2.0)


# Each bounded field of the library, the constructor that takes it, and the
# config key read by its bound.
@pytest.mark.parametrize("field, build, path", [
    ("kappa", lambda v: ds.PowerLawPathLoss(v, 2.0), "pathloss.kappa"),
    ("exponent", lambda v: ds.PowerLawPathLoss(1.0, v), "pathloss.beta"),
    ("threshold", lambda v: ds.PropagationParams(_LOSS, v), "threshold"),
    ("fading_mean", lambda v: ds.PropagationParams(_LOSS, 1.0, fading_mean=v), "fading_mean"),
    ("noise", lambda v: ds.PropagationParams(_LOSS, 1.0, noise=v), "noise"),
    ("replications", lambda v: ds.SimulationPlan(v, 1), "simulate.reps"),
    ("seed", lambda v: ds.SimulationPlan(10, v), "simulate.seed"),
    ("delay_cap", lambda v: ds.SimulationPlan(10, 1, v), "simulate.delay_cap"),
    ("sigma", lambda v: ds.GaussianSpec(v), "kernel.sigma"),
    ("scale", lambda v: ds.GaussianSpec(1.0, v), "kernel.scale"),
])
def test_library_bounds_read_as_the_cli_reports_them(field, build, path):
    # the constructor raises f"{field} {text}" for exactly the values whose
    # config key the CLI reports with ``text``, and holds what the CLI reads
    rejected = 0
    for v in (0, -1, 1, 0.5, 2, -0.0, True, False, None, "1", [1], 10**400, math.inf, math.nan):
        doc = _typed_config(kernel="gaussian")
        *parents, key = path.split(".")
        functools.reduce(dict.__getitem__, parents, doc)[key] = v
        try:
            cli.parse_config_dict(doc)
        except ds.ConfigError as e:
            [(where, text)] = e.problems
            assert where == path
            with pytest.raises(ds.BadSpec if path.startswith("kernel") else ds.BadArgument) as err:
                build(v)
            assert str(err.value) == f"{field} {text}"
            rejected += 1
            continue
        held = getattr(build(v), field)
        assert held == v and type(held) is (int if path.startswith("simulate") else float)
    assert rejected >= 8


_HUGE = "1" + "0" * 400  # an integer beyond the largest double


@pytest.mark.parametrize("path, where", [
    ("threshold", lambda doc: (doc, "threshold")),
    ("kernel.sigma", lambda doc: (doc["kernel"], "sigma")),
    ("kernel.probabilities[0]", lambda doc: (doc["kernel"]["probabilities"], 0)),
    ("pathloss.radii[1]", lambda doc: (doc["pathloss"]["radii"], 1)),
    ("nodes[1][0]", lambda doc: (doc["nodes"][1], 0)),
])
def test_huge_integers_are_not_finite(tmp_path, capsys, path, where):
    kernel = "gaussian" if path == "kernel.sigma" else "aloha_diagonal"
    pathloss = "custom" if path.startswith("pathloss") else "power_law"
    doc = _typed_config(kernel=kernel, pathloss=pathloss)
    del doc["simulate"]  # its link targets need the geometry
    container, key = where(doc)
    container[key] = "@huge@"
    text = json.dumps(doc).replace('"@huge@"', _HUGE)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert cli.main(["coverage", str(cfg)]) == 1
    assert capsys.readouterr().err == f"config error at {path}: must be finite\n"
    assert cli.main(["validate", str(cfg)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["valid"] is False
    assert report["problems"] == [{"path": path, "message": "must be finite"}]


# ---------------------------------------------------------------------------
# commands through main()


def test_coverage_command_json(tmp_path, capsys):
    path = _write(tmp_path, _base_config())
    assert cli.main(["coverage", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mode"] == "pairs"
    assert len(doc["links"]) == 2
    link = doc["links"][0]
    assert link["coverage"] == pytest.approx(
        link["selection_probability"] * link["conditional_coverage"]
    )
    assert link["delay_mean"] == pytest.approx(1.0 / link["coverage"])


def test_coverage_zero_threshold_equals_diagonal(tmp_path, capsys):
    path = _write(tmp_path, _base_config(threshold=0.0))
    assert cli.main(["coverage", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    K = ds.l_to_k(ds.LEnsemble.from_matrix([[2.0, 1.0], [1.0, 2.0]]))
    for i, link in enumerate(doc["links"]):
        assert link["coverage"] == float(K.matrix[i, i])


def test_exact_zero_coverage_prints_without_sign(tmp_path, capsys):
    # the always-scheduled transmitter 1 sits on link 0's receiver: its
    # coverage is exactly 0, printed as 0.0 and 0, never -0.0 or -0
    path = _write(tmp_path, _base_config(
        receivers=[[1.0, 0.0], [2.0, 0.0]], noise=0.0,
        kernel={"type": "aloha_diagonal", "probabilities": [0.5, 1.0]}))
    assert cli.main(["coverage", path]) == 0
    text = capsys.readouterr().out
    assert '"conditional_coverage": 0.0,' in text and '"coverage": 0.0,' in text
    assert "-0" not in text
    assert cli.main(["coverage", path, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "0,,0.5,0,0,,infinite_delay,"


def test_coverage_csv_matches_json_numbers(tmp_path, capsys):
    path = _write(tmp_path, _base_config())
    assert cli.main(["coverage", path]) == 0
    jdoc = json.loads(capsys.readouterr().out)
    assert cli.main(["coverage", path, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    header = lines[0].split(",")
    for row_text, jlink in zip(lines[1:], jdoc["links"]):
        row = dict(zip(header, row_text.split(",")))
        for key in ("selection_probability", "conditional_coverage", "coverage", "delay_mean"):
            assert float(row[key]) == jlink[key]


def _same(a, b):
    """Equal dataclasses, field by field, arrays by value, NaN where the
    other has NaN (a channel table's path loss where it is undefined)."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    return np.array_equal(a, b, equal_nan=True) if isinstance(a, np.ndarray) else a == b


def test_echo_config_round_trip(tmp_path, capsys):
    path = _write(tmp_path, _base_config())
    assert cli.main(["coverage", path, "--echo-config"]) == 0
    first = capsys.readouterr().out
    path2 = tmp_path / "normalized.json"
    path2.write_text(first)
    assert cli.main(["coverage", str(path2), "--echo-config"]) == 0
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize("pathloss", sorted(_PATHLOSSES))
@pytest.mark.parametrize("kernel", sorted(_KERNELS))
@pytest.mark.parametrize("mode", ["pairs", "txrx"])
def test_echo_config_round_trip_every_schema(tmp_path, capsys, mode, kernel, pathloss):
    doc = _typed_config(mode, kernel, pathloss)
    doc.update(fading_mean=2.5, noise=0.05)
    doc["simulate"].update(delay_cap=40, workers=3)
    path = _write(tmp_path, doc)
    assert cli.main(["coverage", path, "--echo-config"]) == 0
    first = capsys.readouterr().out
    path2 = tmp_path / "normalized.json"
    path2.write_text(first)
    assert cli.main(["coverage", str(path2), "--echo-config"]) == 0
    second = capsys.readouterr().out
    assert first == second
    echoed = json.loads(first)
    assert echoed["kernel"] == doc["kernel"] and echoed["pathloss"] == doc["pathloss"]
    cfg, again = cli.parse_config_dict(doc), cli.parse_config_dict(echoed)
    assert _same(cfg.kernel_spec, again.kernel_spec)
    assert _same(cfg.params, again.params)
    assert _same(cfg.geometry, again.geometry) and _same(cfg.plan, again.plan)
    assert (cfg.params.fading_mean, cfg.params.noise) == (2.5, 0.05)
    assert (cfg.plan.delay_cap, cfg.workers) == (40, 3)
    # in memory too: a txrx delay link echoes as a list, which parses back
    assert _same(cli.parse_config_dict(cli.config_dict(cfg)), cfg)


def test_parser_is_built_once_and_reused(tmp_path):
    path = _write(tmp_path, _base_config())
    parser = cli._parser()
    simulate = parser.parse_args(["simulate", path, "--reps", "5"])
    coverage = parser.parse_args(["coverage", path, "--format", "csv"])
    assert (simulate.command, simulate.reps, simulate.format) == ("simulate", 5, "json")
    assert coverage.command == "coverage" and not hasattr(coverage, "reps")
    assert cli._parser() is parser


def test_output_flag_writes_file(tmp_path, capsys):
    path = _write(tmp_path, _base_config())
    out = tmp_path / "report.json"
    assert cli.main(["coverage", path, "--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(out.read_text())
    assert doc["mode"] == "pairs"


@pytest.mark.parametrize("argv", [["coverage"], ["sample", "--count", "2"]])
def test_write_failure_is_not_a_read_failure(tmp_path, capsys, argv):
    # an output that cannot be opened for writing is reported as such, with
    # its path, and exits 2; nothing reaches stdout
    path = _write(tmp_path, _base_config())
    for out in (tmp_path, tmp_path / "missing" / "x.json"):
        assert cli.main([argv[0], path, *argv[1:], "--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("cannot write output: ")
        assert repr(str(out)) in captured.err


def test_exit_code_validation_failure(tmp_path, capsys):
    path = _write(tmp_path, _base_config(threshold=-1.0))
    assert cli.main(["coverage", path]) == 1
    err = capsys.readouterr().err
    assert "threshold" in err


def test_exit_code_missing_file(capsys):
    assert cli.main(["coverage", "/nonexistent/cfg.json"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_exit_code_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for content in (b"{nope", b'{"mode": "\xff"}'):  # invalid JSON, invalid UTF-8
        path.write_bytes(content)
        assert cli.main(["coverage", str(path)]) == 2
        assert "cannot parse" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["coverage"], ["simulate"], ["sample", "--count", "2"],
                                  ["validate"]])
def test_exit_code_overlong_integer(tmp_path, capsys, argv):
    # json raises a bare ValueError, not a JSONDecodeError, for an integer
    # past Python's int digit limit (4300 digits by default)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_base_config(threshold="@")).replace('"@"', "1" * 5001))
    assert cli.main([argv[0], str(path), *argv[1:]]) == 2
    assert capsys.readouterr().err.startswith("cannot parse config: ")


def test_linalg_error_is_not_a_parse_error(tmp_path, monkeypatch):
    # LinAlgError is a ValueError; a failed computation must not read as a
    # malformed config
    def fail(*args):
        raise np.linalg.LinAlgError("singular")

    monkeypatch.setattr(cli._coverage, "_link_table", fail)
    with pytest.raises(np.linalg.LinAlgError):
        cli.main(["coverage", _write(tmp_path, _base_config())])


def test_exit_code_computation_error(tmp_path, capsys, monkeypatch):
    doc = _base_config(
        transmitters=[[0.0, 0.0]],
        receivers=[[0.0, 0.5]],
        kernel={"type": "aloha_diagonal", "probabilities": [1.0]},
    )
    path = _write(tmp_path, doc)
    # probability one has no likelihood kernel, and needs none: the
    # simulator draws from the marginal kernel
    for argv in (["coverage"], ["simulate", "--reps", "10", "--seed", "1"]):
        assert cli.main([argv[0], path, *argv[1:]]) == 0
    capsys.readouterr()

    # a DetschedError from the computation, not from parsing, exits 3
    def fail(*args):
        raise ds.DetschedError("injected")

    monkeypatch.setattr(cli._montecarlo, "_coverage_estimates", fail)
    assert cli.main(["simulate", path, "--reps", "10", "--seed", "1"]) == 3
    assert capsys.readouterr().err == "computation failed: injected\n"


def test_validate_prints_metrics_past_the_doubles_as_null(tmp_path, capsys):
    # a spectrum past the doubles is a problem, and its metrics print as
    # null (JSON) or empty (CSV), where the JSON writer raised on them
    doc = _base_config(kernel={"type": "explicit_K",
                               "matrix": [[1.7e308, 1.7e308], [1.7e308, 1.7e308]]})
    path = _write(tmp_path, doc)
    assert cli.main(["validate", path]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["kernel"]["max_eigenvalue"] is None
    assert report["kernel"]["max_diagonal"] == 1.7e308
    assert "eigenvalues past the largest double" in report["kernel"]["problems"]
    assert cli.main(["validate", path, "--format", "csv"]) == 1
    assert "\nmax_eigenvalue,,\n" in capsys.readouterr().out


def test_coincident_delay_target_fails_every_command(tmp_path, capsys):
    # a txrx link between coincident nodes has no signal under a power law:
    # validate reports the target, as simulate, which could not run it, does
    doc = _typed_config(kernel="explicit_L")
    doc["nodes"] = [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
    doc["simulate"]["targets"] = [["delay", [0, 1]]]
    path = _write(tmp_path, doc)
    for command in ("validate", "simulate", "coverage"):
        assert cli.main([command, path]) == 1
        out, err = capsys.readouterr()
        problem = _COINCIDE.format([0, 1])
        assert problem in (out if command == "validate" else err)


_SHORT_TABLE = {"type": "custom", "radii": [0.5, 2.0], "values": [1.0, 0.1]}


def test_table_missing_a_distance_fails_every_command(tmp_path, capsys):
    # the table misses distance 3.0 from node 0 to node 2, which both the
    # closed forms and the simulators evaluate: a config problem, where
    # coverage and validate exited 0 and simulate 3
    doc = _typed_config(kernel="explicit_L", pathloss="power_law")
    doc.update(nodes=[[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]], pathloss=_SHORT_TABLE)
    path = _write(tmp_path, doc)
    problem = ("pathloss", "transmitter 0 to receiver slot 2: distance 3.0 outside tabulated "
                           "range [0.5, 2.0]")
    for argv in (["validate"], ["coverage"], ["simulate"], ["sample", "--count", "1"]):
        assert cli.main([argv[0], path, *argv[1:]]) == 1
        out, err = capsys.readouterr()
        if argv == ["validate"]:
            assert json.loads(out)["problems"] == [dict(zip(("path", "message"), problem))]
        else:
            assert err == "config error at {}: {}\n".format(*problem)
    # the library keeps the link's error row
    cfg = cli.parse_config_dict({**doc, "pathloss": _PATHLOSSES["power_law"]})
    params = dataclasses.replace(cfg.params, pathloss=ds.TabulatedPathLoss([0.5, 2.0], [1.0, 0.1]))
    errors = {(lr.transmitter, lr.receiver): lr.error
              for lr in ds.full_report(cfg.geometry, cfg.K, params).links}
    assert errors[(0, 2)] == "distance 3.0 outside tabulated range [0.5, 2.0]"
    assert errors[(0, 1)] is None


def test_table_missing_a_distance_names_the_first():
    def problems(doc):
        try:
            cli.parse_config_dict(doc)
        except ds.ConfigError as e:
            return e.problems
        return []

    def outside(d, i, j, lo, hi):
        return [("pathloss", f"transmitter {i} to receiver slot {j}: distance {d!r} "
                             f"outside tabulated range [{lo!r}, {hi!r}]")]

    # pairs: each transmitter's distance to its own receiver and to the others
    doc = _base_config(pathloss={**_SHORT_TABLE, "radii": [0.6, 2.0]})
    assert problems(doc) == outside(0.5, 0, 0, 0.6, 2.0)
    doc["pathloss"]["radii"] = [0.5, 1.1]
    assert problems(doc) == outside(math.sqrt(1.25), 0, 1, 0.5, 1.1)
    doc["pathloss"]["radii"] = [0.5, 1.2]
    assert problems(doc) == []
    # txrx: a node's distance 0 to its own slot is never read
    doc = _typed_config(kernel="explicit_L")
    doc["pathloss"] = {**_SHORT_TABLE, "radii": [0.5, 2.0]}
    assert problems(doc) == []
    doc["pathloss"]["radii"] = [0.75, 2.0]
    assert problems(doc) == outside(math.sqrt(0.7 ** 2 + 0.1 ** 2), 0, 1, 0.75, 2.0)


def test_single_txrx_node_reads_no_table_distance(tmp_path, capsys):
    # one txrx node has no link, and its distance 0 to its own slot is read
    # by neither engine: every command runs, where simulate failed with exit 3
    doc = {"mode": "txrx", "nodes": [[0.0, 0.0]],
           "kernel": {"type": "aloha_diagonal", "probabilities": [0.5]},
           "pathloss": _SHORT_TABLE, "threshold": 1.0,
           "simulate": {"reps": 5, "seed": 1, "targets": ["coverage", "delay"]}}
    path = _write(tmp_path, doc)
    for command in ("validate", "coverage", "simulate"):
        assert cli.main([command, path]) == 0
    capsys.readouterr()
    geo = ds.NetworkGeometry.txrx([[0.0, 0.0]])
    params = ds.PropagationParams(ds.TabulatedPathLoss([0.5, 2.0], [1.0, 0.1]), threshold=1.0)
    L = ds.LEnsemble.from_matrix([[1.0]])
    plan = ds.SimulationPlan(5, 1)
    assert ds.simulate_txrx(geo, L, params, plan) == {}
    assert ds.simulate_local_delay(geo, L, params, plan) == {}


def test_never_scheduled_delay_link_is_not_played(tmp_path, capsys, monkeypatch):
    # transmitter 1 is never scheduled: its row is the cap's, as when it was
    # played to the cap (400,000 draws), but no slot is played for it
    from detsched import _sampling

    doc = _base_config(kernel={"type": "aloha_diagonal", "probabilities": [0.5, 0.0]},
                       noise=0.0)
    doc["simulate"] = {"reps": 20, "seed": 1, "targets": ["delay"], "delay_cap": 20000}
    draw, calls = _sampling.draw_mask, [0]

    def counting(*args):
        calls[0] += 1
        return draw(*args)

    monkeypatch.setattr(_sampling, "draw_mask", counting)
    assert cli.main(["simulate", _write(tmp_path, doc), "--format", "csv"]) == 0
    assert calls[0] < 1000
    assert capsys.readouterr().out.splitlines()[1:] == [
        "delay,0,,2,1.8,0.32118202741878649,0.62269984907723896,0",
        "delay,1,,20000,20000,0,0,20"]


def test_path_loss_overflow_fails_every_command(tmp_path, capsys):
    # r^-400 overflows a double at r = 0.1, a distance both engines read: a
    # config problem, in the scalar path loss's words, where validate,
    # coverage and sample exited 0 and simulate 3
    doc = _base_config(
        mode="txrx",
        nodes=[[0.0, 0.0], [0.1, 0.0], [1.0, 0.0]],
        kernel={"type": "aloha_diagonal", "probabilities": [0.5, 0.5, 0.5]},
        pathloss={"type": "power_law", "kappa": 1.0, "beta": 400.0},
    )
    del doc["transmitters"], doc["receivers"]
    path = _write(tmp_path, doc)
    problem = ("pathloss", "transmitter 0 to receiver slot 1: power-law path loss overflows "
                           "at distance 0.1")
    for argv in (["validate"], ["coverage"], ["simulate"], ["sample", "--count", "1"]):
        assert cli.main([argv[0], path, *argv[1:]]) == 1
        out, err = capsys.readouterr()
        if argv == ["validate"]:
            assert json.loads(out)["problems"] == [dict(zip(("path", "message"), problem))]
        else:
            assert err == "config error at {}: {}\n".format(*problem)
    # the library keeps the affected links' error rows
    cfg = cli.parse_config_dict({**doc, "pathloss": _PATHLOSSES["power_law"]})
    params = dataclasses.replace(cfg.params, pathloss=ds.PowerLawPathLoss(1.0, 400.0))
    errors = {(lr.transmitter, lr.receiver): lr.error
              for lr in ds.full_report(cfg.geometry, cfg.K, params).links}
    assert errors[(1, 2)] is None
    assert errors[(0, 1)] == errors[(2, 1)] == "power-law path loss overflows at distance 0.1"


def test_simulate_command(tmp_path, capsys):
    doc = _base_config()
    doc["simulate"]["targets"] = ["coverage", "delay"]
    path = _write(tmp_path, doc)
    assert cli.main(["simulate", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["replications"] == 2000 and out["seed"] == 42
    kinds = {(r["target"], r["transmitter"]) for r in out["results"]}
    assert kinds == {("coverage", 0), ("coverage", 1), ("delay", 0), ("delay", 1)}
    for r in out["results"]:
        assert r["z_score"] < 4.5
        if r["target"] == "delay":
            assert r["censored"] == 0


# kernels with an eigenvalue at 1, which have no likelihood form
_PROJECTION_K = [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 0.3]]
_EIGENVALUE_ONE = {
    "explicit_K": _base_config(
        transmitters=[[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
        receivers=[[0.0, 0.5], [1.0, 0.5], [2.0, 0.5]],
        kernel={"type": "explicit_K", "matrix": _PROJECTION_K}),
    "aloha": _base_config(kernel={"type": "aloha_diagonal", "probabilities": [1.0, 0.4]}),
}


@pytest.mark.parametrize("name", list(_EIGENVALUE_ONE))
def test_eigenvalue_one_kernels_simulate_against_closed_forms(tmp_path, capsys, name):
    # every command runs, where simulate and sample exited 3, and each
    # estimate is within |z| <= 4 of its closed form
    doc = copy.deepcopy(_EIGENVALUE_ONE[name])
    doc["simulate"] = {"reps": 20000, "seed": 5, "targets": ["coverage", "delay"]}
    path = _write(tmp_path, doc)
    for argv in (["validate"], ["coverage"], ["sample", "--count", "3"]):
        assert cli.main([argv[0], path, *argv[1:]]) == 0
    capsys.readouterr()
    assert cli.main(["simulate", path]) == 0
    rows = json.loads(capsys.readouterr().out)["results"]
    assert len(rows) == 2 * len(doc["transmitters"])
    for r in rows:
        assert r["z_score"] is not None and r["z_score"] <= 4.0, r


def test_projection_kernel_sample_draws_its_trace(tmp_path, capsys):
    # K = [[0.5, 0.5, 0], [0.5, 0.5, 0], [0, 0, 1]] has eigenvalues 0, 1, 1:
    # every draw schedules trace(K) = 2 nodes, node 2 and one of 0 and 1
    doc = copy.deepcopy(_EIGENVALUE_ONE["explicit_K"])
    doc["kernel"]["matrix"][2][2] = 1.0
    assert cli.main(["sample", _write(tmp_path, doc), "--count", "500"]) == 0
    draws = [tuple(json.loads(line)) for line in capsys.readouterr().out.splitlines()]
    assert len(draws) == 500 and set(draws) == {(0, 2), (1, 2)}


def test_simulate_delay_cap_beyond_int64(tmp_path, capsys):
    # a cap of 2^64 runs as the default cap does, without an OverflowError
    doc = _base_config()
    doc["simulate"] = {"reps": 10, "seed": 1, "targets": ["delay"]}
    path = _write(tmp_path, doc)
    assert cli.main(["simulate", path]) == 0
    want = capsys.readouterr()
    doc["simulate"]["delay_cap"] = 2**64
    assert cli.main(["simulate", _write(tmp_path, doc)]) == 0
    assert capsys.readouterr() == want and want.err == ""


def test_simulate_delay_rows_compare_the_capped_mean(tmp_path, capsys):
    # a censored replication counts at the cap, so a delay row's estimate
    # is the mean of min(D, cap): with p near 0.048 and a cap of 20, about
    # 37% of replications are censored, and the plain mean 1/p = 20.68 sat
    # about 70 standard errors above the estimate
    doc = _base_config(kernel={"type": "aloha_diagonal", "probabilities": [0.05, 0.05]})
    doc["simulate"] = {"reps": 4000, "seed": 3, "targets": ["delay"], "delay_cap": 20}
    path = _write(tmp_path, doc)
    cfg = cli.parse_config(path)
    for seed in range(3, 23):
        assert cli.main(["simulate", path, "--seed", str(seed)]) == 0
        for r in json.loads(capsys.readouterr().out)["results"]:
            p = ds.pair_coverage(cfg.geometry, cfg.K, r["transmitter"], cfg.params)
            assert r["closed_form"] == pytest.approx(sum((1.0 - p) ** k for k in range(20)),
                                                     rel=1e-14)
            assert r["censored"] > 1000 and r["z_score"] <= 4.0
    # a link that is never covered gets the cap, which every replication hits
    doc["kernel"]["probabilities"] = [0.0, 0.05]
    doc["simulate"].update(reps=20, delay_cap=5)
    assert cli.main(["simulate", _write(tmp_path, doc)]) == 0
    dead = json.loads(capsys.readouterr().out)["results"][0]
    assert (dead["closed_form"], dead["estimate"], dead["z_score"], dead["censored"]) == (
        5.0, 5.0, 0.0, 20)


def test_simulate_txrx_table_without_zero_distance(tmp_path, capsys):
    # a receiver's own distance 0 is outside the table, but a silent
    # receiver's loss is never evaluated: every row has a closed form
    doc = _base_config(
        mode="txrx",
        nodes=[[0.0, 0.0], [0.6, 0.1], [0.2, 0.7], [0.9, 0.8]],
        kernel={"type": "explicit_L", "matrix": [[2.0, 0.5, 0.0, 0.0], [0.5, 2.0, 0.5, 0.0],
                                                 [0.0, 0.5, 2.0, 0.5], [0.0, 0.0, 0.5, 2.0]]},
        pathloss={"type": "custom", "radii": [0.02, 0.5, 3.0], "values": [1.0, 0.4, 0.02]},
    )
    del doc["transmitters"], doc["receivers"]
    doc["simulate"] = {"reps": 20000, "seed": 42}
    assert cli.main(["simulate", _write(tmp_path, doc)]) == 0
    rows = json.loads(capsys.readouterr().out)["results"]
    assert len(rows) == 12
    for r in rows:
        assert r["closed_form"] is not None and r["z_score"] <= 5.0


def test_simulate_flag_overrides(tmp_path, capsys):
    path = _write(tmp_path, _base_config())
    assert cli.main(["simulate", path, "--reps", "500", "--seed", "7"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["replications"] == 500 and out["seed"] == 7


def test_simulate_requires_plan_or_flags(tmp_path, capsys):
    doc = _base_config()
    del doc["simulate"]
    path = _write(tmp_path, doc)
    assert cli.main(["simulate", path]) == 1
    err = capsys.readouterr().err
    assert "simulate.reps" in err and "simulate.seed" in err
    assert cli.main(["simulate", path, "--reps", "50", "--seed", "3"]) == 0


def test_simulate_missing_plan_keys_are_reported_per_flag(tmp_path):
    doc = _base_config()
    del doc["simulate"]
    cfg = cli.parse_config(_write(tmp_path, doc))
    for flags, problems in [
        ({}, [("simulate.reps", "required: set it in the config or pass --reps"),
              ("simulate.seed", "required: set it in the config or pass --seed")]),
        ({"reps": 5}, [("simulate.seed", "required: set it in the config or pass --seed")]),
        ({"seed": 5}, [("simulate.reps", "required: set it in the config or pass --reps")]),
        # out-of-range flags are reported first, alone
        ({"reps": 0}, [("--reps", "must be >= 1, got 0")]),
    ]:
        with pytest.raises(ds.ConfigError) as info:
            cli.cmd_simulate(cfg, **flags)
        assert info.value.problems == problems
    # sample needs only a seed
    with pytest.raises(ds.ConfigError) as info:
        cli.cmd_sample(cfg, count=2)
    assert info.value.problems == [
        ("simulate.seed", "required: set it in the config or pass --seed")]


def test_simulate_one_flag_keeps_the_rest_of_the_plan(tmp_path, capsys):
    # a flag replaces its own key of the config's plan only: the output
    # equals that of the config with the key set to the flag's value
    doc = _base_config()
    doc["simulate"] = {"reps": 40, "seed": 3, "targets": ["coverage", ["delay", 1]],
                       "delay_cap": 7}
    path = _write(tmp_path, doc)
    for flag, key, value in [("--seed", "seed", 9), ("--reps", "reps", 25)]:
        assert cli.main(["simulate", path, flag, str(value)]) == 0
        by_flag = capsys.readouterr().out
        edited = copy.deepcopy(doc)
        edited["simulate"][key] = value
        assert cli.main(["simulate", _write(tmp_path, edited, "edited.json")]) == 0
        assert by_flag == capsys.readouterr().out
        rows = json.loads(by_flag)["results"]
        assert [r["target"] for r in rows] == ["coverage", "coverage", "delay"]


def test_simulate_byte_determinism_and_worker_invariance(tmp_path):
    path = _write(tmp_path, _base_config())
    a, b, c = (tmp_path / x for x in ("a.json", "b.json", "c.json"))
    assert cli.main(["simulate", path, "--output", str(a)]) == 0
    assert cli.main(["simulate", path, "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert cli.main(["simulate", path, "--workers", "3", "--output", str(c)]) == 0
    assert json.loads(a.read_text())["results"] == json.loads(c.read_text())["results"]


@pytest.mark.parametrize(
    "argv, path",
    [
        (["simulate", "--seed", "-1"], "--seed"),
        (["simulate", "--reps", "0"], "--reps"),
        (["simulate", "--workers", "0"], "--workers"),
        (["simulate", "--workers", "-3"], "--workers"),
        (["sample", "--count", "2", "--seed", "-1"], "--seed"),
        (["sample", "--count", "0"], "--count"),
        (["coverage"], "simulate.seed"),
    ],
    ids=["simulate-seed", "reps", "workers-0", "workers-neg", "sample-seed", "count",
         "config-seed"],
)
def test_out_of_range_flags_and_seed_are_config_errors(tmp_path, capsys, argv, path):
    doc = _base_config()
    if path == "simulate.seed":
        doc["simulate"]["seed"] = -1
    cfg = _write(tmp_path, doc)
    assert cli.main([argv[0], cfg] + argv[1:]) == 1
    assert f"config error at {path}: must be >= " in capsys.readouterr().err


def test_sample_command(tmp_path, capsys):
    path = _write(tmp_path, _base_config())
    assert cli.main(["sample", path, "--count", "5", "--seed", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    for line in lines:
        subset = json.loads(line)
        assert subset == sorted(subset)
        assert all(x in (0, 1) for x in subset)
    # a longer run extends the shorter one draw for draw
    assert cli.main(["sample", path, "--count", "8", "--seed", "3"]) == 0
    longer = capsys.readouterr().out.splitlines()
    assert longer[:5] == lines


def test_sample_has_no_format_flag(tmp_path, capsys):
    # sample prints JSON lines only, so argparse rejects --format there
    path = _write(tmp_path, _base_config())
    for fmt in ("csv", "json"):
        with pytest.raises(SystemExit) as e:
            cli.main(["sample", path, "--count", "3", "--format", fmt])
        assert e.value.code == 2
        assert "--format" in capsys.readouterr().err


def test_sample_seed_falls_back_to_config(tmp_path, capsys):
    path = _write(tmp_path, _base_config())
    assert cli.main(["sample", path, "--count", "3"]) == 0
    from_plan = capsys.readouterr().out
    assert cli.main(["sample", path, "--count", "3", "--seed", "42"]) == 0
    assert capsys.readouterr().out == from_plan

    doc = _base_config()
    del doc["simulate"]
    bare = _write(tmp_path, doc, "bare.json")
    assert cli.main(["sample", bare, "--count", "3"]) == 1


def _random_l(n):
    a = np.random.default_rng(n).normal(size=(n, n))
    return a @ a.T / n * 2.0


@pytest.mark.parametrize("rows", [None, 3], ids=["default-blocks", "3-row-blocks"])
@pytest.mark.parametrize("seed", [0, 2**64 + 1, 2**160 + 5])
@pytest.mark.parametrize("matrix, subset", [
    *((_random_l(n), None) for n in (1, 4, 10, 40)),
    (1e-9 * np.eye(5), []),
    (1e9 * np.eye(5), [0, 1, 2, 3, 4]),
], ids=["n1", "n4", "n10", "n40", "never", "always"])
def test_sample_lines_are_substream_draws(tmp_path, capsys, monkeypatch, matrix, subset,
                                          seed, rows):
    # line k is dpp.sample on substream(seed, k), however the draws are
    # blocked; 3-row blocks put block boundaries inside the count of 10
    from detsched import montecarlo
    n = len(matrix)
    if rows:
        monkeypatch.setattr(montecarlo, "_BLOCK_BYTES", rows * 8 * (2 * n + n * n))
    points = [[float(i), 0.0] for i in range(n)]
    doc = _base_config(transmitters=points, receivers=[[x, 0.5] for x, _ in points],
                       kernel={"type": "explicit_L", "matrix": matrix.tolist()})
    assert cli.main(["sample", _write(tmp_path, doc), "--count", "10", "--seed", str(seed)]) == 0
    lines = capsys.readouterr().out.splitlines()
    L = ds.LEnsemble.from_matrix(matrix)
    assert lines == [json.dumps(list(ds.sample(L, ds.substream(seed, k)))) for k in range(10)]
    if subset is not None:
        assert set(lines) == {json.dumps(subset)}


def test_validate_command(tmp_path, capsys):
    path = _write(tmp_path, _base_config())
    assert cli.main(["validate", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["valid"] is True and doc["problems"] == []
    assert doc["kernel"]["valid"] is True
    assert doc["kernel"]["max_eigenvalue"] <= 1.0 + 1e-9

    bad = _write(tmp_path, _base_config(threshold=-1.0), "bad.json")
    assert cli.main(["validate", bad]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["valid"] is False
    assert any(p["path"] == "threshold" for p in doc["problems"])


def test_validate_reports_eigenvalue_range(tmp_path, capsys):
    doc = _base_config(kernel={"type": "explicit_K", "matrix": [[1.3, 0.0], [0.0, 0.5]]})
    path = _write(tmp_path, doc)
    assert cli.main(["validate", path]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["valid"] is False
    assert rep["kernel"]["max_eigenvalue"] == pytest.approx(1.3)
    assert any("eigenvalue" in p["message"] for p in rep["problems"])
    # a raw explicit_K matrix that is no matrix has no metrics: not square,
    # null, ragged, strings, an object, past the doubles, or absent
    matrices = ([[0.5, 0.1]], None, [[0.5], [0.1, 0.5]], [["a", "b"], ["c", "d"]], {},
                [[10**400, 0], [0, 0.5]])
    kernels = [{"type": "explicit_K", "matrix": m} for m in matrices] + [{"type": "explicit_K"}]
    for kernel in kernels:
        assert cli.main(["validate", _write(tmp_path, _base_config(kernel=kernel))]) == 1
        rep = json.loads(capsys.readouterr().out)
        assert rep["valid"] is False and rep["kernel"] is None


def test_validate_kernel_metrics_hide_no_library_fault(tmp_path, capsys, monkeypatch):
    # only what a raw matrix can raise reads as no metrics: a fault of the
    # metrics themselves, on a parsed or a raw kernel, is not hidden
    # a ValueError subclass too, as numpy's LinAlgError is
    class Injected(ValueError):
        pass

    raw = {"type": "explicit_K", "matrix": [[1.3, 0.0], [0.0, 0.5]]}
    for error in (RuntimeError, Injected):
        def fail(matrix):
            raise error("injected")

        monkeypatch.setattr(cli, "validate_kernel", fail)
        for doc in (_base_config(), _base_config(kernel=raw)):
            with pytest.raises(error, match="injected"):
                cli.main(["validate", _write(tmp_path, doc)])


@pytest.mark.parametrize("entry, message", [
    ("0.5", "must be a finite number, got '0.5'"), (True, "must be a finite number, got True")])
def test_validate_has_no_metrics_of_a_matrix_the_schema_rejects(tmp_path, capsys, entry,
                                                                 message):
    # the metrics of an invalid config's matrix are those of the matrix as
    # the schema reads it: one it rejects has none, in JSON and in CSV
    kernel = {"type": "explicit_K", "matrix": [[entry, 0], [0, 0.5]]}
    path = _write(tmp_path, _base_config(kernel=kernel))
    assert cli.main(["validate", path]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["problems"] == [{"path": "kernel.matrix[0][0]", "message": message}]
    assert rep["kernel"] is None
    assert cli.main(["validate", path, "--format", "csv"]) == 1
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows == [["field", "value", "detail"], ["valid", "false", ""],
                    ["problem", "kernel.matrix[0][0]", message]]


def test_validate_reports_an_eigensolver_failure(tmp_path, capsys):
    # eigvalsh fails to converge on this matrix: the metrics report it, with
    # null eigenvalue bounds, and the kernel's construction fails as a problem
    matrix = [[0.0, 0.0, 1.7e308], [0.0, 0.0, 0.0], [1.7e308, 0.0, 0.0]]
    doc = {"mode": "txrx", "nodes": [[0, 0], [1, 0], [0, 1]],
           "kernel": {"type": "explicit_K", "matrix": matrix},
           "pathloss": {"type": "power_law", "kappa": 1, "beta": 2}, "threshold": 1}
    path = _write(tmp_path, doc)
    assert cli.main(["validate", path]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["problems"] == [{"path": "kernel", "message": "marginal kernel has entries or "
                                "eigenvalues past the largest double"}]
    assert rep["kernel"]["min_eigenvalue"] is None and rep["kernel"]["max_eigenvalue"] is None
    assert rep["kernel"]["problems"] == ["eigenvalues past the largest double"]
    assert cli.main(["validate", path, "--format", "csv"]) == 1
    rows = dict(r[:2] for r in csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows["min_eigenvalue"] == rows["max_eigenvalue"] == ""


def test_validate_csv_format(tmp_path, capsys):
    path = _write(tmp_path, _base_config())
    assert cli.main(["validate", path, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "field,value,detail"
    assert lines[1].startswith("valid,true")


def test_validate_csv_rows(tmp_path, capsys):
    # every row, in order: validity, the kernel's metrics in field order,
    # then one row per problem
    metrics = ["symmetry_defect", "min_eigenvalue", "max_eigenvalue",
               "min_diagonal", "max_diagonal"]
    matrix = [[0.5, 0.1], [0.1, 0.5]]
    for doc, code, problems in [
        (_base_config(), 0, []),
        (_base_config(kernel={"type": "explicit_K", "matrix": matrix}, threshold=-1.0), 1,
         [["problem", "threshold", "must be >= 0.0, got -1.0"]]),
    ]:
        path = _write(tmp_path, doc)
        assert cli.main(["validate", path, "--format", "csv"]) == code
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        K = cli.parse_config_dict({**doc, "threshold": 1.0}).K
        report = ds.validate(K.matrix)
        assert rows == [["field", "value", "detail"], ["valid", "false" if code else "true", ""],
                        *([m, format(getattr(report, m), ".17g"), ""] for m in metrics),
                        *problems]


def test_coverage_json_header(tmp_path, capsys):
    path = _write(tmp_path, _base_config(fading_mean=2.0))
    assert cli.main(["coverage", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["mode", "kernel_fingerprint", "threshold", "fading_mean",
                         "noise", "links"]
    assert (doc["threshold"], doc["fading_mean"], doc["noise"]) == (1.0, 2.0, 0.1)


def test_txrx_coverage_command(tmp_path, capsys):
    doc = {
        "mode": "txrx",
        "nodes": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
        "kernel": {"type": "gaussian", "sigma": 1.0, "scale": 0.8},
        "pathloss": {"type": "power_law", "kappa": 1.0, "beta": 2.0},
        "threshold": 0.5,
    }
    path = _write(tmp_path, doc)
    assert cli.main(["coverage", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mode"] == "txrx"
    assert len(out["links"]) == 6
    assert all(l["receiver"] is not None for l in out["links"])


def test_infinite_delay_serializes_as_null_with_flag(tmp_path, capsys):
    doc = _base_config(
        kernel={"type": "explicit_K", "matrix": [[0.0, 0.0], [0.0, 0.5]]}
    )
    path = _write(tmp_path, doc)
    assert cli.main(["coverage", path]) == 0
    out = json.loads(capsys.readouterr().out)
    dead = out["links"][0]
    assert dead["delay_mean"] is None
    assert "infinite_delay" in dead["flags"]
    assert "never_scheduled" in dead["flags"]


def test_csv_tables_share_the_json_fields(tmp_path, capsys):
    doc = _base_config(kernel={"type": "explicit_K", "matrix": [[0.0, 0.0], [0.0, 0.5]]})
    path = _write(tmp_path, doc)
    assert cli.main(["coverage", path, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "transmitter,receiver,selection_probability,conditional_coverage," \
                       "coverage,delay_mean,flags,error"
    assert lines[1] == "0,,0,,0,,never_scheduled;infinite_delay,"
    assert cli.main(["coverage", path]) == 0
    assert tuple(json.loads(capsys.readouterr().out)["links"][0]) == _LINK_FIELDS
    assert cli.main(["simulate", path, "--format", "csv"]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header == "target,transmitter,receiver,closed_form,estimate,std_error,z_score,censored"
    assert cli.main(["simulate", path]) == 0
    assert tuple(json.loads(capsys.readouterr().out)["results"][0]) == cli._RESULT_FIELDS


def test_simulate_delay_only_plan_evaluates_reported_links(tmp_path, capsys, monkeypatch):
    # closed forms are computed for the reported links only, with the
    # same values the full report gives them
    rng = np.random.default_rng(5)
    doc = {
        "mode": "txrx",
        "nodes": rng.uniform(0.0, 1.0, size=(6, 2)).tolist(),
        "kernel": {"type": "gaussian", "sigma": 0.5, "scale": 0.6},
        "pathloss": {"type": "power_law", "kappa": 1.0, "beta": 3.0},
        "threshold": 0.5,
        "noise": 0.05,
        "simulate": {"reps": 200, "seed": 3, "targets": [["delay", [0, 1]], ["delay", [4, 2]]]},
    }
    path = _write(tmp_path, doc)
    from detsched import coverage
    evaluated = []
    real = coverage._evaluate

    def spy(K, params, channel, rows):
        evaluated.append(rows.tolist())
        return real(K, params, channel, rows)

    monkeypatch.setattr(coverage, "_evaluate", spy)
    assert cli.main(["simulate", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert evaluated == [[[0, 1, 1], [4, 2, 2]]]
    cfg = cli.parse_config_dict(doc)
    K = ds.l_to_k(ds.build_L(cfg.kernel_spec, cfg.geometry))
    report = ds.full_report(cfg.geometry, K, cfg.params)
    cov = {(lr.transmitter, lr.receiver): lr.coverage for lr in report.links}
    got = {(r["transmitter"], r["receiver"]): r["closed_form"] for r in out["results"]}
    assert [r["target"] for r in out["results"]] == ["delay", "delay"]
    assert got == {(0, 1): 1.0 / cov[(0, 1)], (4, 2): 1.0 / cov[(4, 2)]}


@pytest.mark.parametrize("pathloss", sorted(_PATHLOSSES))
@pytest.mark.parametrize("mode", ["pairs", "txrx"])
def test_coverage_builds_the_channel_table_once(tmp_path, capsys, monkeypatch, mode, pathloss):
    # parse builds the node-to-slot table and the report reads it: one
    # distance matrix and one path loss per (node, slot) per run, wherever
    # a detsched module reaches them
    from detsched import propagation
    built, losses = [], []
    real_dist, real_loss = propagation._distance_matrix, propagation._path_losses
    for module in [m for name, m in sys.modules.items() if name.startswith("detsched.")]:
        if hasattr(module, "_distance_matrix"):
            monkeypatch.setattr(module, "_distance_matrix",
                                lambda a, b: built.append(len(b)) or real_dist(a, b))
        if hasattr(module, "_path_losses"):
            monkeypatch.setattr(module, "_path_losses",
                                lambda model, r: losses.append(r.size) or real_loss(model, r))
    assert cli.main(["coverage", _write(tmp_path, _typed_config(mode, pathloss=pathloss))]) == 0
    assert len(json.loads(capsys.readouterr().out)["links"]) == (3 if mode == "pairs" else 6)
    assert (built, losses) == ([3], [9])


def test_simulate_builds_one_arena_on_the_parsed_table(tmp_path, capsys, monkeypatch):
    # coverage and delay targets read one arena, built on the table parse
    # built: one distance matrix, one arena and one spectrum per run
    from detsched import montecarlo, propagation
    built, arenas, spectra, cfgs = [], [], [], []
    real_dist, real_init = propagation._distance_matrix, montecarlo._Arena.__init__
    real_spectrum, real_parse = montecarlo._spectrum, cli.parse_config
    for module in [m for name, m in sys.modules.items() if name.startswith("detsched.")]:
        if hasattr(module, "_distance_matrix"):
            monkeypatch.setattr(module, "_distance_matrix",
                                lambda a, b: built.append(len(b)) or real_dist(a, b))
    monkeypatch.setattr(montecarlo._Arena, "__init__",
                        lambda self, *args: arenas.append(args[3]) or real_init(self, *args))
    monkeypatch.setattr(montecarlo, "_spectrum", lambda K: spectra.append(K) or real_spectrum(K))
    monkeypatch.setattr(cli, "parse_config", lambda path: cfgs.append(real_parse(path)) or cfgs[0])
    doc = _typed_config("pairs")
    doc["simulate"]["targets"] = ["coverage", "delay", ["delay", 1]]
    assert cli.main(["simulate", _write(tmp_path, doc)]) == 0
    rows = json.loads(capsys.readouterr().out)["results"]
    assert [r["target"] for r in rows] == ["coverage"] * 3 + ["delay"] * 3
    assert (built, len(arenas), len(spectra)) == ([3], 1, 1)
    assert arenas[0] is cfgs[0].channel


def test_simulate_bare_delay_target_reports_every_link_once(tmp_path, capsys):
    # "delay" names every link, so a single-link target beside it adds none
    doc = _typed_config("pairs")
    doc["simulate"]["targets"] = ["delay", ["delay", 1]]
    assert cli.main(["simulate", _write(tmp_path, doc)]) == 0
    rows = json.loads(capsys.readouterr().out)["results"]
    assert [(r["target"], r["transmitter"]) for r in rows] == [("delay", 0), ("delay", 1),
                                                              ("delay", 2)]


@pytest.mark.parametrize("kernel", sorted(_KERNELS))
@pytest.mark.parametrize("mode", ["pairs", "txrx"])
def test_simulate_closed_forms_are_the_coverage_report(tmp_path, capsys, mode, kernel):
    # both commands evaluate the config's marginal kernel, so every
    # closed_form is the coverage report's number, bit for bit; none of
    # these probabilities survives the round trip through L unchanged
    doc = _typed_config(mode, kernel)
    if kernel == "aloha_diagonal":
        doc["kernel"]["probabilities"] = [0.35, 0.45, 0.6]
    path = _write(tmp_path, doc)
    assert cli.main(["coverage", path]) == 0
    cov = {(r["transmitter"], r["receiver"]): r["coverage"]
           for r in json.loads(capsys.readouterr().out)["links"]}
    assert cli.main(["simulate", path]) == 0
    rows = json.loads(capsys.readouterr().out)["results"]
    assert {r["target"] for r in rows} == {"coverage", "delay"}
    for r in rows:
        c = cov[(r["transmitter"], r["receiver"])]
        assert r["closed_form"] == (c if r["target"] == "coverage" else 1.0 / c)


def test_kernel_built_once_per_invocation(tmp_path, capsys, monkeypatch):
    calls = []
    real = cli.build_K

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "build_K", counting)
    path = _write(tmp_path, _base_config())
    for command in ("coverage", "validate"):
        calls.clear()
        assert cli.main([command, path]) == 0
        assert len(calls) == 1
    capsys.readouterr()


# ---------------------------------------------------------------------------
# the table writer


def _dumps(header, key, fields, rows):
    doc = {**header, key: [dict(zip(fields, row)) for row in rows]}
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _columns(fields, rows):
    """The table ``rows`` as ``_emit_table`` takes it: {field: values}."""
    return {f: [row[i] for row in rows] for i, f in enumerate(fields)}


_COVERAGE_HEADER = {"mode": "pairs", "kernel_fingerprint": "ab" * 32,
                    "threshold": 1.0, "fading_mean": 0.5, "noise": 0.0}
_SIMULATE_HEADER = {"mode": "txrx", "replications": 100, "seed": 7, "workers": 2}


@pytest.mark.parametrize("header, key, fields, rows", [
    # pairs rows
    (_COVERAGE_HEADER, "links", _LINK_FIELDS, [
        (0, None, 0.5, 0.25, 0.125, 8.0, (), None),
        (1, None, 1e-300, 0.1 + 0.2, 3.0000000000000004e-301, 3.3333333333333335e+300, (), None),
    ]),
    # txrx rows, a two-flag row, a clamped row and error strings with quotes,
    # backslashes, control and non-ASCII characters
    ({**_COVERAGE_HEADER, "mode": "txrx"}, "links", _LINK_FIELDS, [
        (0, 1, 0.0, None, 0.0, None, ("never_scheduled", "infinite_delay"), None),
        (1, 0, 0.4, 1.0, 0.4, 2.5, ("clamped",), None),
        (2, 0, 0.3, None, None, None, (), 'distance 0.0 outside "tabulated" range \\ [0.1, 2]'),
        (2, 1, 0.3, None, None, None, (), "échec à 0.5 m: Δ → ∞, 距离\ttab\n😀"),
    ]),
    # an empty table: txrx with one node
    ({**_COVERAGE_HEADER, "mode": "txrx"}, "links", _LINK_FIELDS, []),
    # simulate rows with integer censored counts and null z-scores
    (_SIMULATE_HEADER, "results", cli._RESULT_FIELDS, [
        ("coverage", 0, 1, 0.25, 0.26, 0.01, 1.0000000000000009, None),
        ("coverage", 1, 0, None, 0.0, 0.0, None, None),
        ("delay", 0, 1, 4.0, 3.9, 0.2, 0.5, 0),
        ("delay", 2, 0, None, 5.5, 1.25, None, 12),
    ]),
    (_SIMULATE_HEADER, "results", cli._RESULT_FIELDS, []),
])
def test_emit_table_equals_json_dumps(tmp_path, header, key, fields, rows):
    out = tmp_path / "table.json"
    cli._emit_table(header, key, _columns(fields, rows), str(out))
    assert out.read_text(encoding="utf-8") == _dumps(header, key, fields, rows)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_emit_table_rejects_non_finite(tmp_path, bad):
    row = (0, None, 0.5, bad, 0.25, 4.0, (), None)
    with pytest.raises(ValueError):
        _dumps(_COVERAGE_HEADER, "links", _LINK_FIELDS, [row])
    with pytest.raises(ValueError):
        cli._emit_table(_COVERAGE_HEADER, "links", _columns(_LINK_FIELDS, [row]),
                        str(tmp_path / "x.json"))


def _cli_docs():
    """Configs whose reports hold pairs and txrx rows, flags, error rows (a
    signal lost to a zero path loss), an empty table and censored delay
    targets."""
    rng = np.random.default_rng(11)
    txrx = {
        "mode": "txrx",
        "nodes": rng.uniform(0.0, 1.0, size=(6, 2)).tolist(),
        "kernel": {"type": "gaussian", "sigma": 0.5, "scale": 0.6},
        "pathloss": {"type": "power_law", "kappa": 1.0, "beta": 3.0},
        "threshold": 0.5,
        "noise": 0.05,
        "simulate": {"reps": 300, "seed": 3, "targets": ["coverage", "delay"], "delay_cap": 2},
    }
    dead = _base_config(kernel={"type": "explicit_K", "matrix": [[0.0, 0.0], [0.0, 0.5]]})
    dead["simulate"] = {"reps": 50, "seed": 1, "targets": [["delay", 1]], "delay_cap": 1}
    # one replication has a standard error of 0, so a miss has no z-score
    single = _base_config(simulate={"reps": 1, "seed": 1})
    one = {**txrx, "nodes": [[0.0, 0.0]]}
    table = {**txrx, "pathloss": {"type": "custom", "radii": [0.0, 1.5], "values": [0.9, 0.1]}}
    lost = {
        "mode": "txrx",
        "nodes": [[0.0, 0.0], [0.5, 0.0], [2.0, 0.0]],
        "kernel": {"type": "aloha_diagonal", "probabilities": [0.5, 0.5, 0.5]},
        "pathloss": {"type": "custom", "radii": [0.0, 1.0, 3.0], "values": [1.0, 0.0, 0.0]},
        "threshold": 1.0,
    }
    return [("coverage", _base_config()), ("simulate", _base_config()),
            ("coverage", txrx), ("simulate", txrx), ("coverage", dead),
            ("simulate", dead), ("simulate", single), ("coverage", one), ("simulate", one),
            ("coverage", table), ("coverage", lost)]


def test_cli_reports_are_json_dumps_bytes(tmp_path, capsys):
    # a portable byte pin: the report is exactly what json.dumps(indent=2)
    # writes for its own parse
    seen = set()
    for i, (command, doc) in enumerate(_cli_docs()):
        assert cli.main([command, _write(tmp_path, doc, f"c{i}.json")]) == 0
        out = capsys.readouterr().out
        parsed = json.loads(out)
        assert json.dumps(parsed, indent=2, allow_nan=False) + "\n" == out
        rows = parsed.get("links", parsed.get("results"))
        seen |= {"empty"} if not rows else set()
        seen |= {f for r in rows for f in r.get("flags", ())}
        seen |= {"error" for r in rows if r.get("error")}
        seen |= {"censored" for r in rows if r.get("censored")}
        seen |= {"null z" for r in rows if "z_score" in r and r["z_score"] is None}
    assert seen >= {"empty", "never_scheduled", "infinite_delay", "error", "censored",
                    "null z"}


def _printed_rows(doc):
    """``full_report``'s rows of the config ``doc`` as the CLI prints them:
    {field: value}, a non-finite number None, and a link whose delay mean is
    infinite flagged infinite_delay."""
    cfg = cli.parse_config_dict(doc)
    rows = []
    for lr in ds.full_report(cfg.geometry, cfg.K, cfg.params).links:
        row = dataclasses.asdict(lr)
        for f, v in row.items():
            if isinstance(v, float) and not math.isfinite(v):
                row[f] = None
        if lr.delay_mean == math.inf:
            row["flags"] += ("infinite_delay",)
        rows.append(row)
    return rows


def _csv_text(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return format(v, ".17g")
    return ";".join(v) if isinstance(v, tuple) else str(v)


def test_cli_rows_are_the_library_rows(tmp_path, capsys, monkeypatch):
    # the CLI writes its rows from the report's columns, not from LinkReports:
    # each JSON and CSV row is the full_report row, field for field
    always = {"mode": "txrx", "nodes": [[0.0, 0.0], [1.0, 0.0]],
              "kernel": {"type": "explicit_K", "matrix": [[0.5, 0.0], [0.0, 1.0 - 1e-12]]},
              "pathloss": {"type": "power_law", "kappa": 1.0, "beta": 2.0}, "threshold": 1.0}
    docs = [doc for _, doc in _cli_docs()] + [always, "clamped"]
    seen = set()
    for i, doc in enumerate(docs):
        if doc == "clamped":
            # no valid kernel is known to take a conditional coverage out of
            # [0, 1] by more than 1e-9, so the library and the CLI alike read
            # the base config's raw values scaled by 1.5
            from detsched import coverage
            real = coverage._evaluate

            def inflated(*args):
                raw, failures = real(*args)
                return 1.5 * raw, failures

            monkeypatch.setattr(coverage, "_evaluate", inflated)
            doc = _base_config()
        want = _printed_rows(doc)
        path = _write(tmp_path, doc, f"c{i}.json")
        assert cli.main(["coverage", path]) == 0
        rows = json.loads(capsys.readouterr().out)["links"]
        assert [{**r, "flags": tuple(r["flags"])} for r in rows] == want
        assert cli.main(["coverage", path, "--format", "csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows == [list(_LINK_FIELDS)] + [[_csv_text(v) for v in r.values()]
                                                   for r in want]
        seen |= {f for r in want for f in r["flags"]} | {"error" for r in want if r["error"]}
    assert seen == {"never_scheduled", "receiver_always_scheduled", "infinite_delay",
                    "clamped", "error"}


def _simulated_rows(doc):
    """The simulate rows of the config ``doc``, built from the public
    simulators and ``full_report``: coverage rows, then delay rows, each
    in link-table order; a non-finite number None."""
    cfg = cli.parse_config_dict(doc)
    geo, K, params, plan = cfg.geometry, cfg.K, cfg.params, cfg.plan
    closed = {(lr.transmitter, lr.receiver): lr.coverage
              for lr in ds.full_report(geo, K, params).links}
    runs = []
    if "coverage" in cfg.targets:
        cov = (dict(enumerate(ds.simulate_pair_coverage(geo, K, params, plan)))
               if geo.mode == "pairs" else ds.simulate_txrx(geo, K, params, plan))
        runs.append(("coverage", cov))
    links = [t[1] for t in cfg.targets if isinstance(t, tuple)]
    if "delay" in cfg.targets or links:
        links = None if "delay" in cfg.targets else links
        runs.append(("delay", ds.simulate_local_delay(geo, K, params, plan, links=links)))

    def finite(v):
        return v if v is None or math.isfinite(v) else None

    rows = []
    for target, estimates in runs:
        for key, est in sorted(estimates.items()):
            tx, rx = key if geo.mode == "txrx" else (key, None)
            c = closed[tx, rx]
            if target == "delay" and c is not None:
                c = ds.local_delay(c).capped_mean(plan.delay_cap)
            z = None
            if c is not None:
                diff = abs(est.mean - c)
                z = diff / est.std_error if est.std_error > 0 else 0.0 if diff == 0 else None
            rows.append({"target": target, "transmitter": tx, "receiver": rx,
                         "closed_form": finite(c), "estimate": finite(est.mean),
                         "std_error": finite(est.std_error), "z_score": finite(z),
                         "censored": est.censored if target == "delay" else None})
    return rows


def test_simulate_rows_are_the_simulators_estimates(tmp_path, capsys):
    # each JSON and CSV row of simulate is the public simulator's estimate
    # of its link, field for field, beside full_report's coverage or its
    # capped delay mean: on the reports of _cli_docs and, per mode, on
    # coverage alone, every link's delay, coverage beside one link, one
    # link named twice (one row) and every link's delay beside one link
    docs = [doc for command, doc in _cli_docs() if command == "simulate"]
    for mode in ("pairs", "txrx"):
        link = _typed_config(mode)["simulate"]["targets"][1]
        for targets in (["coverage"], ["delay"], ["coverage", link], [link, link],
                        ["delay", link]):
            doc = _typed_config(mode)
            doc["simulate"]["targets"] = targets
            docs.append(doc)
    seen = set()
    for i, doc in enumerate(docs):
        want = _simulated_rows(doc)
        path = _write(tmp_path, doc, f"c{i}.json")
        assert cli.main(["simulate", path]) == 0
        assert json.loads(capsys.readouterr().out)["results"] == want
        assert cli.main(["simulate", path, "--format", "csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows == [list(cli._RESULT_FIELDS)] + [[_csv_text(v) for v in r.values()]
                                                         for r in want]
        seen |= {r["target"] for r in want} | {"censored" for r in want if r["censored"]}
        seen |= {"null z" for r in want if r["z_score"] is None}
    assert seen == {"coverage", "delay", "censored", "null z"}


# ---------------------------------------------------------------------------
# validate predicts the other commands


# legal extremes of a positive number; 0 where a key allows it
_POSITIVE = st.sampled_from([5e-324, 1e-300, 1e-13, 0.5, 1.0, 3.0, 1e300, 1.7e308])
_NONNEGATIVE = st.one_of(st.just(0.0), _POSITIVE)


@st.composite
def _fuzzed_configs(draw):
    """A small config of either mode, every kernel and path-loss type and
    both targets, with extreme legal values; a quarter of them get one
    illegal value, and random explicit matrices are mostly illegal too."""
    mode = draw(st.sampled_from(["pairs", "txrx"]))
    n = draw(st.integers(1, 3))
    coord = st.sampled_from([0.0, 1e-13, 0.1, 1.0, 2.5, -1e300, 1.7e308])
    points = [[draw(coord), draw(coord)] for _ in range(n)]
    if mode == "pairs":
        geometry = {"transmitters": points, "receivers": [[draw(coord), y] for _, y in points]}
    else:
        geometry = {"nodes": points}
    prob = st.sampled_from([0.0, 0.4, 1.0 - 1e-12, 1.0])
    kind = draw(st.sampled_from(["gaussian", "quality_similarity", "explicit_K", "explicit_L",
                                 "aloha_diagonal", "projection_K"]))
    if kind == "gaussian":
        kernel = {"type": kind, "sigma": draw(_POSITIVE), "scale": draw(_POSITIVE)}
    elif kind == "quality_similarity":
        kernel = {"type": kind, "quality": [draw(_POSITIVE) for _ in range(n)],
                  "similarity": np.eye(n).tolist()}
    elif kind == "aloha_diagonal":
        kernel = {"type": kind, "probabilities": [draw(prob) for _ in range(n)]}
    elif kind == "projection_K":
        # eigenvalues 0 and 1 on nodes 0 and 1, the rest at a probability
        mat = np.diag([draw(prob) for _ in range(n)])
        if n > 1:
            mat[:2, :2] = 0.5
        kernel = {"type": "explicit_K", "matrix": mat.tolist()}
    else:
        a = np.array([[draw(_NONNEGATIVE) for _ in range(n)] for _ in range(n)])
        kernel = {"type": kind, "matrix": (np.triu(a) + np.triu(a, 1).T).tolist()}
    if draw(st.booleans()):
        pathloss = {"type": "power_law", "kappa": draw(_POSITIVE),
                    "beta": draw(st.sampled_from([2.0, 4.0, 400.0]))}
    else:
        pathloss = {"type": "custom", "radii": draw(st.sampled_from([[0.0, 1e300], [0.5, 2.0]])),
                    "values": draw(st.sampled_from([[1.0, 0.0], [1e300, 1e-300]]))}
    link = draw(st.sampled_from([0, 1, [0, 1], [1, 0]]))
    targets = draw(st.sampled_from([["coverage"], ["delay"], ["coverage", "delay"],
                                    [["delay", link]]]))
    doc = {"mode": mode, **geometry, "kernel": kernel, "pathloss": pathloss,
           "threshold": draw(_NONNEGATIVE), "fading_mean": draw(_POSITIVE),
           "noise": draw(_NONNEGATIVE),
           "simulate": {"reps": draw(st.integers(1, 20)), "seed": draw(st.integers(0, 9)),
                        "targets": targets, "delay_cap": draw(st.integers(1, 50))}}
    if draw(st.integers(0, 3)) == 3:
        section, key, bad = draw(st.sampled_from([
            (None, "threshold", -1.0), (None, "fading_mean", 0.0), ("pathloss", "kappa", 0.0),
            ("pathloss", "values", [1.0, -1.0]), ("kernel", "sigma", 0.0),
            ("kernel", "probabilities", [1.5] * n), ("simulate", "reps", 0)]))
        part = doc if section is None else doc[section]
        if key in part or section is None:
            part[key] = bad
    return doc


@pytest.fixture(scope="module")
def _fuzz_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "cfg.json")


def _exit_code(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


@settings(derandomize=True, deadline=None, max_examples=600)
@given(doc=_fuzzed_configs())
# an explicit_K matrix on which the eigensolver fails to converge
@example(doc={"mode": "txrx", "nodes": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
              "kernel": {"type": "explicit_K",
                         "matrix": [[0.0, 0.0, 1.7e308], [0.0, 0.0, 0.0], [1.7e308, 0.0, 0.0]]},
              "pathloss": {"type": "power_law", "kappa": 1.0, "beta": 2.0},
              "threshold": 0.0, "fading_mean": 1.0, "noise": 0.0,
              "simulate": {"reps": 1, "seed": 0, "targets": ["coverage"], "delay_cap": 1}})
def test_validate_predicts_every_command(_fuzz_path, doc):
    # a config that validate accepts runs under every command; one it
    # rejects fails every command as a config problem
    with open(_fuzz_path, "w") as fh:
        json.dump(doc, fh)
    want = _exit_code(["validate", _fuzz_path])
    assert want in (0, 1)
    event(f"validate exits {want}")
    for argv in (["coverage"], ["simulate"], ["sample", "--count", "3"]):
        assert _exit_code([argv[0], _fuzz_path, *argv[1:]]) == want, (argv, doc)
