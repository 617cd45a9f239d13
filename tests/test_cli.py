import copy
import csv
import dataclasses
import io
import json
import math

import numpy as np
import pytest

import detsched as ds
from detsched import cli


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
    """Equal dataclasses, field by field, arrays by value."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


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

    monkeypatch.setattr(cli._coverage, "full_report", fail)
    with pytest.raises(np.linalg.LinAlgError):
        cli.main(["coverage", _write(tmp_path, _base_config())])


def test_exit_code_computation_error(tmp_path, capsys):
    doc = _base_config(
        transmitters=[[0.0, 0.0]],
        receivers=[[0.0, 0.5]],
        kernel={"type": "aloha_diagonal", "probabilities": [1.0]},
    )
    path = _write(tmp_path, doc)
    # closed forms are fine with probability one...
    assert cli.main(["coverage", path]) == 0
    capsys.readouterr()
    # ...but there is no likelihood kernel to simulate from
    assert cli.main(["simulate", path, "--reps", "10", "--seed", "1"]) == 3
    assert "computation failed" in capsys.readouterr().err


def test_path_loss_overflow_is_a_computation_error(tmp_path, capsys):
    # r^-400 overflows a double at r = 0.1: coverage reports the affected
    # links as error rows, and simulate refuses the instance
    doc = _base_config(
        mode="txrx",
        nodes=[[0.0, 0.0], [0.1, 0.0], [1.0, 0.0]],
        kernel={"type": "aloha_diagonal", "probabilities": [0.5, 0.5, 0.5]},
        pathloss={"type": "power_law", "kappa": 1.0, "beta": 400.0},
    )
    del doc["transmitters"], doc["receivers"]
    path = _write(tmp_path, doc)
    assert cli.main(["coverage", path]) == 0
    captured = capsys.readouterr()
    errors = {(r["transmitter"], r["receiver"]): r["error"]
              for r in json.loads(captured.out)["links"]}
    assert errors[(1, 2)] is None
    assert errors[(0, 1)] == errors[(2, 1)] == "power-law path loss overflows at distance 0.1"
    assert "Traceback" not in captured.err
    assert cli.main(["simulate", path]) == 3
    err = capsys.readouterr().err
    assert "overflows at distance 0.1" in err and "Traceback" not in err


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
    assert tuple(json.loads(capsys.readouterr().out)["links"][0]) == cli._LINK_FIELDS
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

    def spy(geometry, K, params, rows, *args, **kwargs):
        evaluated.append(rows.tolist())
        return real(geometry, K, params, rows, *args, **kwargs)

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


_COVERAGE_HEADER = {"mode": "pairs", "kernel_fingerprint": "ab" * 32,
                    "threshold": 1.0, "fading_mean": 0.5, "noise": 0.0}
_SIMULATE_HEADER = {"mode": "txrx", "replications": 100, "seed": 7, "workers": 2}


@pytest.mark.parametrize("header, key, fields, rows", [
    # pairs rows
    (_COVERAGE_HEADER, "links", cli._LINK_FIELDS, [
        (0, None, 0.5, 0.25, 0.125, 8.0, (), None),
        (1, None, 1e-300, 0.1 + 0.2, 3.0000000000000004e-301, 3.3333333333333335e+300, (), None),
    ]),
    # txrx rows, a two-flag row, a clamped row and error strings with quotes,
    # backslashes, control and non-ASCII characters
    ({**_COVERAGE_HEADER, "mode": "txrx"}, "links", cli._LINK_FIELDS, [
        (0, 1, 0.0, None, 0.0, None, ("never_scheduled", "infinite_delay"), None),
        (1, 0, 0.4, 1.0, 0.4, 2.5, ("clamped",), None),
        (2, 0, 0.3, None, None, None, (), 'distance 0.0 outside "tabulated" range \\ [0.1, 2]'),
        (2, 1, 0.3, None, None, None, (), "échec à 0.5 m: Δ → ∞, 距离\ttab\n😀"),
    ]),
    # an empty table: txrx with one node
    ({**_COVERAGE_HEADER, "mode": "txrx"}, "links", cli._LINK_FIELDS, []),
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
    cli._emit_table(header, key, fields, rows, str(out))
    assert out.read_text(encoding="utf-8") == _dumps(header, key, fields, rows)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_emit_table_rejects_non_finite(tmp_path, bad):
    row = (0, None, 0.5, bad, 0.25, 4.0, (), None)
    with pytest.raises(ValueError):
        _dumps(_COVERAGE_HEADER, "links", cli._LINK_FIELDS, [row])
    with pytest.raises(ValueError):
        cli._emit_table(_COVERAGE_HEADER, "links", cli._LINK_FIELDS, [row],
                        str(tmp_path / "x.json"))


def _cli_docs():
    """Configs whose reports hold pairs and txrx rows, flags, error rows, an
    empty table and censored delay targets."""
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
    short_table = {**txrx, "pathloss": {"type": "custom", "radii": [0.1, 0.7],
                                        "values": [0.9, 0.1]}}
    overflow = {
        "mode": "txrx",
        "nodes": [[0.0, 0.0], [0.1, 0.0], [1.0, 0.0]],
        "kernel": {"type": "aloha_diagonal", "probabilities": [0.5, 0.5, 0.5]},
        "pathloss": {"type": "power_law", "kappa": 1.0, "beta": 400.0},
        "threshold": 1.0,
    }
    return [("coverage", _base_config()), ("simulate", _base_config()),
            ("coverage", txrx), ("simulate", txrx), ("coverage", dead),
            ("simulate", dead), ("simulate", single), ("coverage", one), ("simulate", one),
            ("coverage", short_table), ("coverage", overflow)]


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
