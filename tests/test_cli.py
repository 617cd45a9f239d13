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
    assert cfg.plan.targets == ("coverage",)


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
    doc["simulate"]["typo"] = 3
    with pytest.raises(ds.ConfigError) as err:
        cli.parse_config_dict(doc)
    paths = [p for p, _ in err.value.problems]
    assert "extra" in paths
    assert "kernel.bogus" in paths
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
    assert cfg.plan.targets == ("coverage", "delay", ("delay", 1))

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
    assert cfg.plan.targets == (("delay", (0, 1)),)
    txrx["simulate"]["targets"] = [["delay", [0, 0]]]
    with pytest.raises(ds.ConfigError):
        cli.parse_config_dict(txrx)


def test_parse_config_top_level_must_be_object():
    with pytest.raises(ds.ConfigError):
        cli.parse_config_dict([1, 2, 3])


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


def test_echo_config_round_trip(tmp_path, capsys):
    path = _write(tmp_path, _base_config())
    assert cli.main(["coverage", path, "--echo-config"]) == 0
    first = capsys.readouterr().out
    path2 = tmp_path / "normalized.json"
    path2.write_text(first)
    assert cli.main(["coverage", str(path2), "--echo-config"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_output_flag_writes_file(tmp_path, capsys):
    path = _write(tmp_path, _base_config())
    out = tmp_path / "report.json"
    assert cli.main(["coverage", path, "--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(out.read_text())
    assert doc["mode"] == "pairs"


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
    path.write_text("{nope")
    assert cli.main(["coverage", str(path)]) == 2
    assert "cannot parse" in capsys.readouterr().err


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
