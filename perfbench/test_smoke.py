"""Smoke run of the benchmark on tiny instances.

Run from the repository root with ``python -m pytest perfbench``.  Each
workload runs untraced twice and traced once: every metric the benchmark
declares must print with its unit, every check must pass, and the result
digest must repeat across runs and with tracing on.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, cwd=ROOT, seed=3):
    cmd = [sys.executable, f"{HERE.name}/run.py", "--workload", workload, "--seed",
           str(seed), "--seconds", "0.3", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert all(line.startswith("#") for line in lines[:-1])
    notes = {}
    for line in lines[:-1]:
        key, sep, value = line[2:].partition(" = ")
        if sep:
            notes[key] = value
    digest = next(line.split()[-1] for line in lines if line.startswith("# digest:"))
    return json.loads(lines[-1]), notes, digest


def assert_metrics(result, declared):
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run(workload):
    first, notes, digest = parse(bench(workload, 0))
    again, _, digest_again = parse(bench(workload, 0))
    traced, _, digest_traced = parse(bench(workload, 1))
    for result in (first, again, traced):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert digest == digest_again == digest_traced
    assert_metrics(first, SPEC["end_to_end"])
    assert_metrics(traced, SPEC["per_layer"])
    # the workload's own throughput prints by name with its unit
    named = [v for k, v in notes.items() if k.endswith("_per_s")]
    assert len(named) == 2 and all(v.split()[1].endswith("s/s") for v in named)
    assert notes["error_rate"].startswith("0 ")


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
