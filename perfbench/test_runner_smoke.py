"""Smoke test of the benchmark runner on a tiny load.

Shrinks every workload to a handful of points and calls, then checks that
each run prints exactly the metrics ``BENCHMARK.json`` names, with their
units, that a wrong expected verdict fails the run, that traced call counts
repeat exactly, and that the runner refuses a directory without sources.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

sys.path.insert(0, str(run.SRC))
import bench_workloads as bw  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(bw, "GRID3D", {"hyperbolic3": 4})
    monkeypatch.setattr(bw, "GRID2D", {"hyperbolic2": 3, "schwarzschild_tr": 3, "euclid_cone": 3})
    monkeypatch.setattr(bw, "CLI_BUILTINS", ("schwarzschild_tr",))
    monkeypatch.setattr(bw, "CLI_CLASSIFY_POINTS", 2)
    monkeypatch.setattr(run, "MIN_REQUESTS", {})
    monkeypatch.setattr(run, "SETUP_REPS", 1)


def _run(capsys, workload, trace, seed=3):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                     "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return code, result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(tiny, capsys, workload, trace):
    code, result = _run(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["grid2d", "cli"])
def test_wrong_expected_verdict_fails_the_run(tiny, capsys, monkeypatch, workload):
    real = bw.expected_for

    def wrong(name):
        expected = real(name)
        return dataclasses.replace(expected, totally_umbilical=not expected.totally_umbilical)

    monkeypatch.setattr(bw, "expected_for", wrong)
    code, result = _run(capsys, workload, 0)
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_layer_counts_repeat_exactly(tiny, capsys):
    counts = []
    for _ in range(2):
        _, result = _run(capsys, "grid3d", 1)
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if k.endswith(".calls_per_pt")})
    assert counts[0] == counts[1]
    assert counts[0]["semiriemann.metric_jets_at.calls_per_pt"] == 7.0
    _, result = _run(capsys, "grid2d", 1)
    assert result["metrics"]["semiriemann.metric_jets_at.calls_per_pt"]["value"] == 1.0


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid2d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
