"""Smoke tests for the benchmark: every workload at a tiny size, fixed seed.

They check the result schema against BENCHMARK.json, that no request
fails, and that a seed always yields the same inputs.  cli-readme runs
two of its commands here; the benchmark itself runs them all.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import cli_readme
import run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_COMMANDS = {"normalize", "diagonalize"}


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(run, "PASSES", 1)
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    make = run.make

    def make_small(name):
        workload = make(name)
        if name == "cli-readme":
            workload.invocations = [inv for inv in workload.invocations
                                    if inv["argv"][0] in SMOKE_COMMANDS]
            workload.block = sum(2 if inv["verify"] else 1 for inv in workload.invocations)
            workload.passes = 1
        return workload

    monkeypatch.setattr(run, "make", make_small)


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_clean_and_reports_every_metric(small, name):
    runs = {trace: run.run(name, seed=7, seconds=0.1, trace=trace) for trace in (False, True)}
    for trace, (properties, result) in runs.items():
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert properties["error_ratio"] == 0
        declared = SPEC["per_layer" if trace else "end_to_end"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in declared}
    assert all(v["value"] > 0 for v in runs[False][1]["metrics"].values())
    assert runs[False][0]["input_digest"] == runs[True][0]["input_digest"]
    assert runs[True][1]["metrics"]["trace.coverage"]["value"] > 0.5


def test_seeds_set_the_inputs():
    for name in ("matrix-mix", "vector-states"):
        digests = [run.digest(r for _, r in zip(range(32), run.make(name).requests(seed)))
                   for seed in (1, 1, 2)]
        assert digests[0] == digests[1] != digests[2]


def test_declared_metrics_match_the_benchmark():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == run.per_layer_metrics()


def test_fixtures_cover_the_readme_cli_block():
    assert [inv["argv"] for inv in cli_readme.CliReadme().invocations] == cli_readme.readme_commands()


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "matrix-mix",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
