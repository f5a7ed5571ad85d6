"""Toy-size smoke test of the benchmark: every workload, both modes.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from spec import END_TO_END, PER_LAYER, benchmark_json  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_appears_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace, "--toy")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = END_TO_END if trace == "0" else PER_LAYER
    assert set(result["metrics"]) == {m[0] for m in expected}
    for name, unit, *_ in expected:
        assert result["metrics"][name]["unit"] == unit
        assert isinstance(result["metrics"][name]["value"], (int, float))
    # The human-readable lines name every metric of both kinds with its unit.
    printed = {l.split(" = ")[0].strip(): l for l in lines[:-1] if " = " in l}
    shown = END_TO_END + (PER_LAYER if trace == "1" else [])
    for name, unit, *_ in shown:
        assert printed[name].endswith(f" {unit}")
    assert printed["failed_frac"].endswith(" 0.0 ratio")
    env = json.loads(next(l for l in lines if l.startswith("env "))[4:])
    assert env["seed"] == 3 and env["workload"] == workload and env["why"]
    if trace == "1":
        spans = json.loads((ROOT / ".perfbench" / f"{workload}-seed3-toy" / "spans.json").read_text())
        names = {s["name"].split(".")[0] for s in spans["spans"]}
        assert {"synth", "dataio", "ordering", "graphs", "training", "model", "inference"} <= names


def test_committed_spec_matches_the_code():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == benchmark_json()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "scene6", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
