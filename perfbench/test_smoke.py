"""Smoke test of the benchmark at tiny input sizes.

Checks that every workload runs, passes its correctness checks, and emits
every metric declared in BENCHMARK.json, untraced and traced; and that the
benchmark's a5a stand-in is byte for byte the acceptance suite's file.

Run from the checkout root: python3 -m pytest -q perfbench/test_smoke.py
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))


def test_a5a_stand_in_matches_the_acceptance_suite(tmp_path):
    spec = importlib.util.spec_from_file_location("conftest", os.path.join(ROOT, "tests",
                                                                            "conftest.py"))
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    ours = inputs.synthesize_binary_dataset(str(tmp_path / "ours.libsvm"))
    theirs = conftest.synthesize_binary_dataset(str(tmp_path / "theirs.libsvm"))
    with open(ours, "rb") as a, open(theirs, "rb") as b:
        assert a.read() == b.read()
