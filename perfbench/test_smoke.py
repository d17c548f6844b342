"""Smoke test for the benchmark: every workload at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs untraced and traced with ``--smoke``: the ones
BENCHMARK.json lists and infer-wide, which run.py still offers.  The test checks
that every metric BENCHMARK.json names is printed with its unit, that the
run's own correctness checks and the trace self-check ran and passed, and
that two traced runs with the same seed give the same computed counts.
It also checks that the benchmark fails, without printing a result, when
the program's sources are missing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
# infer-wide is not listed in BENCHMARK.json but stays runnable, so it is tested too
WORKLOADS = sorted({w["name"] for w in SPEC["workloads"]} | {"infer-wide"})
# computed from shapes alone, so they must repeat exactly
EXACT = ["autodiff.nodes", "autodiff.out_mb", "network.build_feature_volume.out_mb",
         "convops.conv2d.gflop", "convops.conv3d.gflop", "convops.deconv3d.gflop"]


def _run(workload, trace, run_py=HERE / "run.py", check=True):
    return subprocess.run(
        [sys.executable, str(run_py), "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, check=check)


def _parse(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def _assert_result(detail, result, metrics):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], detail["checks"]
    assert result["failed"] == detail["ops_failed"] == 0
    assert result["attempted"] == detail["ops_attempted"] >= 2
    assert set(result["metrics"]) == {m["name"] for m in metrics}
    for m in metrics:
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m["name"]
    env = detail["env"]
    assert env["seed"] == 3 and env["nproc"] >= 1
    assert set(env["blas_thread_vars"].values()) == {"1"}
    assert {"python", "numpy", "blas", "cpu_model"} <= set(env)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    detail, result = _parse(_run(workload, 0))
    _assert_result(detail, result, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_layer_metric_and_checks_itself(workload):
    (detail, result), (_, again) = (_parse(_run(workload, 1)) for _ in range(2))
    _assert_result(detail, result, SPEC["per_layer"])
    assert detail["checks"]["trace_self_check"], detail["trace_check"]
    assert 0.9 <= detail["trace_check"]["coverage_min"] <= 1.0
    assert (HERE.parent / detail["spans_file"]).is_file()
    for name in EXACT:
        assert result["metrics"][name]["value"] == again["metrics"][name]["value"], name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = _run(WORKLOADS[0], 0, run_py=tmp_path / HERE.name / "run.py", check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    sys.exit(pytest.main(["-q", __file__]))
