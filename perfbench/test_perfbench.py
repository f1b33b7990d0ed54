"""The benchmark's own tests: ``python -m pytest perfbench -q``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.spans import SpanRecorder

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def _run(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_declared_metric(workload, trace):
    done = _run("--workload", workload, "--seed", "7", "--seconds", "2",
                "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for metric in declared:  # printed by name with the unit, too
        assert any(
            line.split()[0] == metric["name"] and line.split()[-1] == metric["unit"]
            for line in done.stdout.splitlines()[:-1]
        )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perturbed_reference_counts_every_answer_wrong(workload, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(ROOT / ".bench_build" / "perfbench" / "kernels"))
    from perfbench.run import run_benchmark

    result, meta = run_benchmark(workload, 5, 1.0, trace=False, tiny=True, perturb=True)
    assert not result["correct"]
    assert result["failed"] >= meta["wrong_answers"] > 0
    assert meta["failed_frac"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_self_time_subtracts_the_union_of_children():
    recorder = SpanRecorder()
    ms = 1_000_000
    recorder.spans = [
        (1, 0, 1, "outer", 0, 100 * ms, None),
        # Two overlapping children (parallel scatter) and one nested
        # grandchild, which must not be subtracted from the outer span.
        (2, 1, 1, "hop", 10 * ms, 50 * ms, None),
        (3, 1, 1, "hop", 30 * ms, 70 * ms, None),
        (4, 2, 1, "inner", 20 * ms, 40 * ms, None),
    ]
    selfs = recorder.self_times()
    assert selfs["outer"] == pytest.approx(0.040)
    assert selfs["hop"] == pytest.approx(0.020 + 0.040)
    assert selfs["inner"] == pytest.approx(0.020)
