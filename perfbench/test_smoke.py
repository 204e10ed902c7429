"""Smoke self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric BENCHMARK.json names is emitted with its unit,
that a deliberately corrupted output is counted as failed, and that the
benchmark refuses to report when the program is missing.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import ops  # noqa: E402
from spans import Tracer  # noqa: E402
from worker import closed_loop  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    named = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for m in named:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


def test_corrupted_fitted_parameter_counts_as_failed(tmp_path):
    gc = ops.import_growthcast()
    wl = ops.ShortBatch(7, tmp_path, "tiny")
    wl.gc = gc
    wl.items = [s for s in wl.items if s.family == "exp_const"]
    clean = closed_loop(wl, 0.0, Tracer(False), min_ops=len(wl.items))
    assert clean["failed"] == 0, clean["errors"]

    real = gc.fitting.fit_rate_model

    def perturbed(*args, **kwargs):
        report = real(*args, **kwargs)
        params = dataclasses.replace(report.model.params, a=report.model.params.a + 0.05)
        return dataclasses.replace(report, model=dataclasses.replace(report.model, params=params))

    gc.fitting.fit_rate_model = perturbed
    try:
        corrupted = closed_loop(wl, 0.0, Tracer(False), min_ops=len(wl.items))
    finally:
        gc.fitting.fit_rate_model = real
    assert corrupted["attempted"] == len(wl.items)
    assert corrupted["failed"] == corrupted["wrong"] == len(wl.items), corrupted["errors"]


def test_refuses_to_report_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in BENCH["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, BENCH["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
