"""Smoke test of the benchmark at tiny sizes.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/smoke_test.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ROOT_WORKLOADS = ("escape", "bands", "piezo")


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", "0.5", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def parsed(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.fixture(scope="module")
def results():
    return {(w["name"], trace): parsed(run_bench(w["name"], trace))
            for w in SPEC["workloads"] for trace in (0, 1)}


@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_printed_with_its_unit(results, trace):
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    for w in SPEC["workloads"]:
        _, result = results[(w["name"], trace)]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in wanted}
        for m in wanted:
            got = result["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float))


@pytest.mark.parametrize("trace", (0, 1))
def test_oracle_checks_run(results, trace):
    for w in SPEC["workloads"]:
        record, _ = results[(w["name"], trace)]
        oracle = record["oracle"]
        assert record["outputs_checked"] >= 1
        assert oracle["check_fail"] == 0, oracle["notes"]
        if w["name"] in ROOT_WORKLOADS:
            assert oracle["oracle_roots"] >= 1
        else:
            assert 0.0 < oracle["failed_frac"] < 1.0  # T overflow rows


def test_one_command_runs_every_workload():
    _, result = parsed(run_bench("all", 0))
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {
        f"{w['name']}.{m['name']}"
        for w in SPEC["workloads"] for m in SPEC["end_to_end"]}


def test_traced_time_is_attributed_to_layers(results):
    import tracing
    for w in SPEC["workloads"]:
        _, result = results[(w["name"], 1)]
        m = {k: v["value"] for k, v in result["metrics"].items()}
        attributed = sum(m[f"{layer}.self_s"]
                         for layer in tracing.LAYERS + ("other",))
        assert attributed == pytest.approx(m["trace.wall_s"], rel=1e-6)
        assert all(m[f"{layer}.self_s"] >= 0.0 for layer in tracing.LAYERS)


def test_record_pins_blas_and_names_versions(results):
    record, _ = results[("escape", 0)]
    assert record["seed"] == 7
    assert record["blas_threads"] in (1, None)
    for key in ("python", "numpy", "scipy", "nproc", "commit"):
        assert key in record


def test_tracer_wraps_every_binding_and_restores_it():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import numpy as np

    import mslwave
    import tracing
    from mslwave import compose, propagators, qep, solvers, verify
    bindings = (mslwave, qep, compose, propagators, solvers, verify)
    original = qep.solve_qep
    original_solve = np.linalg.solve
    patches = tracing.install(tracing.Tracer())
    try:
        wrapped = {id(mod.solve_qep) for mod in bindings}
        assert len(wrapped) == 1 and id(original) not in wrapped
        assert np.linalg.solve is not original_solve
    finally:
        tracing.uninstall(patches)
    assert all(mod.solve_qep is original for mod in bindings)
    assert np.linalg.solve is original_solve


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("escape", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
