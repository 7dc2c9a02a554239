"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ARGS = ["--workload", "thm3-gauss-p2", "--seed", "5", "--seconds", "0.1"]


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_workloads_match_spec():
    sys.path.insert(0, str(BENCH))
    import workloads

    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_prints_every_metric_with_its_unit(trace, kind):
    proc = _run(*ARGS, "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-2]}
    assert printed == expected
    if trace:
        assert result["metrics"]["ces_sampler.streams_per_item"]["value"] == 1.0


def test_perturbed_result_counts_as_failure(monkeypatch, capsys):
    sys.path.insert(0, str(BENCH))
    import run

    cescov = run._import_cescov()
    real = cescov.mc_verify.empirical_moments

    def perturbed(cfg):
        emp = real(cfg)
        return dataclasses.replace(emp, mse_emp=emp.mse_emp + 10 * emp.se_mse)

    monkeypatch.setattr(cescov.mc_verify, "empirical_moments", perturbed)
    code = run.main([*ARGS, "--trace", "0"])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    assert code == 1
    assert not result["correct"] and result["failed"] > 0
    assert detail["fail_frac"] > 0


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(*ARGS, "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
