"""Smoke test of tools/layer_times.py, the per-chunk layer timer."""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

from cescov import mc_verify

_spec = importlib.util.spec_from_file_location(
    "layer_times", Path(__file__).parents[1] / "tools" / "layer_times.py"
)
layer_times = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layer_times)


@pytest.mark.parametrize("target", list(layer_times.ROWS))
def test_every_row_is_finite_and_restores_mc_verify(target):
    originals = {name: getattr(mc_verify, name) for name in layer_times.PATCHED}
    p = layer_times.ROWS[target][1]  # the row's smallest p
    t = layer_times.layer_times(target, p, 10, repeat=1)
    assert tuple(t) == layer_times.COLUMNS
    assert all(math.isfinite(v) for v in t.values()), t
    assert t["draw"] > 0 and t["draw0"] > 0 and t["statistic"] > 0
    assert t["ws_mb"] > 0
    assert t["m"] == mc_verify._chunk_size(10, p)  # the row's own chunk size
    assert {name: getattr(mc_verify, name) for name in layer_times.PATCHED} == originals


def test_no_row_runs_below_its_smallest_p(monkeypatch, capsys):
    # at --p 1 every row is skipped (thm3 needs an off-diagonal pair), so the
    # table holds its header and the CSV line only
    monkeypatch.setattr(layer_times, "csv_times", lambda n, repeat: {"dump": 1.0, "parse": 1.0, "exact": True})
    monkeypatch.setattr(sys, "argv", ["layer_times.py", "--p", "1", "--repeat", "1"])
    layer_times.main()
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 and lines[2].startswith("csv t:10")


def test_header_names_the_bit_generator_and_stream_contract(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    header = layer_times.versions()
    assert "SFC64 streams" in header
    assert f"stream contract {mc_verify.STREAM_CONTRACT}" in header
    assert "OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=2 MKL_NUM_THREADS=unset" in header


def test_csv_line_times_a_bit_exact_round_trip():
    t = layer_times.csv_times(600, repeat=2)  # two blocks of rows
    assert t["dump"] > 0 and t["parse"] > 0
    assert math.isfinite(t["dump"]) and math.isfinite(t["parse"])
    assert t["exact"] is True
