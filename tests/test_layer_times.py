"""Smoke test of tools/layer_times.py, the per-chunk layer timer."""

import importlib.util
import math
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
    p = max(2, layer_times.ROWS[target][1])  # thm3 at p = 2, the spiked rows at p = 3
    t = layer_times.layer_times(target, p, 10, repeat=1)
    assert tuple(t) == layer_times.COLUMNS
    assert all(math.isfinite(v) for v in t.values()), t
    assert t["draw"] > 0 and t["draw0"] > 0 and t["statistic"] > 0
    assert t["ws_mb"] > 0
    assert t["m"] == mc_verify._chunk_size(10, p)  # the row's own chunk size
    assert {name: getattr(mc_verify, name) for name in layer_times.PATCHED} == originals


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
