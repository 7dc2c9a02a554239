"""Smoke test of tools/report_digests.py, the bit-identity check of two trees."""

import os
import re
import subprocess
import sys
from pathlib import Path

import cescov

ROOT = Path(__file__).parents[1]
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def test_two_runs_print_identical_lines():
    # one run under single-threaded BLAS, one under two BLAS threads: the
    # tool pins the thread count, so the transport lines must not change
    runs = [
        subprocess.run(
            [sys.executable, str(ROOT / "tools" / "report_digests.py"), "--tiny"],
            env={**os.environ, "PYTHONPATH": str(Path(cescov.__file__).parents[1]),
                 **dict.fromkeys(THREAD_VARS, threads)},
            capture_output=True, text=True, timeout=300, check=True,
        ).stdout.splitlines()
        for threads in ("1", "2")
    ]
    assert runs[0] == runs[1]
    # 7 Monte Carlo runs at workers 1, 2 and 4, 4 sampled files at 2 shapes,
    # each with the estimate from it, 5 theory reports and the curve
    assert len(runs[0]) == 7 * 3 + 4 * 2 * 2 + 5 + 1
    assert all(re.fullmatch(r"[\w:.-]+ [0-9a-f]{64}", line) for line in runs[0]), runs[0]
    names = [line.split()[0] for line in runs[0]]
    assert len(set(names)) == len(names)
    # the worker count changes no bit of a Monte Carlo run
    digests = {name: line.split()[1] for name, line in zip(names, runs[0])}
    for name in names:
        if name.endswith("-w1"):
            assert digests[name[:-1] + "2"] == digests[name] == digests[name[:-1] + "4"], name
