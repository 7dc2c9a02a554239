"""Pass rates of one ``mc-verify`` configuration over a range of seeds: the
false-fail rate of its checks when the program is right, and their power
against a scaled closed form.

Runs the configuration at every seed of ``--seeds A:B`` (both ends
included) and prints one JSON record:

* ``config``: the configuration, with the factors of ``--perturb``;
* ``machine``: the numpy and python versions, ``os.cpu_count()`` and the
  BLAS thread variables (or "unset");
* ``runs``, ``passed`` and ``wilson95``, the Wilson 95 % score interval of
  the pass rate (Wilson, JASA 1927);
* ``checks``: per check of the report, ``over`` (the runs whose value is
  not below its limit), its ``limit`` and the ``mean``, ``sd`` and ``max``
  of its value;
* ``z``: per z-score check (``*_z``), the ``mean`` and ``sd`` of the signed
  z, (estimate - theory) / SE read from the report's details, and the
  fraction of runs ``beyond`` its limit;
* ``z_failed`` and ``z_wilson95``: the runs that fail a z-score check, and
  the Wilson 95 % interval of that rate, the family-wise false-fail rate
  that the checks' shared limit sets to ``mc_verify.ALPHA`` when the
  program is right;
* ``wall_s``: the time the runs took.

Every run is a call of ``mc_verify.verify_target``, so an unperturbed
record holds its reports, with nothing of the library wrapped.
``--perturb NAME=FACTOR`` (NAME ``tau1``, ``tau2`` or ``mse``; repeatable;
thm3 and transport only) scales that closed form where ``verify_target``
reads it: while the runs last, ``mc_verify.scm_radial_structure`` and
``mc_verify.mse_scm`` are wrapped so that they return their tau1, tau2 and
MSE times the factors, and the originals are put back afterwards, also
when a run raises.  tau1 and tau2 then reach the covariance pair and the
radial checks, and the MSE its check.  From the repository root, with BLAS single-threaded::

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 PYTHONPATH=src python3 tools/null_rates.py \\
        --target thm3 --dist gaussian --n 10 --p 2 --reps 2048 --seeds 1:300
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import time
from dataclasses import replace
from statistics import NormalDist

import numpy as np

from cescov import mc_verify as mc

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
PERTURBED = ("tau1", "tau2", "mse")


def wilson(k: int, n: int, level: float = 0.95) -> list[float]:
    """The Wilson score interval of a rate from k successes in n trials."""
    z = NormalDist().inv_cdf(0.5 + level / 2)
    centre = (k + z * z / 2) / (n + z * z)
    half = z / (n + z * z) * math.sqrt(k * (n - k) / n + z * z / 4)
    return [max(centre - half, 0.0), min(centre + half, 1.0)]


@contextlib.contextmanager
def perturbed(factors: dict):
    """While the block runs, ``mc_verify``'s closed forms of tau1, tau2 and
    the SCM's MSE, each scaled by its factor."""
    structure, mse = mc.scm_radial_structure, mc.mse_scm

    def scaled_structure(*args, **kwargs):
        s = structure(*args, **kwargs)
        return replace(s, tau1=factors["tau1"] * s.tau1, tau2=factors["tau2"] * s.tau2)

    def scaled_mse(*args, **kwargs):
        value, nmse = mse(*args, **kwargs)
        return factors["mse"] * value, nmse

    mc.scm_radial_structure, mc.mse_scm = scaled_structure, scaled_mse
    try:
        yield
    finally:
        mc.scm_radial_structure, mc.mse_scm = structure, mse


def summary(values) -> dict:
    """The mean, sd and max of the values of a check over the runs."""
    v = np.asarray(values, dtype=float)
    return {"mean": float(v.mean()), "sd": float(v.std(ddof=1)), "max": float(v.max())}


def null_rates(args) -> dict:
    """The record of the runs that ``args`` (the parsed command line) asks for."""
    start = time.perf_counter()
    with perturbed(dict.fromkeys(PERTURBED, 1.0) | args.perturb) if args.perturb else contextlib.nullcontext():
        reports = [mc.verify_target(args.target, args.dist, args.n, args.p, args.cov, args.reps, seed, args.workers)
                   for seed in range(args.seeds[0], args.seeds[1] + 1)]
    wall = time.perf_counter() - start
    passed = sum(r.passed for r in reports)
    checks, z = {}, {}
    for name, first in reports[0].checks.items():
        values = [r.checks[name].value for r in reports]
        over = sum(not v < first.limit for v in values)
        checks[name] = {"over": over, "limit": first.limit, **summary(values)}
        if name.endswith("_z"):
            q = name[:-2]
            signed = [(r.details[f"{q}_est"] - r.details[f"{q}_theory"]) / r.details[f"{q}_se"] for r in reports]
            z[name] = {**summary(signed), "beyond": over / len(reports)}
    z_failed = sum(any(not c.value < c.limit for name, c in r.checks.items() if name.endswith("_z"))
                   for r in reports)
    return {
        "config": {key: getattr(args, key) for key in ("target", "dist", "n", "p", "cov", "reps", "workers")}
        | {"seeds": list(args.seeds), "perturb": args.perturb},
        "machine": {"numpy": np.__version__, "python": platform.python_version(), "cpu_count": os.cpu_count(),
                    "blas_threads": {var: os.environ.get(var, "unset") for var in THREAD_VARS}},
        "runs": len(reports),
        "passed": passed,
        "wilson95": wilson(passed, len(reports)),
        "checks": checks,
        "z": z,
        "z_failed": z_failed,
        "z_wilson95": wilson(z_failed, len(reports)),
        "wall_s": wall,
    }


def _seeds(text: str) -> tuple[int, int]:
    a, sep, b = text.partition(":")
    if not sep or int(b) <= int(a):
        raise argparse.ArgumentTypeError(f"expected A:B with A < B, got {text!r}")
    return int(a), int(b)


def _factor(text: str) -> tuple[str, float]:
    name, sep, value = text.partition("=")
    if not sep or name not in PERTURBED:
        raise argparse.ArgumentTypeError(f"expected NAME=FACTOR with NAME one of {PERTURBED}, got {text!r}")
    return name, float(value)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--target", required=True, choices=mc.TARGETS)
    ap.add_argument("--dist", required=True)
    ap.add_argument("--n", type=int, required=True)
    ap.add_argument("--p", type=int, required=True)
    ap.add_argument("--cov", default="identity", help="used by transport and oracle")
    ap.add_argument("--reps", type=int, required=True)
    ap.add_argument("--seeds", type=_seeds, required=True, help="A:B, both included")
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--perturb", type=_factor, action="append", default=[],
                    help="NAME=FACTOR: scale the closed form of tau1, tau2 or mse (thm3, transport)")
    return ap


def main(argv=None) -> dict:
    ap = build_parser()
    args = ap.parse_args(argv)
    args.perturb = dict(args.perturb)
    if args.perturb and args.target not in ("thm3", "transport"):
        ap.error("--perturb is for thm3 and transport")
    record = null_rates(args)
    print(json.dumps(record), flush=True)
    return record


if __name__ == "__main__":
    main()
