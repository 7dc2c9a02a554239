"""Command-line front end: sampling, estimation, closed-form shrinkage
theory, the shrinkage-versus-kurtosis curve, and Monte Carlo verification.

This module only parses arguments, calls the library and prints: ``--cov``
and ``--mu`` are ``lin_core.covariance_preset`` and ``mean_preset``,
``estimate`` is ``estimators.scm`` and ``estimators.plugin_shrinkage``, and
``mc-verify`` is ``mc_verify.verify_target``.

All commands emit JSON (indented by default, compact with ``--json``) except
``sample`` and ``curve``, whose primary output is CSV.  Exit codes: 0 on
success / verification pass, 1 on verification failure, 2 on configuration
or input errors and on an output file that cannot be written.  With the
environment variable ``CES_SCM_CI=1`` every randomized command requires an
explicit ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from .ces_sampler import CESModel, RngStream, kurtosis_lower_bound, parse_family, sample_ces
from .errors import CescovError
from .estimators import plugin_shrinkage, scm
from .lin_core import (covariance_preset, dump_complex_matrix, load_complex_matrix, mean_preset,
                       save_complex_matrix, scale_and_sphericity)
from .mc_verify import STATISTICS, TARGETS, verify_target
from .theory import scm_radial_structure, shrinkage_curve, shrinkage_report

SCHEMA_VERSION = 2
CI_ENV = "CES_SCM_CI"


class CliError(Exception):
    """Configuration error reported with exit code 2."""


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    if os.environ.get(CI_ENV) == "1":
        raise CliError(f"--seed is required when {CI_ENV}=1")
    return int(np.random.SeedSequence().entropy) % (2**63)


# bench/workloads.py still builds its covariance matrices through this name
_resolve_cov = covariance_preset


def _print_json(payload: dict, compact: bool, stream=None) -> None:
    stream = stream or sys.stdout
    print(json.dumps(payload, indent=None if compact else 2), file=stream)


def _complex_pairs(a: np.ndarray) -> list:
    return np.stack((a.real, a.imag), -1).tolist()


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_sample(args) -> int:
    family = parse_family(args.dist)
    cov = covariance_preset(args.cov, args.p)
    mu = mean_preset(args.mu, args.p)
    model = CESModel(mu, cov, family)
    seed = _resolve_seed(args.seed)
    x = sample_ces(model, args.n, RngStream(seed))
    if args.out == "-":
        dump_complex_matrix(sys.stdout, x)
    else:
        save_complex_matrix(args.out, x)
    eta, gamma = scale_and_sphericity(model.cov)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "n": args.n,
        "p": args.p,
        "family": str(family),
        "kappa": model.kappa,
        "eta": eta,
        "gamma": gamma,
        "seed": seed,
    }
    _print_json(summary, compact=True, stream=sys.stderr)
    return 0


def cmd_theory(args) -> int:
    if (args.gamma is None) == (args.cov is None):
        raise CliError("conflicting flags: give exactly one of --gamma and --cov")
    cov = None if args.cov is None else covariance_preset(args.cov, args.p)
    rep = shrinkage_report(args.n, args.p, args.kappa, cov=cov, gamma=args.gamma)
    s = scm_radial_structure(args.n, args.kappa, args.p)
    payload = {"schema_version": SCHEMA_VERSION, **rep.to_dict(), "tau1": s.tau1, "tau2": s.tau2}
    _print_json(payload, compact=args.json)
    return 0


def cmd_curve(args) -> int:
    for flag, value in (("--kappa-min", args.kappa_min), ("--kappa-max", args.kappa_max)):
        if value is not None and not math.isfinite(value):
            raise CliError(f"{flag} must be finite, got {value}")
    kappa_min = args.kappa_min if args.kappa_min is not None else kurtosis_lower_bound(args.p)
    if args.steps < 1:
        raise CliError(f"--steps must be >= 1, got {args.steps}")
    if args.kappa_max <= kappa_min:
        raise CliError(
            f"conflicting flags: --kappa-max {args.kappa_max} must exceed --kappa-min {kappa_min}"
        )
    grid = np.linspace(kappa_min, args.kappa_max, args.steps + 1)
    series = shrinkage_curve(args.n, args.p, args.gamma, grid)
    lines = ["kappa,beta_o"] + [f"{k:.12g},{b:.12g}" for k, b in series]
    text = "\n".join(lines) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="ascii") as f:
            f.write(text)
    return 0


def cmd_mc_verify(args) -> int:
    seed = _resolve_seed(args.seed)
    t0 = time.perf_counter()
    keys = ("target", "dist", "n", "p", "cov", "reps", "workers", "stat")
    config_echo = {key: getattr(args, key) for key in keys}
    report = verify_target(
        args.target, args.dist, args.n, args.p, args.cov, args.reps, seed,
        workers=args.workers, statistic=args.stat, plugin=args.plugin,
    )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": config_echo,
        "seed": seed,
        "wall_time_s": time.perf_counter() - t0,
        "report": report.to_dict(),
    }
    _print_json(payload, compact=args.json)
    return 0 if report.passed else 1


def cmd_estimate(args) -> int:
    try:
        x = load_complex_matrix(args.infile)
    except OSError as e:
        raise CliError(f"cannot read dataset {args.infile!r}: {e}") from None
    except ValueError as e:
        raise CliError(f"malformed dataset {args.infile!r}: {e}") from None
    res = scm(x)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "n": x.shape[0],
        "p": x.shape[1],
        "xbar": _complex_pairs(res.xbar),
        **dict.fromkeys(("eta", "gamma", "kappa", "nmse", "beta_o")),
        "partial": False,
        "error": None,
    }
    try:
        payload.update(plugin_shrinkage(x))
    except CescovError as e:
        payload.update(partial=True, error=str(e))
    if args.scm_out:
        save_complex_matrix(args.scm_out, res.s)
    else:
        payload["scm"] = _complex_pairs(res.s)
    _print_json(payload, compact=args.json)
    return 2 if payload["partial"] else 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cescov",
        description="Complex elliptical sampling, covariance estimation, "
        "shrinkage theory, and Monte Carlo verification.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_sample = sub.add_parser("sample", help="draw a dataset from a CES model")
    p_sample.add_argument("--dist", required=True, help="gaussian, t:NU (NU > 4) or k:ALPHA (ALPHA >= 53/1075)")
    p_sample.add_argument("--n", type=int, required=True, help="number of observations")
    p_sample.add_argument("--p", type=int, required=True, help="dimension")
    p_sample.add_argument("--mu", default="zero", help="'zero' or a complex CSV vector file")
    p_sample.add_argument(
        "--cov",
        default="identity",
        help="identity, diag:a,b,..., spiked:gamma=G, or a complex CSV file",
    )
    p_sample.add_argument("--seed", type=int, default=None)
    p_sample.add_argument("--out", default="-", help="output CSV path, '-' for stdout")
    p_sample.set_defaults(func=cmd_sample)

    p_theory = sub.add_parser("theory", help="closed-form MSE and shrinkage report")
    p_theory.add_argument("--n", type=int, required=True)
    p_theory.add_argument("--p", type=int, required=True)
    p_theory.add_argument("--kappa", type=float, required=True, help="elliptical kurtosis")
    p_theory.add_argument("--gamma", type=float, default=None, help="sphericity in [1, p]")
    p_theory.add_argument("--cov", default=None, help="covariance preset or CSV file")
    p_theory.add_argument("--json", action="store_true", help="compact single-line JSON")
    p_theory.set_defaults(func=cmd_theory)

    p_curve = sub.add_parser("curve", help="shrinkage coefficient versus kurtosis CSV")
    p_curve.add_argument("--n", type=int, default=10)
    p_curve.add_argument("--p", type=int, default=10)
    p_curve.add_argument("--gamma", type=float, default=2.0)
    p_curve.add_argument("--kappa-min", type=float, default=None, help="default -1/(p+1)")
    p_curve.add_argument("--kappa-max", type=float, default=3.0)
    p_curve.add_argument("--steps", type=int, default=40, help="grid intervals (steps+1 rows)")
    p_curve.add_argument("--out", default="-")
    p_curve.set_defaults(func=cmd_curve)

    p_mc = sub.add_parser("mc-verify", help="Monte Carlo checks against the closed forms")
    p_mc.add_argument(
        "--target",
        required=True,
        choices=TARGETS,
        help="thm1: radial form of the statistic at the spherical model; "
        "thm3: SCM constants vs closed form; transport: full matrices at a "
        "general covariance; sphere: unit-sphere moments; oracle: shrinkage "
        "MSE ratio",
    )
    p_mc.add_argument("--dist", default="gaussian")
    p_mc.add_argument("--n", type=int, default=10)
    p_mc.add_argument("--p", type=int, default=2)
    p_mc.add_argument("--cov", default="identity", help="used by transport/oracle")
    p_mc.add_argument("--reps", type=int, default=200_000)
    p_mc.add_argument("--seed", type=int, default=None)
    p_mc.add_argument(
        "--workers", type=int, default=1,
        help="threads of this process that run the chunks, kept idle between runs; reports are "
        "bit-identical at any count (with more than 1, set OPENBLAS_NUM_THREADS=1 / OMP_NUM_THREADS=1)",
    )
    p_mc.add_argument("--stat", default="scm", choices=STATISTICS, help="used by thm1 only")
    p_mc.add_argument("--plugin", action="store_true", help="report plug-in shrinkage ratio; used by oracle only")
    p_mc.add_argument("--json", action="store_true")
    p_mc.set_defaults(func=cmd_mc_verify)

    p_est = sub.add_parser("estimate", help="sample statistics of a dataset CSV")
    p_est.add_argument("--in", dest="infile", required=True)
    p_est.add_argument("--scm-out", default=None, help="write the SCM to this CSV file")
    p_est.add_argument("--json", action="store_true")
    p_est.set_defaults(func=cmd_estimate)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # an unreadable input raises ValueError; an OSError is an output file that cannot be written
    except (CliError, CescovError, ValueError, MemoryError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
