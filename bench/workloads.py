"""The benchmark workloads: their set-up, one timed call each, and the
output checks that decide whether a call failed.

Every workload is written as the ``cescov`` command line it stands for and
parsed with the package's own argument parser.  The Monte Carlo workloads
then make the library calls that ``cescov mc-verify`` makes for their target;
the CSV workload calls ``cescov.cli.main`` itself.  A call takes a seed and
nothing else; the checks do not depend on which random stream a seed maps
to, only on statistical tolerances and on exact round trips.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np

# Deviation limits in standard errors.  A correct program exceeds 6 SE with
# probability ~2e-9 per check; the entrywise 4-SE verdict of mc-verify is
# only counted, because over 2 p^4 entries it fails by chance (3.77 SE was
# seen at R = 16384 on the transport workload).
MSE_SE_LIMIT = 6.0
RATIO_SE_LIMIT = 6.0


def _mc(target: str, dist: str, p: int, cov: str, reps: int, workers: int, *extra):
    return ["mc-verify", "--target", target, "--dist", dist, "--n", "10", "--p", str(p),
            "--cov", cov, "--reps", str(reps), "--workers", str(workers), *extra]


# Each workload as the cescov command line it stands for, without --seed.
# Why each was chosen is recorded in BENCHMARK.json.  The Monte Carlo
# workloads use tail families with finite eighth moments (gaussian, k:ALPHA),
# so the standard errors the checks rely on exist; t:NU with NU <= 8 would not.
WORKLOADS = {
    "thm3-gauss-p2": _mc("thm3", "gaussian", 2, "identity", 2048, 1),
    "transport-k05-p10-w2": _mc("transport", "k:0.5", 10, "spiked:gamma=2", 4096, 2),
    "oracle-plugin-k05-p4": _mc("oracle", "k:0.5", 4, "spiked:gamma=2", 2048, 1, "--plugin"),
    "csv-roundtrip-t10-p8": ["sample", "--dist", "t:10", "--n", "10000", "--p", "8",
                             "--cov", "spiked:gamma=2"],
}


def _finite(*values) -> bool:
    return all(np.all(np.isfinite(np.asarray(v, dtype=complex))) for v in values)


@dataclass
class Outcome:
    """What one call produced, kept for its checks."""

    seed: int
    passed: bool  # mc-verify's own verdict, counted but not a failure
    data: dict
    nbytes: int = 0


class MCWorkload:
    """Set-up and calls of one ``mc-verify`` target, as ``cmd_mc_verify``
    does them (model and closed-form targets once, then one verification
    per call)."""

    def __init__(self, cescov, argv: list[str]):
        self.lib = cescov
        args = cescov.cli.build_parser().parse_args(argv)
        self.args = args
        self.items = args.reps
        self.max_dev_se = 0.0  # largest checked deviation so far, in SE units
        family = cescov.ces_sampler.parse_family(args.dist)
        self.tol = cescov.mc_verify.Tolerances.for_family(family)
        p = args.p
        if args.target == "thm3":
            cov = np.eye(p, dtype=np.complex128)
        else:
            cov = cescov.cli._resolve_cov(args.cov, p)  # the --cov preset path of the CLI
        self.model = cescov.ces_sampler.CESModel(np.zeros(p, dtype=np.complex128), cov, family)
        theory = cescov.theory
        self.mse_theory, _ = theory.mse_scm(self.model.cov, args.n, self.model.kappa)
        if args.target in ("thm3", "transport"):
            self.struct = theory.scm_radial_structure(args.n, self.model.kappa, p)
            if args.target == "thm3":
                self.pair = theory.radial_var_structure(self.struct.tau1, self.struct.tau2, p)
            else:
                self.pair = theory.affine_equivariant_var(self.model.cov, self.struct)

    def config(self, seed: int, workers: int | None = None):
        a = self.args
        return self.lib.mc_verify.MCConfig(
            replications=a.reps, n=a.n, model=self.model, statistic="scm", seed=seed,
            workers=a.workers if workers is None else workers,
        )

    def call(self, seed: int, workers: int | None = None) -> Outcome:
        mc = self.lib.mc_verify
        cfg = self.config(seed, workers)
        target = self.args.target
        if target == "oracle":
            report = mc.verify_oracle_efficiency(cfg, include_plugin=self.args.plugin)
            return Outcome(seed, report.passed, {"report": report})
        emp = mc.empirical_moments(cfg)
        if target == "thm3":
            est = mc.radial_estimate_from_moments(emp)
            report = mc.compare_to_theory(
                emp, self.pair, self.tol, radial_theory=self.struct, radial_estimate=est,
                mse_theory=self.mse_theory,
            )
        else:
            est = None
            report = mc.compare_to_theory(emp, self.pair, self.tol, mse_theory=self.mse_theory)
        return Outcome(seed, report.passed, {"emp": emp, "est": est, "report": report})

    def check(self, out: Outcome) -> list[str]:
        report = out.data["report"]
        numbers = [v for v in report.to_dict().values() if isinstance(v, float)]
        numbers += [v for v in report.details.values() if isinstance(v, float)]
        problems = []
        if self.args.target == "oracle":
            dev = report.details["ratio_dev_se"]
            if not dev <= RATIO_SE_LIMIT:
                problems.append(f"oracle ratio off by {dev:.3g} SE")
            self.max_dev_se = max(self.max_dev_se, dev)
        else:
            emp, est = out.data["emp"], out.data["est"]
            numbers += [emp.mean_stat, emp.var_emp, emp.pvar_emp, emp.se_var, emp.se_pvar,
                        emp.mse_emp, emp.se_mse]
            if est is not None:
                numbers += [est.sigma, est.tau1, est.tau2, est.se_tau1, est.se_tau2]
            dev = abs(emp.mse_emp - self.mse_theory) / emp.se_mse
            if not dev <= MSE_SE_LIMIT:
                problems.append(f"MSE off by {dev:.3g} SE")
            self.max_dev_se = max(self.max_dev_se, dev)
        if not _finite(*numbers):
            problems.append("non-finite value in the report")
        return problems

    def worker_identity(self, seed: int) -> list[str]:
        """Same seed at workers=1 and workers=2 must give identical moments."""
        mc = self.lib.mc_verify
        one = mc.empirical_moments(self.config(seed, 1))
        two = mc.empirical_moments(self.config(seed, 2))
        same = (np.array_equal(one.var_emp, two.var_emp)
                and np.array_equal(one.pvar_emp, two.pvar_emp)
                and one.mse_emp == two.mse_emp)
        return [] if same else ["workers=1 and workers=2 results differ"]


class CSVWorkload:
    """``cescov sample`` to a file, then ``cescov estimate --in`` on it."""

    def __init__(self, cescov, argv: list[str], workdir: str):
        self.lib = cescov
        self.path = os.path.join(workdir, "dataset.csv")
        self.sample_argv = argv
        args = cescov.cli.build_parser().parse_args(argv)
        cov = cescov.cli._resolve_cov(args.cov, args.p)
        family = cescov.ces_sampler.parse_family(args.dist)
        self.model = cescov.ces_sampler.CESModel(np.zeros(args.p, dtype=np.complex128), cov, family)
        self.items = args.n

    def call(self, seed: int, workers: int | None = None) -> Outcome:
        main = self.lib.cli.main
        with redirect_stderr(io.StringIO()):
            rc_sample = main([*self.sample_argv, "--seed", str(seed), "--out", self.path])
        out = io.StringIO()
        with redirect_stdout(out):
            rc_est = main(["estimate", "--in", self.path, "--json"])
        data = {"rc": (rc_sample, rc_est), "estimate": out.getvalue()}
        return Outcome(seed, True, data, os.path.getsize(self.path))

    def check(self, out: Outcome) -> list[str]:
        if out.data["rc"] != (0, 0):
            return [f"exit codes {out.data['rc']}"]
        lib = self.lib
        # the dataset `cescov sample --seed S` draws, and that `estimate` must read back
        x = lib.ces_sampler.sample_ces(self.model, self.items, lib.ces_sampler.RngStream(out.seed))
        raw = np.loadtxt(self.path, delimiter=",", skiprows=2, ndmin=2)
        problems = []
        if raw.shape != (x.shape[0], 2 * x.shape[1]) or not (
            np.array_equal(raw[:, 0::2], x.real) and np.array_equal(raw[:, 1::2], x.imag)
        ):
            problems.append("CSV round trip is not bit-exact")
        est = json.loads(out.data["estimate"])
        pairs = np.asarray(est["scm"], dtype=float)
        got = pairs[..., 0] + 1j * pairs[..., 1]
        if not np.array_equal(got, lib.estimators.scm(x).s):
            problems.append("estimate's SCM differs from scm(x)")
        values = [est[k] for k in ("eta", "gamma", "kappa", "nmse", "beta_o")]
        if any(v is None for v in values) or not _finite(pairs, est["xbar"], *values):
            problems.append("non-finite or missing value in the estimate")
        return problems


def prepare(cescov, name: str, workdir: str):
    argv = list(WORKLOADS[name])
    if argv[0] == "mc-verify":
        return MCWorkload(cescov, argv)
    return CSVWorkload(cescov, argv, workdir)
