"""SHA-256 digests of every result bit of a fixed set of runs, one line each.

Two source trees that print the same lines give the same Monte Carlo
reports, the same sampled files and the same estimates from them, bit for
bit.  The runs are:

* ``mc-verify`` runs through ``mc_verify.verify_target``, as ``cescov
  mc-verify`` makes them, each at workers 1, 2 and 4: the three Monte Carlo
  workloads of the benchmark (thm3 gaussian p = 2, transport k:0.5 p = 10,
  oracle ``--plugin`` k:0.5 p = 4), transport at p = 24, thm1 with the
  statistics ``wscm:one`` and ``wscm:fobi``, and the sphere check.  A line
  hashes the run's JSON report and, for the moment targets (thm1, thm3,
  transport), every field of its ``EmpiricalMoments``;
* ``cescov sample`` files (t:10) at 10000 x 8 and 3000 x 3 for the
  covariances identity, ``spiked:gamma=2``, ``diag:...`` and a complex CSV
  file (with a complex CSV mean), a line hashing the bytes of the file;
* ``cescov estimate --in <file> --json`` on each sampled file, a line
  hashing its standard output: the public ``scm`` and
  ``estimate_kurtosis``, which share their stacked cores with the Monte
  Carlo statistics;
* ``cescov theory --json``, a line hashing its standard output, at n = 10:
  ``--gamma 2`` at p = 10 with kappa 0 and 2, and ``--cov`` (kappa 0.5)
  ``identity`` at p = 2, ``spiked:gamma=2`` at p = 10 and the complex CSV
  covariance file of the p = 3 samples: the closed-form MSE, NMSE and
  shrinkage;
* ``cescov curve`` at its defaults, a line hashing its standard output.

Compare a change against its parent commit, checked out at ``../parent``
(say, with ``git worktree add ../parent HEAD~1``), from the repository
root::

    diff <(PYTHONPATH=src python3 tools/report_digests.py) \\
         <(PYTHONPATH=../parent/src python3 tools/report_digests.py)

The tool imports whichever ``cescov`` is on the path, so one copy of it
compares any two trees that have ``verify_target``, ``empirical_moments``
and the ``cescov`` commands ``sample``, ``estimate``, ``theory`` and
``curve``.  ``--tiny`` runs the same list with an eighth of the
replications and a twentieth of the sampled rows.

The tool sets ``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS`` and
``MKL_NUM_THREADS`` to 1 before numpy is imported, as ``bench/run.py`` does,
whatever the calling shell holds: threaded BLAS splits the reductions of its
products differently and changes the bits of the transport reports, so two
trees compared in differently set shells would otherwise differ.
"""

from __future__ import annotations

import os

# Before numpy is imported: reports are bit-identical only at a fixed BLAS thread count.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

from cescov import cli, mc_verify  # noqa: E402
from cescov.lin_core import save_complex_matrix  # noqa: E402

SEED = 1
WORKERS = (1, 2, 4)

# name -> verify_target arguments; the replications of the last three end in
# a ragged chunk (chunks of 512 replications at p = 24, 1422 at n = 12, p = 3)
MC_RUNS = {
    "thm3-gauss-p2": dict(target="thm3", dist="gaussian", n=10, p=2, cov="identity", replications=2048),
    "transport-k05-p10": dict(target="transport", dist="k:0.5", n=10, p=10, cov="spiked:gamma=2",
                              replications=4096),
    "oracle-plugin-k05-p4": dict(target="oracle", dist="k:0.5", n=10, p=4, cov="spiked:gamma=2",
                                 replications=2048, plugin=True),
    "transport-k05-p24": dict(target="transport", dist="k:0.5", n=10, p=24, cov="spiked:gamma=2",
                              replications=2 * 512 + 7),
    "thm1-wscm-one-k05-p3": dict(target="thm1", dist="k:0.5", n=12, p=3, cov="identity",
                                 replications=2 * 1422 + 7, statistic="wscm:one"),
    "thm1-wscm-fobi-k05-p3": dict(target="thm1", dist="k:0.5", n=12, p=3, cov="identity",
                                  replications=2 * 1422 + 7, statistic="wscm:fobi"),
    "sphere-p3": dict(target="sphere", dist="gaussian", n=10, p=3, cov="identity", replications=200_000),
}

SAMPLE_SHAPES = ((10_000, 8), (3000, 3))
SAMPLE_COVS = ("identity", "spiked:gamma=2", "diag", "file")

# name -> ``cescov theory`` arguments; "file" stands for the complex CSV
# covariance file that the p = 3 samples use
THEORY_RUNS = {
    "theory-gamma2-k0-p10": ["--p", "10", "--gamma", "2", "--kappa", "0"],
    "theory-gamma2-k2-p10": ["--p", "10", "--gamma", "2", "--kappa", "2"],
    "theory-identity-p2": ["--p", "2", "--cov", "identity", "--kappa", "0.5"],
    "theory-spiked-p10": ["--p", "10", "--cov", "spiked:gamma=2", "--kappa", "0.5"],
    "theory-file-p3": ["--p", "3", "--cov", "file", "--kappa", "0.5"],
}


def mc_digest(kwargs: dict, workers: int) -> str:
    """Digest of one verify_target run: its report and the moments it
    estimated, taken from ``mc_verify.empirical_moments`` as it returns."""
    moments = []
    estimate = mc_verify.empirical_moments

    def recorded(cfg):
        moments.append(estimate(cfg))
        return moments[-1]

    mc_verify.empirical_moments = recorded
    try:
        report = mc_verify.verify_target(seed=SEED, workers=workers, **kwargs)
    finally:
        mc_verify.empirical_moments = estimate
    h = hashlib.sha256(json.dumps(report.to_dict(), sort_keys=True).encode())
    for emp in moments:
        for value in vars(emp).values():
            h.update(np.ascontiguousarray(value).tobytes())
    return h.hexdigest()


def run_cli(argv: list[str]) -> str:
    """The standard output of ``cescov <argv>``, which must succeed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"cescov {' '.join(argv)} failed: {err.getvalue()}")
    return out.getvalue()


def sample_digest(n: int, p: int, cov: str, tmp: str, out: str) -> str:
    """Digest of the file ``out`` that ``cescov sample --dist t:10`` writes."""
    extra = []
    if cov == "diag":
        cov = "diag:" + ",".join(f"{1.0 + 0.5 * i:g}" for i in range(p))
    elif cov == "file":
        gen = np.random.default_rng(p)  # PCG64: the same matrix on every numpy
        a = gen.standard_normal((p, p)) + 1j * gen.standard_normal((p, p))
        cov = os.path.join(tmp, f"cov{p}.csv")
        save_complex_matrix(cov, a @ a.conj().T + p * np.eye(p))
        mu = os.path.join(tmp, f"mu{p}.csv")
        save_complex_matrix(mu, (gen.standard_normal(p) + 1j * gen.standard_normal(p))[None])
        extra = ["--mu", mu]
    run_cli(["sample", "--dist", "t:10", "--n", str(n), "--p", str(p), "--cov", cov, *extra,
             "--seed", str(SEED), "--out", out])
    with open(out, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def stdout_digest(argv: list[str]) -> str:
    """Digest of what ``cescov <argv>`` prints."""
    return hashlib.sha256(run_cli(argv).encode()).hexdigest()


def digest_lines(tiny: bool = False):
    """The lines ``name digest``, one per run, as they are computed."""
    for name, kwargs in MC_RUNS.items():
        if tiny:
            kwargs = {**kwargs, "replications": kwargs["replications"] // 8}
        for workers in WORKERS:
            yield f"{name}-w{workers} {mc_digest(kwargs, workers)}"
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "sample.csv")
        for n, p in SAMPLE_SHAPES:
            n = n // 20 if tiny else n
            for cov in SAMPLE_COVS:
                name = f"{cov.split(':')[0]}-{n}x{p}"
                yield f"sample-{name} {sample_digest(n, p, cov, tmp, out)}"
                yield f"estimate-{name} {stdout_digest(['estimate', '--in', out, '--json'])}"
        for name, argv in THEORY_RUNS.items():
            argv = [os.path.join(tmp, "cov3.csv") if a == "file" else a for a in argv]
            yield f"{name} {stdout_digest(['theory', '--n', '10', *argv, '--json'])}"
    yield f"curve {stdout_digest(['curve'])}"


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tiny", action="store_true", help="an eighth of the replications, a twentieth of the rows")
    args = ap.parse_args(argv)
    for line in digest_lines(args.tiny):
        print(line, flush=True)


if __name__ == "__main__":
    main()
