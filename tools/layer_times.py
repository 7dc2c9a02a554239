"""Per-chunk layer times of the Monte Carlo engine.

Runs three ``mc-verify`` targets through ``mc_verify.verify_target``, as
``cescov mc-verify`` runs them, on ``CHUNKS`` chunks of ``CHUNK``
replications at each requested p: ``thm3`` (gaussian, identity covariance)
at every p, and ``transport`` and ``oracle --plugin`` (k:0.5,
``--cov spiked:gamma=2``) where p > 2.  The layers are timed inside the real
chunk loop, which ``_reduce_chunks`` drives, by wrapping the functions the
kernels call:

* draw: ``_draw_chunk``, the chunk's (m, n, p) data;
* draw0: chunk 0's draw alone, the first random draw after the target's
  set-up (a mean over the chunks would hide a slow first draw);
* statistic: ``_scm_stack``, the stacked SCM of that data;
* accumulate: the rest of the kernel (its partial sums, and the plug-in
  coefficient of ``oracle``), taken as the kernel's time less the two above;
* merge: the rest of ``_reduce_chunks``, mostly the in-order merge of the
  partial sums (a copy of chunk 0's, then one in-place add per chunk),
  taken as its time less the kernels';
* faults: the minor page faults of the process (``ru_minflt``) during
  ``_reduce_chunks``.

Each figure is per chunk (draw0: of chunk 0), the median over ``--repeat``
runs after one warm-up run; times are in milliseconds.  The header names
numpy's version and its BLAS, whose small-matrix gemm path sets the
statistic's speed.  Run it with BLAS single-threaded, from the repository
root::

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 PYTHONPATH=src python3 tools/layer_times.py --p 2 4 10
"""

from __future__ import annotations

import argparse
import resource
import statistics
import time

import numpy as np

from cescov import mc_verify as mc

COLUMNS = ("draw", "draw0", "statistic", "accumulate", "merge", "faults")
CHUNKS = 16  # chunks per timed run

# target -> (its other verify_target arguments, smallest p it runs at)
ROWS = {
    "thm3": (dict(dist="gaussian", cov="identity"), 1),
    "transport": (dict(dist="k:0.5", cov="spiked:gamma=2"), 3),
    "oracle": (dict(dist="k:0.5", cov="spiked:gamma=2", plugin=True), 3),
}
PATCHED = ("_draw_chunk", "_scm_stack", "_reduce_chunks")


def timed(fn, layer: str, totals: dict):
    """fn, adding the seconds of each call to totals[layer]."""

    def wrapper(*args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            totals[layer] += time.perf_counter() - t0

    return wrapper


def versions() -> str:
    """numpy's version and the name and version of its BLAS."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, BLAS {blas['name']} {blas['version']}"


def layer_times(target: str, p: int, n: int, repeat: int) -> dict:
    kwargs, _ = ROWS[target]
    totals = dict.fromkeys(("draw", "draw0", "statistic", "kernel", "reduce", "faults"), 0.0)
    originals = {name: getattr(mc, name) for name in PATCHED}
    draw, draw0 = (timed(originals["_draw_chunk"], layer, totals) for layer in ("draw", "draw0"))
    reduce_chunks = timed(originals["_reduce_chunks"], "reduce", totals)

    def counted_reduce(kernel, *args):
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        try:
            return reduce_chunks(timed(kernel, "kernel", totals), *args)
        finally:
            totals["faults"] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults

    mc._draw_chunk = lambda cfg, c, *rest: (draw0 if c == 0 else draw)(cfg, c, *rest)
    mc._scm_stack = timed(originals["_scm_stack"], "statistic", totals)
    mc._reduce_chunks = counted_reduce
    run = lambda: mc.verify_target(target, n=n, p=p, replications=CHUNKS * mc.CHUNK, seed=1, **kwargs)
    runs = []
    try:
        run()  # warm-up
        for _ in range(repeat):
            totals.update(dict.fromkeys(totals, 0.0))
            run()
            t, ms = totals, 1e3 / CHUNKS
            draws = t["draw"] + t["draw0"]
            runs.append({
                "draw": draws * ms,
                "draw0": t["draw0"] * 1e3,
                "statistic": t["statistic"] * ms,
                "accumulate": (t["kernel"] - draws - t["statistic"]) * ms,
                "merge": (t["reduce"] - t["kernel"]) * ms,
                "faults": t["faults"] / CHUNKS,
            })
    finally:
        for name, fn in originals.items():
            setattr(mc, name, fn)
    return {col: statistics.median(run[col] for run in runs) for col in COLUMNS}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--p", type=int, nargs="+", default=[2, 4, 10])
    ap.add_argument("--n", type=int, default=10)
    ap.add_argument("--repeat", type=int, default=7)
    args = ap.parse_args()
    print(f"{CHUNKS} chunks of {mc.CHUNK} replications, n={args.n}, median of {args.repeat} runs, "
          f"ms and minor page faults per chunk (draw0: chunk 0's draw); {versions()}")
    print(f"{'model':<10} {'p':>3} {'draw':>8} {'draw0':>8} {'statistic':>10} {'accumulate':>11} "
          f"{'merge':>8} {'faults':>8}")
    for target, (_, p_min) in ROWS.items():
        for p in args.p:
            if p < p_min:
                continue
            t = layer_times(target, p, args.n, args.repeat)
            print(f"{target:<10} {p:>3} {t['draw']:8.2f} {t['draw0']:8.2f} {t['statistic']:10.2f} "
                  f"{t['accumulate']:11.2f} {t['merge']:8.2f} {t['faults']:8.1f}")


if __name__ == "__main__":
    main()
