"""Per-chunk layer times of the Monte Carlo moment engine.

Runs ``empirical_moments`` on ``CHUNKS`` chunks of ``CHUNK`` replications
for two ``mc-verify`` models at each requested p: ``thm3`` (gaussian,
identity covariance) at every p and ``transport`` (k:0.5,
``--cov spiked:gamma=2``) where p > 2.  The layers are timed inside that real chunk loop, which
``_reduce_chunks`` drives, by wrapping the functions the moment kernel calls:

* draw: ``_draw_chunk``, the chunk's (m, n, p) data;
* statistic: the stacked statistic on that data;
* accumulate: the rest of the moment kernel (its partial sums), taken as
  the kernel's time less the two above;
* merge: the rest of ``_reduce_chunks``, mostly the compensated merge of
  the partial sums, taken as its time less the kernels';
* faults: the minor page faults of the process (``ru_minflt``).

Each figure is per chunk, the median over ``--repeat`` runs after one
warm-up run; times are in milliseconds.  Run it with BLAS single-threaded,
from the repository root::

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 PYTHONPATH=src python3 tools/layer_times.py --p 2 4 10
"""

from __future__ import annotations

import argparse
import resource
import statistics
import time

import numpy as np

from cescov import mc_verify as mc
from cescov.ces_sampler import CESModel, parse_family
from cescov.lin_core import covariance_preset

COLUMNS = ("draw", "statistic", "accumulate", "merge", "faults")
CHUNKS = 16  # chunks per timed run

# model name -> (the CESModel at dimension p, smallest p it exists at)
MODELS = {
    "thm3": (lambda p: CESModel(np.zeros(p), np.eye(p), parse_family("gaussian")), 1),
    "transport": (
        lambda p: CESModel(np.zeros(p), covariance_preset("spiked:gamma=2", p), parse_family("k:0.5")),
        3,
    ),
}


def timed(fn, layer: str, totals: dict):
    """fn, adding the seconds of each call to totals[layer]."""

    def wrapper(*args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            totals[layer] += time.perf_counter() - t0

    return wrapper


def layer_times(model: CESModel, n: int, repeat: int) -> dict:
    cfg = mc.MCConfig(replications=CHUNKS * mc.CHUNK, n=n, model=model, seed=1)
    totals = dict.fromkeys(("draw", "statistic", "kernel", "reduce"), 0.0)
    names = ("_draw_chunk", "_statistic_fn", "_reduce_chunks")
    originals = {name: getattr(mc, name) for name in names}
    mc._draw_chunk = timed(originals["_draw_chunk"], "draw", totals)
    mc._statistic_fn = lambda name: timed(originals["_statistic_fn"](name), "statistic", totals)
    reduce_chunks = timed(originals["_reduce_chunks"], "reduce", totals)
    mc._reduce_chunks = lambda kernel, *args: reduce_chunks(timed(kernel, "kernel", totals), *args)
    runs = []
    try:
        mc.empirical_moments(cfg)  # warm-up
        for _ in range(repeat):
            totals.update(dict.fromkeys(totals, 0.0))
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            mc.empirical_moments(cfg)
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
            draw, stat, kernel, whole = (totals[k] for k in ("draw", "statistic", "kernel", "reduce"))
            ms = 1e3 / CHUNKS
            runs.append({
                "draw": draw * ms,
                "statistic": stat * ms,
                "accumulate": (kernel - draw - stat) * ms,
                "merge": (whole - kernel) * ms,
                "faults": faults / CHUNKS,
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
          "ms and minor page faults per chunk")
    print(f"{'model':<10} {'p':>3} {'draw':>8} {'statistic':>10} {'accumulate':>11} {'merge':>8} {'faults':>8}")
    for name, (model, p_min) in MODELS.items():
        for p in args.p:
            if p < p_min:
                continue
            t = layer_times(model(p), args.n, args.repeat)
            print(f"{name:<10} {p:>3} {t['draw']:8.2f} {t['statistic']:10.2f} "
                  f"{t['accumulate']:11.2f} {t['merge']:8.2f} {t['faults']:8.1f}")


if __name__ == "__main__":
    main()
