"""Per-chunk layer times of the Monte Carlo moment engine.

Times one ``CHUNK``-replication SCM chunk of two ``mc-verify`` models at
each requested p: ``thm3`` (gaussian, identity covariance) at every p and
``transport`` (k:0.5, spiked gamma=2) where p > 2, split into the layers

* draw: ``_draw_chunk``, the chunk's (m, n, p) data;
* statistic: the stacked statistic on that data;
* accumulate: the rest of the moment kernel (its partial sums), taken as
  the kernel's time less the two above;
* merge: the compensated merge of one chunk's partial sums.

Each figure is the best of ``--repeat`` runs, in milliseconds.  Run it with
BLAS single-threaded, from the repository root::

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 PYTHONPATH=src python3 tools/layer_times.py --p 2 4 10
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from cescov import mc_verify as mc
from cescov.ces_sampler import CESModel, parse_family
from cescov.lin_core import spiked_covariance

MERGES = 16

# model name -> (the CESModel at dimension p, smallest p it exists at)
MODELS = {
    "thm3": (lambda p: CESModel(np.zeros(p), np.eye(p), parse_family("gaussian")), 1),
    "transport": (lambda p: CESModel(np.zeros(p), spiked_covariance(p, 2.0), parse_family("k:0.5")), 3),
}


def best_ms(fn, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * min(times)


def moment_kernel(cfg):
    """The moment kernel ``empirical_moments`` runs for cfg, captured from
    one run, so that the script does not depend on how the kernel's
    arguments are built."""
    kernels = []
    reduce_chunks = mc._reduce_chunks

    def capture(kernel, *args):
        kernels.append(kernel)
        return reduce_chunks(kernel, *args)

    mc._reduce_chunks = capture
    try:
        mc.empirical_moments(cfg)
    finally:
        mc._reduce_chunks = reduce_chunks
    return kernels[0]


def layer_times(model: CESModel, n: int, repeat: int) -> dict:
    cfg = mc.MCConfig(replications=mc.CHUNK, n=n, model=model, seed=1)
    m = mc.CHUNK
    kernel = moment_kernel(cfg)
    stat = mc._statistic_fn(cfg.statistic)
    draw = best_ms(lambda: mc._draw_chunk(cfg, 0, m), repeat)
    x = mc._draw_chunk(cfg, 0, m)
    # the statistic centres its input in place, so it runs on a fresh copy
    statistic = best_ms(lambda: stat(x.copy()), repeat) - best_ms(x.copy, repeat)
    whole = best_ms(lambda: kernel(0, m), repeat)
    part = kernel(0, m)
    merge = best_ms(lambda: mc._merge([part] * MERGES), repeat) / MERGES
    return {"draw": draw, "statistic": statistic, "accumulate": whole - draw - statistic, "merge": merge}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--p", type=int, nargs="+", default=[2, 4, 10])
    ap.add_argument("--n", type=int, default=10)
    ap.add_argument("--repeat", type=int, default=15)
    args = ap.parse_args()
    print(f"chunk of {mc.CHUNK} replications, n={args.n}, best of {args.repeat}, ms")
    print(f"{'model':<10} {'p':>3} {'draw':>8} {'statistic':>10} {'accumulate':>11} {'merge':>8}")
    for name, (model, p_min) in MODELS.items():
        for p in args.p:
            if p < p_min:
                continue
            t = layer_times(model(p), args.n, args.repeat)
            print(f"{name:<10} {p:>3} {t['draw']:8.2f} {t['statistic']:10.2f} "
                  f"{t['accumulate']:11.2f} {t['merge']:8.2f}")


if __name__ == "__main__":
    main()
