"""Per-chunk layer times of the Monte Carlo engine.

Runs three ``mc-verify`` targets through ``mc_verify.verify_target``, as
``cescov mc-verify`` runs them, on ``CHUNKS`` chunks at each requested p,
each of the m replications that ``mc_verify`` puts in a chunk at that n
and p (column m): ``thm3`` (gaussian, identity covariance)
at every p, and ``transport`` and ``oracle --plugin`` (k:0.5,
``--cov spiked:gamma=2``) where p > 2.  The layers are timed inside the real
chunk loop, which ``_reduce_chunks`` drives, by wrapping the functions the
chunk kernel (``_chunk_kernel``) calls:

* draw: ``_draw_chunk``, the observation-major rows (n, m, 2p) of the
  chunk's m datasets, drawn straight into the workspace, where the
  covariance root multiplies them and the statistic centres them, each in
  place;
* draw0: chunk 0's draw alone, the first random draw after the target's
  set-up (a mean over the chunks would hide a slow first draw);
* statistic: ``_scm_stack``, the stacked SCM of those rows;
* accumulate: the rest of the kernel, its sums function (the moment sums,
  or the errors and the plug-in coefficient of ``oracle``), taken as the
  kernel's time less the two above;
* merge: the rest of ``_reduce_chunks``, mostly the in-order merge of the
  partial sums (a copy of chunk 0's, then one in-place add per chunk),
  taken as its time less the kernels';
* faults: the minor page faults of the process (``ru_minflt``) during
  ``_reduce_chunks``;
* ws_mb: the largest idle workspace (``lin_core._IDLE``) after a run, in MB
  (10^6 bytes): the chunk's data once (the rows), the statistic's
  coordinates and the buffers of a block of Grams; each row starts from an
  empty idle list.

Each figure is per chunk (draw0: of chunk 0; ws_mb: per workspace), the
median over ``--repeat`` runs after one warm-up run; times are in
milliseconds.  A last line times the shared CSV format on the dataset of
the benchmark's CSV workload (``cescov sample --dist t:10 --n 10000 --p 8
--cov spiked:gamma=2``): ``save_complex_matrix`` (dump) and
``load_complex_matrix`` (parse) of that file in a temporary directory, the
median over ``--repeat`` round trips after a warm-up, and whether the file
read back bit for bit.  The header names numpy's version and its BLAS, whose
small-matrix gemm path sets the statistic's speed, and the bit generator of
the random streams and the stream contract, which set the draw's.  Run it
with BLAS single-threaded, from the repository root::

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 PYTHONPATH=src python3 tools/layer_times.py --p 2 4 10
"""

from __future__ import annotations

import argparse
import os
import resource
import statistics
import tempfile
import time

import numpy as np

from cescov import lin_core, mc_verify as mc
from cescov.ces_sampler import CESModel, RngStream, parse_family, sample_ces

COLUMNS = ("m", "draw", "draw0", "statistic", "accumulate", "merge", "faults", "ws_mb")
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
    """numpy's version, the name and version of its BLAS, and the bit
    generator and stream contract that the draws come from."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    bit_generator = type(RngStream(0).generator().bit_generator).__name__
    return (f"numpy {np.__version__}, BLAS {blas['name']} {blas['version']}, "
            f"{bit_generator} streams, stream contract {mc.STREAM_CONTRACT}")


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
    m = mc._chunk_size(n, p)
    run = lambda: mc.verify_target(target, n=n, p=p, replications=CHUNKS * m, seed=1, **kwargs)
    runs, idle = [], lin_core._IDLE
    lin_core._IDLE = []  # this row's workspaces only
    try:
        run()  # warm-up
        for _ in range(repeat):
            totals.update(dict.fromkeys(totals, 0.0))
            run()
            t, ms = totals, 1e3 / CHUNKS
            draws = t["draw"] + t["draw0"]
            runs.append({
                "m": m,
                "draw": draws * ms,
                "draw0": t["draw0"] * 1e3,
                "statistic": t["statistic"] * ms,
                "accumulate": (t["kernel"] - draws - t["statistic"]) * ms,
                "merge": (t["reduce"] - t["kernel"]) * ms,
                "faults": t["faults"] / CHUNKS,
                "ws_mb": max(ws.nbytes for ws in lin_core._IDLE) / 1e6,
            })
    finally:
        for name, fn in originals.items():
            setattr(mc, name, fn)
        lin_core._IDLE = idle
    return {col: statistics.median(run[col] for run in runs) for col in COLUMNS}


def csv_times(n: int, repeat: int) -> dict:
    """ms to dump and to parse the CSV workload's dataset at n rows (median
    of ``repeat``), and whether every parse returned it bit for bit."""
    p = 8
    model = CESModel(np.zeros(p, dtype=np.complex128), lin_core.spiked_covariance(p, 2.0), parse_family("t:10"))
    x = sample_ces(model, n, RngStream(1))
    dump, parse, exact = [], [], True
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "dataset.csv")
        for i in range(repeat + 1):  # round 0 warms up
            t0 = time.perf_counter()
            lin_core.save_complex_matrix(path, x)
            t1 = time.perf_counter()
            back = lin_core.load_complex_matrix(path)
            t2 = time.perf_counter()
            exact &= np.array_equal(back.view(np.uint64), x.view(np.uint64))
            if i:
                dump.append((t1 - t0) * 1e3)
                parse.append((t2 - t1) * 1e3)
    return {"dump": statistics.median(dump), "parse": statistics.median(parse), "exact": exact}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--p", type=int, nargs="+", default=[2, 4, 10])
    ap.add_argument("--n", type=int, default=10)
    ap.add_argument("--repeat", type=int, default=7)
    args = ap.parse_args()
    print(f"{CHUNKS} chunks of m replications, n={args.n}, median of {args.repeat} runs, "
          f"ms and minor page faults per chunk (draw0: chunk 0's draw), largest workspace in MB; {versions()}")
    print(f"{'model':<10} {'p':>3} {'m':>5} {'draw':>8} {'draw0':>8} {'statistic':>10} {'accumulate':>11} "
          f"{'merge':>8} {'faults':>8} {'ws_mb':>8}")
    for target, (_, p_min) in ROWS.items():
        for p in args.p:
            if p < p_min:
                continue
            t = layer_times(target, p, args.n, args.repeat)
            print(f"{target:<10} {p:>3} {t['m']:>5} {t['draw']:8.2f} {t['draw0']:8.2f} {t['statistic']:10.2f} "
                  f"{t['accumulate']:11.2f} {t['merge']:8.2f} {t['faults']:8.1f} {t['ws_mb']:8.2f}")
    c = csv_times(10_000, args.repeat)
    print(f"csv t:10 10000 x 8 spiked gamma=2: dump {c['dump']:.1f} ms, parse {c['parse']:.1f} ms, "
          f"round trip {'bit-exact' if c['exact'] else 'NOT bit-exact'}")


if __name__ == "__main__":
    main()
