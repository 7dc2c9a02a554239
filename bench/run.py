"""cescov benchmark: Monte Carlo verification throughput and a CSV round trip.

Run from the root of a source checkout::

    python3 bench/run.py --workload thm3-gauss-p2 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --seed 1        # every workload, one process each

The workloads are defined in ``bench/workloads.py``.  A run imports the
package from ``src/``, sets the workload up, makes one untimed warm-up call
and then timed calls (each with its own seed drawn from ``--seed``) until
``--seconds`` of call time and at least ``MIN_CALLS`` calls are done.  Every
call's output is checked; a call that fails a check or raises counts in
``failed``.  BLAS and OpenMP run single-threaded in every process of the
benchmark, so ``workers=2`` uses two CPUs.

Times are in reference-host seconds: each wall time is multiplied by
``REF_S`` over the current wall time of a fixed reference kernel that does
not use cescov, so that the host's changing speed cancels while a change to
cescov shows in full.  The detail line keeps the wall times as well.

``--trace 0`` reports the end-to-end metrics:

* ``items_per_s``: replications (or dataset rows) per second, median over calls.
* ``call_s_p50``: median time of one call.
* ``call_s_tail``: the highest percentile of call time with at least ten
  calls beyond it (the percentile and call count are in the detail line).
* ``setup_s``: process start to the first timed call (import, model, closed
  forms), median over ``SETUP_PROBES`` fresh processes, each scaled by a
  reference time taken just before it.
* ``peak_rss_mb``: peak RSS of this process plus that of its largest child.

``--trace 1`` reports the per-layer metrics of a traced run at ``workers=1``
(see ``bench/tracing.py``): for each layer its self time per call (``self_s``,
set-up included, span wall time), its share of the traced time and its wrapped calls
per item, plus stream draws per item, the process-pool speed-up (untraced,
workers=2 over workers=1), CSV write/read rates and the tracing overhead
(traced over untraced median call time, minus one).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every check passed.  A detail record with machine facts goes to
the line before it and to ``bench/results/``.
"""

from __future__ import annotations

import os

# Before numpy is imported anywhere in this process or its children.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import deque  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

# The host's speed swings by tens of percent within minutes (seen: the same
# run 28-75 % faster half an hour later).  Every call time is therefore
# scaled by REF_S over the current time of a fixed reference kernel that does
# not use cescov, measured between calls at least every REF_EVERY_S seconds.
REF_S = 0.01
REF_EVERY_S = 0.5
REF_ITEMS = 200

MIN_CALLS = 21  # ten calls beyond the tail percentile keep it at or above the median
MIN_PHASE_CALLS = 5  # per phase of a traced run, which reports no percentiles
SETUP_PROBES = 9
TAIL_BEYOND = 10


def _import_cescov():
    """Import the package from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "cescov" / "__init__.py").is_file():
        raise SystemExit(f"error: no cescov sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import cescov
    import cescov.cli  # noqa: F401  (not imported by the package itself)

    if Path(cescov.__file__).resolve().parent != SRC / "cescov":
        raise SystemExit(f"error: imported cescov from {cescov.__file__}, not {SRC}")
    return cescov


def _seeds(seed: int):
    rng = random.Random(seed)
    while True:
        yield rng.getrandbits(63)


def _reference_s() -> float:
    """Wall time of the reference kernel: per-item stream set-up, small
    complex numpy operations and float formatting and parsing, like the
    workloads, but without cescov, so it runs the same at every commit."""
    t0 = time.perf_counter()
    for i in range(REF_ITEMS):
        z = np.random.default_rng(np.random.SeedSequence((7, i))).standard_normal((10, 4))
        x = z[:, :2] + 1j * z[:, 2:]
        d = x - x.mean(axis=0)
        s = d.T @ d.conj() / 9
        float(",".join(repr(v) for v in s.real.ravel().tolist()).split(",")[0])
    return time.perf_counter() - t0


class HostSpeed:
    """Factor turning a wall time now into seconds on the reference host,
    where the reference kernel takes ``REF_S``."""

    def __init__(self):
        _reference_s()  # the first pass is slower: numpy sets up on first use
        self.samples: deque[float] = deque(maxlen=3)
        self.last = -math.inf

    def factor(self) -> float:
        if time.perf_counter() - self.last >= REF_EVERY_S:
            self.samples.append(_reference_s())
            self.last = time.perf_counter()
        return REF_S / statistics.median(self.samples)


def _machine(cescov) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "mc_chunk": getattr(cescov.mc_verify, "CHUNK", None),
    }


class Calls:
    """Timings and check results of a series of calls."""

    def __init__(self, items: int, speed: HostSpeed):
        self.items = items
        self.speed = speed
        self.times: list[float] = []  # in reference-host seconds
        self.wall: list[float] = []
        self.nbytes = 0  # bytes of dataset files written, summed over calls
        self.attempted = 0
        self.failed = 0
        self.verdict_pass = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems += problems

    def call(self, prepared, seed: int, workers=None, wrap=contextlib.nullcontext) -> float:
        """Make one call and check it; return its wall time."""
        t0 = time.perf_counter()
        try:
            with wrap():
                out = prepared.call(seed, workers)
        except Exception:  # a call that raises is a failed call; keep measuring
            traceback.print_exc(file=sys.stderr)
            out = None
        dt = time.perf_counter() - t0
        self.check(prepared, out)
        return dt

    def run(self, prepared, seeds, seconds: float, min_calls: int, workers=None,
            wrap=contextlib.nullcontext) -> "Calls":
        """Timed calls until ``seconds`` of call time and ``min_calls`` calls."""
        while sum(self.wall) < seconds or len(self.wall) < min_calls:
            factor = self.speed.factor()
            self.wall.append(self.call(prepared, next(seeds), workers, wrap))
            self.times.append(self.wall[-1] * factor)
        return self

    def check(self, prepared, out) -> None:
        if out is None:
            self.record(["call raised"])
            return
        self.nbytes += out.nbytes
        self.verdict_pass += bool(out.passed)
        self.record(prepared.check(out))

    def p50(self) -> float:
        return statistics.median(self.times)

    def items_per_s(self) -> float:
        return statistics.median(self.items / t for t in self.times)

    def tail(self) -> tuple[float, float]:
        """(time, percentile) of the slowest call with TAIL_BEYOND calls beyond it."""
        ordered = sorted(self.times)
        k = len(ordered) - TAIL_BEYOND - 1
        return ordered[k], 100.0 * (k + 1) / len(ordered)


def _setup_probe_s(workload: str, seed: int) -> float:
    """Wall time from starting a fresh benchmark process to its ready line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        dt = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return dt


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) * 1024 / 1e6  # ru_maxrss is in KiB on Linux


def end_to_end(cescov, workloads, name: str, seed: int, seconds: float, workdir: str):
    prepared = workloads.prepare(cescov, name, workdir)
    seeds = _seeds(seed)
    speed = HostSpeed()
    calls = Calls(prepared.items, speed)
    calls.call(prepared, next(seeds))  # warm-up, untimed
    calls.run(prepared, seeds, seconds, MIN_CALLS)
    peak_rss = _peak_rss_mb()
    if isinstance(prepared, workloads.MCWorkload) and prepared.args.workers > 1:
        calls.record(prepared.worker_identity(seed))
    setup, wall_setup = [], []
    for _ in range(SETUP_PROBES):
        factor = REF_S / _reference_s()  # a fresh sample: one probe is shorter than REF_EVERY_S
        wall_setup.append(_setup_probe_s(name, seed))
        setup.append(wall_setup[-1] * factor)
    tail_s, tail_pct = calls.tail()
    metrics = {
        "items_per_s": (calls.items_per_s(), "items/s"),
        "call_s_p50": (calls.p50(), "s"),
        "call_s_tail": (tail_s, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    detail = {"calls": len(calls.times), "tail_percentile": tail_pct,
              "tail_calls_beyond": TAIL_BEYOND, "setup_samples_s": setup,
              "wall_setup_samples_s": wall_setup,
              "wall_call_s_p50": statistics.median(calls.wall),
              "reference_s_latest": list(speed.samples),
              "max_dev_se": getattr(prepared, "max_dev_se", None)}
    return calls, metrics, detail


def per_layer(cescov, workloads, tracing, name: str, seed: int, seconds: float, workdir: str):
    seeds = _seeds(seed)
    tracer = tracing.Tracer(cescov)
    with tracer, tracer.root("setup"):
        prepared = workloads.prepare(cescov, name, workdir)
    items = prepared.items
    is_mc = isinstance(prepared, workloads.MCWorkload)
    phase = seconds / (3 if is_mc else 2)
    speed = HostSpeed()
    # Untraced phases first, so that the spans held in memory cannot slow them.
    plain = Calls(items, speed)
    plain.call(prepared, next(seeds), 1)  # warm-up, untimed
    plain.run(prepared, seeds, phase, MIN_PHASE_CALLS, workers=1)
    pool = None
    if is_mc:
        pool = Calls(items, speed).run(prepared, seeds, phase, MIN_PHASE_CALLS, workers=2)
    with tracer:
        traced = Calls(items, speed).run(prepared, seeds, phase, MIN_PHASE_CALLS, workers=1,
                                         wrap=lambda: tracer.root("call"))

    n_spans = len(tracer.start)
    own, roots = tracer.self_times(), tracer.roots()
    in_call = [tracer.name(r) == "call" for r in roots]
    wall_ns = sum(tracer.duration(i) for i in range(n_spans) if tracer.parent[i] < 0)
    n_calls = len(traced.times)
    n_items = n_calls * items
    self_ns = dict.fromkeys(tracing.LAYERS, 0)
    counts = dict.fromkeys(tracing.LAYERS, 0)
    streams = csv_write_ns = csv_read_ns = 0
    for i in range(n_spans):
        layer, span = tracer.layer(i), tracer.name(i)
        if layer in self_ns:
            self_ns[layer] += own[i]
            counts[layer] += in_call[i]
        if in_call[i]:
            streams += span == "RngStream.generator"
            if span.endswith(".save_complex_matrix"):
                csv_write_ns += tracer.duration(i)
            elif span.endswith(".load_complex_matrix"):
                csv_read_ns += tracer.duration(i)
    metrics = {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = (self_ns[layer] / 1e9 / n_calls, "s")
        metrics[f"{layer}.share"] = (self_ns[layer] / wall_ns, "frac")
        metrics[f"{layer}.calls_per_item"] = (counts[layer] / n_items, "calls/item")
    metrics["ces_sampler.streams_per_item"] = (streams / n_items, "streams/item")
    metrics["mc_verify.self_us_per_item"] = (self_ns["mc_verify"] / 1e3 / n_items, "us/item")
    speedup = pool.items_per_s() / plain.items_per_s() if pool else 1.0  # no pool: 1 by definition
    metrics["mc_verify.pool_speedup"] = (speedup, "x")
    csv_mb = traced.nbytes / 1e6
    for key, busy_ns in (("write", csv_write_ns), ("read", csv_read_ns)):
        rate = csv_mb / (busy_ns / 1e9) if busy_ns else 0.0
        metrics[f"lin_core.csv_{key}_mb_per_s"] = (rate, "MB/s")
    metrics["trace.overhead_frac"] = (traced.p50() / plain.p50() - 1.0, "frac")

    span_file = RESULTS / f"{name}-seed{seed}.spans.json.gz"
    tracer.write(span_file)
    detail = {"traced_calls": n_calls, "untraced_calls": len(plain.times),
              "pool_calls": len(pool.times) if pool else 0, "spans": n_spans,
              "span_file": str(span_file.relative_to(ROOT))}
    total = Calls(items, speed)
    for part in (plain, pool, traced):
        if part is not None:
            total.attempted += part.attempted
            total.failed += part.failed
            total.verdict_pass += part.verdict_pass
            total.problems += part.problems
    return total, metrics, detail


def _run_all(names: list[str], args) -> int:
    """Run each workload in its own process; exit 1 if any check failed."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            raise SystemExit(f"error: workload {name} exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        print(f"== {name}: attempted {result['attempted']}, failed {result['failed']}")
        print("\n".join(lines[:-2]), flush=True)
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", help="a workload name, or 'all' (default)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    cescov = _import_cescov()
    sys.path.insert(0, str(BENCH_DIR))
    import tracing
    import workloads

    if args.workload == "all" and not args.setup_probe:
        return _run_all(sorted(workloads.WORKLOADS), args)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    RESULTS.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=RESULTS)
    try:
        if args.setup_probe:
            workloads.prepare(cescov, args.workload, workdir)
            print("ready", flush=True)
            return 0
        run = per_layer if args.trace else end_to_end
        extra = (tracing,) if args.trace else ()
        calls, metrics, detail = run(cescov, workloads, *extra, args.workload, args.seed,
                                     args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, verdict_pass=calls.verdict_pass,
                  fail_frac=calls.failed / calls.attempted, problems=calls.problems,
                  machine=_machine(cescov))
    result = {
        "correct": calls.failed == 0,
        "attempted": calls.attempted,
        "failed": calls.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=2) + "\n")
    for k, (v, u) in metrics.items():
        print(f"{k:32s} {v:14.6g} {u}")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
