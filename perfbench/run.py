"""cmpese benchmark: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload train-wrn16x2 --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with nothing traced.
``--trace 1`` measures the per-layer metrics: chunks of work alternate
between untraced and traced by span wrappers around the cmpese public API,
then one short chunk runs under tracemalloc. Either way the outputs are
checked after timing.

The last line of standard output is the JSON result; the lines before it
are a readable summary with the environment. The full result and the spans
of a traced run are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
# set-ups timed before each chunk, on top of the one that makes the run's
# state. setup_s is the fastest of them: on a shared machine this
# interpreter-bound work runs up to 40% slower for seconds to minutes at a
# time, which moves a median of set-ups between sets of runs by more than
# any bound, while the fastest set-up of a run stays put
SETUPS_PER_CHUNK = 2
P90_MIN_STEPS = 100  # fewest steps for which a p90 has ten samples beyond it
MiB = 2.0 ** 20


def parse_args(argv, names):
    p = argparse.ArgumentParser(description="cmpese benchmark")
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def blas_threads(np):
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit():
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(ROOT, ".git", ref)
        if os.path.exists(loose):
            with open(loose) as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(np),
        "commit": git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# phases of a run
# ---------------------------------------------------------------------------

def timed(workload, state, rec, seconds, set_up, tracer=None):
    """Run whole chunks until ``seconds`` have passed, calling ``set_up``
    before each one, outside the chunk's timing.

    With a tracer, chunks alternate untraced and traced, in pairs, so both
    kinds see the same conditions. A chunk that raises counts as one failed
    operation and the run goes on. Returns each chunk's img/s, keyed by
    traced-or-not, and the untraced step times.
    """
    from spans import install, restore

    rates = {False: [], True: []}
    chunks = {False: 0, True: 0}
    steps = []
    start = time.perf_counter()
    while True:
        for _ in range(SETUPS_PER_CHUNK):
            set_up()
        traced = tracer is not None and chunks[False] > chunks[True]
        undo = install(tracer) if traced else []
        rec.reset_timing()
        rec.timing = True
        try:
            workload.chunk(state, rec)
        except Exception:
            traceback.print_exc()
            rec.check(False)
        finally:
            rec.timing = False
            restore(undo)
        chunks[traced] += 1
        if rec.wall:
            rates[traced].append(rec.images / rec.wall)
        if not traced:
            steps += rec.step_s
        if time.perf_counter() - start >= seconds and not (
                tracer and chunks[False] > chunks[True]):
            return rates, steps


def memory(workload, state, rec):
    """tracemalloc over one small chunk: what a forward pass leaves held for
    backward (the graph), and the peak of what the chunk allocated."""
    import tracemalloc

    from cmpese.network import Network
    from spans import patch, restore

    held = []
    forward = Network.forward

    def probed(self, x):
        before = tracemalloc.get_traced_memory()[0]
        out = forward(self, x)
        held.append(tracemalloc.get_traced_memory()[0] - before)
        return out

    undo = []
    patch(Network, "forward", probed, undo)
    tracemalloc.start()
    try:
        workload.mem_chunk(state, rec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        restore(undo)
    return {"mem.after_forward_mb": (max(held) / MiB, "MiB"),
            "mem.traced_peak_mb": (peak / MiB, "MiB")}


def run(workload, seed, seconds, trace):
    """Set up, warm up, measure and check one workload; returns
    (metrics {name: (value, unit)}, recorder, details for the summary)."""
    from spans import Tracer, install, layer_metrics, restore
    from workloads import Recorder

    rec = Recorder(workload.step_kind)
    tracer = Tracer() if trace else None
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    details = {}
    try:
        workload.prepare(seed, workdir)
        setup_s = []

        def set_up():
            undo = []
            if tracer:
                tracer.run_id = "setup"
                undo = install(tracer)
            try:
                start = time.perf_counter()
                state = workload.setup(seed, workdir, rec)
                setup_s.append(time.perf_counter() - start)
            finally:
                restore(undo)
                if tracer:
                    tracer.run_id = "traced"
            return state

        state = set_up()
        rec.install()
        try:
            workload.warmup(state, rec)
            rates, steps = timed(workload, state, rec, seconds, set_up, tracer)
            img_per_s = {k: statistics.median(v) for k, v in rates.items() if v}
            details["chunk_img_per_s"] = rates
            details["setup_s"] = setup_s
            if not trace:
                details["step_s"] = steps
                metrics = {
                    "img_per_s": (img_per_s[False], "img/s"),
                    "step_ms_p50": (1e3 * statistics.median(steps), "ms"),
                    "setup_s": (min(setup_s), "s"),
                }
            else:
                metrics = layer_metrics(tracer, "traced", workload.step_kind)
                metrics.update(memory(workload, state, rec))
                # adjacent untraced and traced chunks share the machine's state
                ratios = [u / t for u, t in zip(rates[False], rates[True])]
                metrics["trace.overhead_pct"] = (
                    100.0 * (statistics.median(ratios) - 1.0), "%")
            workload.check(state, rec)
        finally:
            rec.restore()
        details["loss_final"] = rec.loss_final
        if not trace:
            # the process high-water mark: set-up, timing and checks together
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MiB, "MiB")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if tracer:
            tracer.dump(os.path.join(OUT, f"spans-{workload.name}.jsonl"))
    return metrics, rec, details


def summary(name, trace, env, metrics, rec, details):
    lines = ["environment: " + " ".join(f"{k}={v}" for k, v in env.items()),
             f"workload {name}, trace {trace}"]
    if not trace:
        steps = details["step_s"]
        kind = "train step" if rec.step_kind == "train" else "eval batch"
        alias = "train_img_per_s" if rec.step_kind == "train" else "eval_img_per_s"
        lines.append(f"  ({alias}: median over {len(details['chunk_img_per_s'][False])} "
                     f"chunks; step = one {kind}, {len(steps)} timed; "
                     f"setup_s: fastest of {len(details['setup_s'])} set-ups)")
        if len(steps) >= P90_MIN_STEPS:
            p90 = statistics.quantiles(steps, n=10)[-1]
            lines.append(f"  step_ms_p90 = {1e3 * p90:.6g} ms (n={len(steps)})")
        else:
            lines.append(f"  step_ms_p90: not reported, {len(steps)} < {P90_MIN_STEPS} steps")
    else:
        rates = details["chunk_img_per_s"]
        lines.append(f"  img_per_s untraced {statistics.median(rates[False]):.6g}, "
                     f"traced {statistics.median(rates[True]):.6g} "
                     f"(median over {len(rates[False])} and {len(rates[True])} chunks)")
    for key, (value, unit) in metrics.items():
        lines.append(f"  {key} = {value:.6g} {unit}")
    if details["loss_final"] is not None:
        # reported, not bounded: it varies 6-17% between seeds
        lines.append(f"  loss_final = {details['loss_final']:.10g} nats")
    lines.append(f"  failed_share = {rec.failed}/{rec.attempted} = "
                 f"{rec.failed / rec.attempted:.6g}")
    return "\n".join(lines)


def main(argv=None, workloads=None):
    if not os.path.isdir(os.path.join(SRC, "cmpese")):
        print(f"error: no cmpese sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    if workloads is None:
        from workloads import WORKLOADS
        workloads = {name: cls() for name, cls in WORKLOADS.items()}
    args = parse_args(argv, sorted(workloads))
    workload = workloads[args.workload]
    workload.name = args.workload
    env = environment(args.seed)
    metrics, rec, details = run(workload, args.seed, args.seconds, args.trace)
    correct = rec.failed == 0
    result = {"correct": correct, "attempted": rec.attempted, "failed": rec.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json"), "w") as f:
        json.dump({"environment": env, "result": result, "details": details}, f, indent=1)
    print(summary(args.workload, args.trace, env, metrics, rec, details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
