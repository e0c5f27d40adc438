#!/usr/bin/env python3
"""Run the benchmark in interleaved parent/change pairs and write the result.

Usage:
    python scripts/bench_pairs.py --parent <rev> [--pairs 10] [--seeds a-b]
        [--workloads W ...] [--seconds S] --out BENCH_<n>.json

Run from anywhere inside a checkout. The parent side is ``src/`` of <rev>,
exported with ``git archive``; the change side is the working tree's
``src/``. Each side gets a copy of the working tree's ``perfbench/`` beside
its ``src/``, in a temporary directory, so both run the same benchmark code.
Every pair runs each workload once per side with the same seed, in one fresh
process each (``BENCHMARK.json``'s command), and the side that runs first
alternates from pair to pair. The machine's speed drifts, so only such pairs
compare.

The output file holds, per workload and end-to-end metric, each side's
values, median and quartiles, the median and quartiles of the per-pair
ratio change/parent, how many pairs the change won, and whether the
change's median stays inside the metric's ``BENCHMARK.json`` bound. It
also holds the ``failed`` and ``attempted`` totals, the runs that gave no
result line, and the environment line of the first run. Per run it records
what the run got from the machine: the benchmark process's user + sys CPU
seconds, and the machine's steal time over the run in jiffies (from
``/proc/stat``; null where that cannot be read). A side that got less CPU or
more steal than its pair's other side ran on a slower machine.

``--seconds`` defaults to ``BENCHMARK.json``'s ``run_seconds``; ``--seeds``
to 1 up to the number of pairs. On SIGTERM the script stops the running
benchmark process, removes its temporary directory and exits with 143.
"""

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def parse_args(argv, spec):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="git revision of the parent side")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seeds", help="first-last, one seed per pair (default 1-<pairs>)")
    p.add_argument("--workloads", nargs="+", choices=[w["name"] for w in spec["workloads"]],
                   default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    first, _, last = (args.seeds or f"1-{args.pairs}").partition("-")
    try:
        args.seeds = list(range(int(first), int(last or first) + 1))
    except ValueError:
        p.error(f"--seeds takes first-last, got {args.seeds!r}")
    if len(args.seeds) != args.pairs:
        p.error(f"--seeds gives {len(args.seeds)} seeds for {args.pairs} pairs")
    return args


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True).stdout


def make_sides(parent, tmp):
    """Directories holding the parent's and the working tree's ``src/``, each
    beside a copy of the working tree's ``perfbench/``."""
    dirs = {side: os.path.join(tmp, side) for side in SIDES}
    archive = os.path.join(tmp, "parent.tar")
    with open(archive, "wb") as f:
        f.write(git("archive", "--format=tar", parent, "src"))
    with tarfile.open(archive) as tar:
        tar.extractall(dirs["parent"], filter="data")
    shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dirs["change"], "src"),
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    for d in dirs.values():
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(d, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    return dirs


def steal_jiffies(stat_text):
    """The steal time of all CPUs, in jiffies, from the text of
    ``/proc/stat``: the eighth value of its ``cpu`` line, or None when the
    text has no such value."""
    for line in stat_text.splitlines():
        fields = line.split()
        if fields[:1] == ["cpu"]:
            return int(fields[8]) if len(fields) > 8 else None
    return None


def machine_now():
    """``(CPU seconds of the finished child processes, steal jiffies or
    None)`` at this moment."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    try:
        with open("/proc/stat") as f:
            steal = steal_jiffies(f.read())
    except OSError:
        steal = None
    return usage.ru_utime + usage.ru_stime, steal


def machine_record(before, after):
    """What one run got from the machine, from ``machine_now()`` before and
    after it: its CPU seconds and the steal jiffies over it."""
    (cpu0, steal0), (cpu1, steal1) = before, after
    steal = None if steal0 is None or steal1 is None else steal1 - steal0
    return {"cpu_s": round(cpu1 - cpu0, 3), "steal_jiffies": steal}


def run_once(command, cwd, workload, seed, seconds):
    """One benchmark process: (environment line, result dict with the
    run's ``machine_record`` under ``machine``), or (None, None) when it gave
    no result line."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    before = machine_now()
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True)
    machine = machine_record(before, machine_now())
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        return None, None
    result["machine"] = machine
    env = next((line for line in lines if line.startswith("environment: ")), None)
    return env, result


def machine_text(record):
    steal = record["steal_jiffies"]
    return f"cpu {record['cpu_s']:.1f} s, steal {'?' if steal is None else steal}"


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(metric, runs):
    """One metric's row: both sides' values and spread, the change's wins
    and the bound check."""
    better, bound = metric["better"], metric["bound"]
    row = {"unit": metric["unit"], "better": better, "bound": bound}
    values = {}
    for side in SIDES:
        values[side] = [r[side]["metrics"][metric["name"]]["value"] for r in runs]
        q1, q3 = quartiles(values[side])
        row[side] = {"median": statistics.median(values[side]), "q1": q1, "q3": q3,
                     "values": values[side]}
    sign = 1 if better == "higher" else -1
    diffs = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
    p_med, c_med = row["parent"]["median"], row["change"]["median"]
    row["change_wins"] = sum(d > 0 for d in diffs)
    row["ties"] = sum(d == 0 for d in diffs)
    row["rel_change"] = (c_med - p_med) / p_med
    # change/parent within each pair: a machine-speed switch between pairs
    # moves both sides' medians, but not the ratio of runs made side by side
    ratios = [c / p for p, c in zip(values["parent"], values["change"])]
    row["pair_ratio_median"] = statistics.median(ratios)
    row["pair_ratio_q1"], row["pair_ratio_q3"] = quartiles(ratios)
    row["within_bound"] = sign * row["rel_change"] >= -bound
    # the gain rule: nine tenths of the pairs won, and the medians further
    # apart than the parent's interquartile range
    row["gain"] = (row["change_wins"] >= 0.9 * len(runs)
                   and sign * (c_med - p_med) > row["parent"]["q3"] - row["parent"]["q1"])
    return row


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    args = parse_args(argv, spec)
    parent = git("rev-parse", "--verify", args.parent + "^{commit}").decode().strip()
    head = git("rev-parse", "HEAD").decode().strip()
    dirty = bool(git("status", "--porcelain", "--", "src"))
    out = {"parent": parent, "change": head + (" + working tree" if dirty else ""),
           "pairs": args.pairs, "seeds": args.seeds, "seconds": args.seconds,
           "environment": None, "workloads": {}}
    runs = {w: [] for w in args.workloads}
    errors = {w: {side: 0 for side in SIDES} for w in args.workloads}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        dirs = make_sides(parent, tmp)
        for i, seed in enumerate(args.seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for w in args.workloads:
                pair = {}
                for side in order:
                    env, result = run_once(spec["command"], dirs[side], w, seed, args.seconds)
                    if result is None:
                        errors[w][side] += 1
                        continue
                    pair[side] = result
                    out["environment"] = out["environment"] or env
                if len(pair) == 2:
                    runs[w].append(pair)
                print(f"pair {i + 1}/{args.pairs} seed {seed} {w}: " + ", ".join(
                    f"{side} {pair[side]['metrics']['img_per_s']['value']:.4g} img/s "
                    f"({machine_text(pair[side]['machine'])})"
                    for side in order if side in pair), flush=True)
    for w in args.workloads:
        row = {"pairs_run": len(runs[w]), "runs_without_result": errors[w],
               "failed": {s: sum(r[s]["failed"] for r in runs[w]) for s in SIDES},
               "attempted": {s: sum(r[s]["attempted"] for r in runs[w]) for s in SIDES},
               "machine": {s: [r[s]["machine"] for r in runs[w]] for s in SIDES},
               "metrics": {}}
        if runs[w]:
            row["metrics"] = {m["name"]: summarize(m, runs[w]) for m in spec["end_to_end"]}
        out["workloads"][w] = row
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    for w, row in out["workloads"].items():
        for name, m in row["metrics"].items():
            print(f"{w} {name}: {m['parent']['median']:.4g} -> {m['change']['median']:.4g} "
                  f"({100 * m['rel_change']:+.1f}%, pair ratio {m['pair_ratio_median']:.3f} "
                  f"[{m['pair_ratio_q1']:.3f}-{m['pair_ratio_q3']:.3f}], "
                  f"wins {m['change_wins']}/{row['pairs_run']}, "
                  f"{'inside' if m['within_bound'] else 'OUTSIDE'} bound"
                  f"{', gain' if m['gain'] else ''})")
        for k in range(row["pairs_run"]):
            ratios = ", ".join(f"{name} {m['change']['values'][k] / m['parent']['values'][k]:.3f}"
                               for name, m in row["metrics"].items())
            print(f"{w} pair {k + 1} ratios {ratios}; " + "; ".join(
                f"{s} {machine_text(row['machine'][s][k])}" for s in SIDES))
        print(f"{w} failed: parent {row['failed']['parent']}, change {row['failed']['change']}; "
              f"runs without result: {row['runs_without_result']}")
    return 0 if all(not any(r["runs_without_result"].values())
                    for r in out["workloads"].values()) else 1


def exit_on_sigterm(signum, frame):
    """Leave by the normal exit path: ``subprocess.run`` kills the running
    benchmark process, and the temporary directory is removed."""
    sys.exit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, exit_on_sigterm)
    sys.exit(main())
