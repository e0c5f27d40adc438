"""scripts/bench_pairs.py: a smoke-sized pair run and its summary arithmetic."""

import importlib.util
import json
import os
import signal
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "bench_pairs.py")

spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


@pytest.mark.skipif(not os.path.isdir(os.path.join(ROOT, ".git")),
                    reason="needs a git checkout to export the parent from")
def test_one_pair_against_head(tmp_path):
    out = tmp_path / "BENCH_smoke.json"
    proc = subprocess.run(
        [sys.executable, SCRIPT, "--parent", "HEAD", "--pairs", "1", "--seeds", "3-3",
         "--workloads", "train-desk-allmodes", "--seconds", "0", "--out", str(out)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert result["pairs"] == 1 and result["seeds"] == [3]
    assert result["environment"].startswith("environment: nproc=")
    row = result["workloads"]["train-desk-allmodes"]
    assert row["pairs_run"] == 1
    assert row["runs_without_result"] == {"parent": 0, "change": 0}
    assert row["failed"] == {"parent": 0, "change": 0}
    assert min(row["attempted"].values()) >= 1
    bounds = {m["name"]: m["bound"] for m in declared()["end_to_end"]}
    assert {k: m["bound"] for k, m in row["metrics"].items()} == bounds
    for m in row["metrics"].values():
        assert len(m["parent"]["values"]) == len(m["change"]["values"]) == 1
        assert m["change_wins"] + m["ties"] <= 1
    for side in ("parent", "change"):
        (machine,) = row["machine"][side]
        assert machine["cpu_s"] > 0
        assert machine["steal_jiffies"] is None or machine["steal_jiffies"] >= 0


def benchmark_children(pid):
    """Pids of the running processes whose parent is ``pid`` and whose
    command runs ``perfbench/run.py``."""
    found = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
            with open(f"/proc/{entry}/cmdline", "rb") as f:
                cmdline = f.read()
        except (OSError, ValueError, IndexError):
            continue
        if ppid == pid and b"perfbench/run.py" in cmdline:
            found.append(int(entry))
    return found


def running(pid):
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.mark.skipif(not os.path.isdir(os.path.join(ROOT, ".git")),
                    reason="needs a git checkout to export the parent from")
@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="finds processes in /proc")
def test_sigterm_removes_the_temporary_directory_and_stops_the_benchmark(tmp_path):
    proc = subprocess.Popen(
        [sys.executable, SCRIPT, "--parent", "HEAD", "--pairs", "1", "--workloads",
         "train-desk-allmodes", "--seconds", "60", "--out", str(tmp_path / "o.json")],
        env={**os.environ, "TMPDIR": str(tmp_path)}, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    children = []
    try:
        deadline = time.monotonic() + 120
        while not children and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.1)
            children = benchmark_children(proc.pid)
        assert children, "no benchmark process started"
        assert list(tmp_path.glob("bench-pairs-*"))
        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        for pid in children:
            if running(pid):
                os.kill(pid, signal.SIGKILL)
    assert code != 0
    assert not list(tmp_path.glob("bench-pairs-*"))
    assert not any(running(pid) for pid in children)


def runs(metric, parent, change):
    return [{"parent": {"metrics": {metric: {"value": p}}},
             "change": {"metrics": {metric: {"value": c}}}} for p, c in zip(parent, change)]


def test_summary_counts_wins_in_the_metric_s_direction():
    lower = {"name": "step_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25}
    row = bench_pairs.summarize(lower, runs("step_ms_p50", [10, 11, 12, 13], [9, 11, 13, 14]))
    assert (row["change_wins"], row["ties"]) == (1, 1)
    assert row["parent"]["median"] == 11.5 and row["change"]["median"] == 12
    assert row["within_bound"] and not row["gain"]
    higher = dict(lower, name="img_per_s", better="higher")
    row = bench_pairs.summarize(higher, runs("img_per_s", [10] * 10, [9] * 10))
    assert row["change_wins"] == 0 and row["within_bound"]
    row = bench_pairs.summarize(higher, runs("img_per_s", [10] * 10, [7] * 10))
    assert not row["within_bound"]


def test_gain_needs_nine_tenths_of_the_pairs_and_a_gap_wider_than_the_spread():
    metric = {"name": "img_per_s", "unit": "img/s", "better": "higher", "bound": 0.25}
    parent = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]
    assert bench_pairs.summarize(metric, runs("img_per_s", parent, [p + 20 for p in parent]))["gain"]
    # every pair won, but by less than the parent's interquartile range
    assert not bench_pairs.summarize(metric, runs("img_per_s", parent, [p + 1 for p in parent]))["gain"]
    # a wide gap, but only 8 of 10 pairs won
    change = [p + 20 for p in parent[:8]] + [p - 1 for p in parent[8:]]
    assert not bench_pairs.summarize(metric, runs("img_per_s", parent, change))["gain"]


def test_pair_ratio_median_ignores_a_machine_speed_switch_between_pairs():
    metric = {"name": "img_per_s", "unit": "img/s", "better": "higher", "bound": 0.25}
    # the machine slows 1.7x after the fifth pair's parent run: the change's
    # median drops far below the parent's, while within every other pair
    # the change runs 1% faster
    parent = [100, 101, 99, 100, 102, 60, 59, 61, 60, 58]
    change = [101, 102, 100, 101, 60, 61, 60, 62, 61, 59]
    row = bench_pairs.summarize(metric, runs("img_per_s", parent, change))
    assert row["rel_change"] < -0.2 and row["change_wins"] == 9
    assert 1.009 < row["pair_ratio_median"] < 1.02
    assert row["pair_ratio_q1"] <= row["pair_ratio_median"] <= row["pair_ratio_q3"]


STAT = """cpu  7020031 0 64250 9379986 9930 0 2232 44581 0 0
cpu0 3565934 0 46425 4612710 8651 0 1834 26143 0 0
cpu1 3454096 0 17824 4767275 1279 0 398 18438 0 0
intr 23354002 0 0 0
ctxt 11073388
"""


def test_steal_is_the_eighth_value_of_the_cpu_line():
    assert bench_pairs.steal_jiffies(STAT) == 44581
    # a kernel too old to count steal time, and a text without a cpu line
    assert bench_pairs.steal_jiffies("cpu  1 2 3 4 5 6 7\n") is None
    assert bench_pairs.steal_jiffies("intr 1 2\n") is None


def test_machine_record_is_the_difference_over_the_run():
    record = bench_pairs.machine_record((12.25, 44581), (42.5, 44620))
    assert record == {"cpu_s": 30.25, "steal_jiffies": 39}
    assert bench_pairs.machine_record((0.0, None), (1.0, 5))["steal_jiffies"] is None
    assert bench_pairs.machine_text(record) == "cpu 30.2 s, steal 39"
    assert bench_pairs.machine_text({"cpu_s": 1.0, "steal_jiffies": None}) == "cpu 1.0 s, steal ?"


def test_machine_now_reads_this_process_s_children():
    cpu, steal = bench_pairs.machine_now()
    assert cpu >= 0
    assert steal is None or steal >= 0


def stub_run(tmp_path):
    """``run_once`` on a stub benchmark that prints an environment line and
    an empty result."""
    result_line = json.dumps({"metrics": {}, "failed": 0, "attempted": 1})
    command = [sys.executable, "-c", f"print('environment: stub'); print({result_line!r})"]
    return bench_pairs.run_once(command, str(tmp_path), "train-desk-allmodes", 3, 0)


def test_each_run_records_its_environment_line_and_cpu_seconds(tmp_path):
    env, result = stub_run(tmp_path)
    assert env == "environment: stub"
    machine = result["machine"]
    assert set(machine) == {"cpu_s", "steal_jiffies"}
    assert machine["cpu_s"] >= 0


def test_an_unreadable_steal_records_null_and_prints_a_question_mark(monkeypatch, tmp_path):
    monkeypatch.setattr(bench_pairs, "steal_jiffies", lambda stat_text: None)
    _, result = stub_run(tmp_path)
    machine = result["machine"]
    assert machine["steal_jiffies"] is None
    assert bench_pairs.machine_text(machine).endswith(", steal ?")
