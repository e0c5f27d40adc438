"""Smoke runs of the scripts that drive a built network from outside the
package: each runs in its own process and must exit 0 with its usual output."""

import os
import re
import subprocess
import sys

from cmpese.attention import MODE_NAMES

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def run_script(*args):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("CMPESE_SEED", None)
    return subprocess.run([sys.executable, os.path.join(ROOT, "scripts", args[0]), *args[1:]],
                          env=env, capture_output=True, text=True, timeout=300)


def test_mode_sweep_writes_its_table(tmp_path):
    out = tmp_path / "sweep"
    proc = run_script("mode_sweep.py", "--out", str(out), "--modes", "folded3x3",
                      "--epochs", "1")
    assert proc.returncode == 0, proc.stderr
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0] == "mode,params,final_eval_err,best_eval_err,final_train_acc,seconds"
    assert len(rows) == 2 and rows[1].startswith("folded3x3,")
    log = (out / "folded3x3" / "metrics.csv").read_text().splitlines()
    # the table's final error is the one training logged for its last epoch
    assert float(rows[1].split(",")[2]) == float(log[-1].split(",")[4])
    # one epoch trains at base_lr: the schedule's boundary is at least epoch 1
    assert log[1].split(",")[:2] == ["0", "0.05"]


def test_step_faults_times_one_step():
    proc = run_script("step_faults.py", SRC, "--steps", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("step 1:") and "minor faults" in lines[0]
    assert lines[1].startswith("ru_maxrss:")


def test_bitwise_modes_prints_two_stable_digests_per_mode():
    # two digests per mode, then one of the WRN-16-2 step; each line the
    # same in both runs
    runs = [run_script("bitwise_modes.py", SRC) for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
        *lines, last = proc.stdout.splitlines()
        assert [line.split()[0] for line in lines] == list(MODE_NAMES)
        assert all(re.fullmatch(r"\S+ [0-9a-f]{64} [0-9a-f]{64}", line) for line in lines)
        assert re.fullmatch(r"wrn16x2 [0-9a-f]{64}", last)
    assert runs[0].stdout == runs[1].stdout


def test_code_lines_counts_code_only(tmp_path):
    # a docstring, a blank line, a comment, code with a trailing comment, a
    # function with its own docstring, and a string over two code lines
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "m.py").write_text(
        '"""Module."""\n\n# alone\nx = 1  # trailing\n\ndef f():\n'
        '    """Doc\n    string."""\n    return """a\nb"""\n')
    (tmp_path / "notes.txt").write_text("x = 1\n")
    proc = run_script("code_lines.py", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["4", f"     4 {os.path.join('pkg', 'm.py')}"]
