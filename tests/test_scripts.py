"""Smoke runs of the scripts that drive a built network from outside the
package: each runs in its own process and must exit 0 with its usual output."""

import os
import subprocess
import sys

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
    assert (out / "folded3x3" / "metrics.csv").exists()


def test_step_faults_times_one_step():
    proc = run_script("step_faults.py", SRC, "--steps", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("step 1:") and "minor faults" in lines[0]
    assert lines[1].startswith("ru_maxrss:")
