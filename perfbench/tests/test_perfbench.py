"""Smoke-sized self-test of the benchmark.

    python3 -m pytest perfbench/tests

Runs every workload at toy sizes through the same code as a real run and
checks the result line against BENCHMARK.json, then checks the pieces a
smoke run cannot exercise on its own: the logit check's rejection of a
perturbed weight and the tracer's self-time arithmetic.
"""

import json
import os
import sys

import numpy as np
import pytest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERFBENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), PERFBENCH]

import run  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    EvalWRN, TrainDeskAllModes, TrainWRN, float64_twin, logits_agree, network, wrn_spec,
)

SMOKE = {
    "train-wrn16x2": lambda: TrainWRN(depth=10, widen=1, image_size=8, batch=8,
                                      n_train=16, n_eval=8, n_warm=8),
    "train-desk-allmodes": lambda: TrainDeskAllModes(image_size=8, batch=8, n_train=16,
                                                     epochs=1, n_warm=8),
    "eval-wrn16x2": lambda: EvalWRN(depth=10, widen=1, image_size=8, batch=8, n_eval=16,
                                    n_probe=8),
}


def declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec, {m["name"]: m["unit"] for m in spec[section]}


def test_smoke_workloads_match_the_declared_ones():
    spec, _ = declared("end_to_end")
    assert sorted(SMOKE) == sorted(w["name"] for w in spec["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_every_metric_is_emitted_with_its_unit(workload, trace, capsys):
    workloads = {name: make() for name, make in SMOKE.items()}
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, workloads) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    _, units = declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(np.isfinite(v) for v in values.values())
    if not trace:
        assert all(v > 0 for v in values.values())
    elif workload == "train-desk-allmodes":
        # mode none bypasses the unit; every other mode runs one
        assert values["attention.none.fwd_s"] == values["attention.none.bwd_s"] == 0
        assert all(values[f"attention.{m}.fwd_s"] > 0 for m in
                   ("se", "doublefc", "pairview2x1", "pairview1x1", "folded3x3"))


def test_logit_check_rejects_a_perturbed_weight():
    model = network.build(wrn_spec(10, 1, 4, "folded3x3", 4), rng=np.random.default_rng(0))
    probe = np.random.default_rng(1).standard_normal((4, 8, 8, 3)).astype(np.float32)
    twin = float64_twin(model)
    assert logits_agree(model, twin, probe)
    twin.blocks[1].conv1.weight.data[1, 1, 0, 0] += 0.05
    assert not logits_agree(model, twin, probe)


def test_self_time_is_duration_minus_child_spans():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 10.0])
    tr = Tracer(clock=lambda: next(ticks))
    outer = tr.start("outer")
    first = tr.start("child")
    tr.stop(first)
    tr.start("child")              # left open: closing outer closes it too
    tr.stop(outer)
    by_name = {}
    for _, parent, name, start, end, self_s, _ in tr.spans:
        by_name.setdefault(name, []).append((parent, end - start, self_s))
    assert by_name["child"] == [(1, 2.0, 2.0), (1, 6.0, 6.0)]
    assert by_name["outer"] == [(None, 10.0, 2.0)]
