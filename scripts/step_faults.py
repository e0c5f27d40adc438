#!/usr/bin/env python3
"""Print wall time, minor page faults and CPU time of each training step.

Usage:
    python scripts/step_faults.py <src> [--steps N]

<src> is the directory that holds the ``cmpese`` package to run, e.g. the
``src/`` of a checkout. The script builds a WRN-16-2 (folded3x3, t=16,
float32), runs 3 untimed warm-up training steps at batch 64 on 32x32 inputs
(forward, cross-entropy, backward, Nesterov SGD), then times N more (default
5). For each it prints wall ms, minor page faults, user ms and sys ms from
``resource.getrusage``; the last line is the process's peak RSS. A step that
reuses the memory the previous step freed takes few faults and little system
time, so two checkouts compare like this:

    python scripts/step_faults.py ../parent/src
    python scripts/step_faults.py src
"""

import argparse
import os
import resource
import sys
import time

import numpy as np

WARMUP = 3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src")
    ap.add_argument("--steps", type=int, default=5)
    args = ap.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    from cmpese import tensor as T
    from cmpese.attention import AttentionConfig
    from cmpese.network import NetworkSpec, build
    from cmpese.tensor import Tensor
    from cmpese.train import sgd_nesterov_step

    rng = np.random.default_rng(0)
    spec = NetworkSpec(family="wrn", depth=16, widen_factor=2, num_classes=10,
                       attention=AttentionConfig(mode="folded3x3", t=16))
    model = build(spec, rng=rng)
    model.train()
    params = dict(model.named_parameters())
    flags = model.decay_flags()
    velocity = {}
    x = rng.standard_normal((64, 32, 32, 3)).astype(np.float32)
    y = rng.integers(0, 10, size=64)

    def step():
        loss = T.cross_entropy(model.forward(Tensor(x)), y)
        model.zero_grad()
        loss.backward()
        sgd_nesterov_step(params, velocity, 0.1, 0.9, 5e-4, flags)

    for _ in range(WARMUP):
        step()
    for i in range(args.steps):
        r0, t0 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
        step()
        t1, r1 = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF)
        print(f"step {i + 1}: {1e3 * (t1 - t0):7.1f} ms  "
              f"{r1.ru_minflt - r0.ru_minflt:6d} minor faults  "
              f"user {1e3 * (r1.ru_utime - r0.ru_utime):6.1f} ms  "
              f"sys {1e3 * (r1.ru_stime - r0.ru_stime):6.1f} ms", flush=True)
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"ru_maxrss: {maxrss / 1024:.1f} MiB")


if __name__ == "__main__":
    main()
