#!/usr/bin/env python3
"""Print two sha256 digests per attention mode of a short seeded training
run, and one of a WRN-16-2 training step.

Usage:
    python scripts/bitwise_modes.py <src>

<src> is the directory that holds the ``cmpese`` package to run, e.g. the
``src/`` of a checkout. Each mode trains a WRN-10-1 (t=4) for 3 epochs on 96
synthetic 16x16 images at batch 32, with augmentation and mixup (the last
epoch plain), under an injected clock and inside a temporary directory. The
first digest covers the final state dict, the bytes of ``metrics.csv`` and
the per-epoch history. The second covers the trained model's eval-mode
logits on a fixed probe batch of 32 held-out images, so an inference-only
change shows even where it leaves the rounded error rates alone. The last
line, ``wrn16x2``, digests the state dict of a WRN-16-2 (folded3x3) after
one seeded, augmented training step at batch 64 on 32x32 images: its convs
run their weight gradients in several blocks, where the WRN-10-1's run
one. Two checkouts that print the same lines trained and evaluate bitwise
identically:

    diff <(python scripts/bitwise_modes.py ../parent/src) \\
         <(python scripts/bitwise_modes.py src)
"""

import hashlib
import os
import sys
import tempfile

import numpy as np


def state_hash(model):
    """sha256 over the model's state dict, names and bytes in name order."""
    h = hashlib.sha256()
    for name, arr in sorted(model.state_dict().items()):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h


def wrn16x2_digest():
    from cmpese.attention import AttentionConfig
    from cmpese.data import synth_dataset
    from cmpese.network import NetworkSpec, build
    from cmpese.train import TrainConfig, train

    data = synth_dataset(class_count=4, n_per_class=16, image_size=32, seed=7)
    spec = NetworkSpec(family="wrn", depth=16, widen_factor=2, num_classes=4,
                       attention=AttentionConfig(mode="folded3x3"))
    model = build(spec, rng=np.random.default_rng(11))
    train(model, data, TrainConfig(epochs=1, batch_size=64, augment=True, seed=13))
    return state_hash(model).hexdigest()


def digest(mode, out_dir):
    from cmpese.attention import AttentionConfig
    from cmpese.data import MixupConfig, synth_dataset
    from cmpese.network import NetworkSpec, build
    from cmpese.tensor import Tensor, no_grad
    from cmpese.train import TrainConfig, train

    data = synth_dataset(class_count=4, n_per_class=24, seed=7)
    spec = NetworkSpec(family="wrn", depth=10, widen_factor=1, num_classes=4,
                       attention=AttentionConfig(mode=mode, t=4))
    model = build(spec, rng=np.random.default_rng(11))
    cfg = TrainConfig(epochs=2, batch_size=32, base_lr=0.05, augment=True, seed=13,
                      mixup=MixupConfig(enabled=True, alpha=1.0, tail_epochs=1))
    clock_state = [0.0]

    def clock():
        clock_state[0] += 0.125
        return clock_state[0]

    history = train(model, data, cfg, out_dir=out_dir, clock=clock)
    h = state_hash(model)
    with open(os.path.join(out_dir, "metrics.csv"), "rb") as f:
        h.update(f.read())
    h.update(repr(history).encode())
    probe = synth_dataset(class_count=4, n_per_class=8, seed=29, split="test").images
    model.eval()
    with no_grad():
        logits = model.forward(Tensor(probe)).data
    return h.hexdigest(), hashlib.sha256(logits.tobytes()).hexdigest()


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    sys.path.insert(0, os.path.abspath(sys.argv[1]))
    from cmpese.attention import MODE_NAMES

    with tempfile.TemporaryDirectory() as tmp:
        for mode in MODE_NAMES:
            print(mode, *digest(mode, os.path.join(tmp, mode)), flush=True)
    print("wrn16x2", wrn16x2_digest(), flush=True)


if __name__ == "__main__":
    main()
