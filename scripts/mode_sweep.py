#!/usr/bin/env python3
"""Sweep the attention modes on the synthetic dataset with a tiny WRN and
write a side-by-side comparison table.

Usage:
    python scripts/mode_sweep.py --out runs/sweep [--depth 10] [--epochs 30]

Each mode trains from the same init seed on the same data, so differences in
the table reflect the attention structure alone. With the defaults this runs
in about a minute on a laptop CPU.
"""

import argparse
import csv
import os
import time

import numpy as np

from cmpese.attention import MODE_NAMES, AttentionConfig
from cmpese.data import synth_dataset
from cmpese.network import NetworkSpec, build, param_count
from cmpese.train import TrainConfig, train


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="runs/sweep")
    ap.add_argument("--depth", type=int, default=10)
    ap.add_argument("--widen", type=int, default=1)
    ap.add_argument("--classes", type=int, default=4)
    ap.add_argument("--epochs", type=int, default=30)
    ap.add_argument("--t", type=int, default=4, help="excitation reduction ratio")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--modes", nargs="*", default=list(MODE_NAMES))
    args = ap.parse_args()

    train_ds = synth_dataset(class_count=args.classes, n_per_class=100,
                             seed=args.seed)
    eval_ds = synth_dataset(class_count=args.classes, n_per_class=25,
                            seed=args.seed + 1, split="test")
    cfg = TrainConfig(epochs=args.epochs, batch_size=32, base_lr=0.05,
                      schedule=((max(1, args.epochs * 2 // 3), 10),), seed=args.seed)

    os.makedirs(args.out, exist_ok=True)
    rows = []
    for mode in args.modes:
        spec = NetworkSpec(family="wrn", depth=args.depth, widen_factor=args.widen,
                           num_classes=args.classes,
                           attention=AttentionConfig(mode=mode, t=args.t))
        model = build(spec, rng=np.random.default_rng(args.seed))
        n_params = param_count(spec)
        print(f"== {mode}: {n_params:,} params ==")
        tick = time.perf_counter()
        history = train(model, train_ds, cfg, eval_data=eval_ds,
                        out_dir=os.path.join(args.out, mode))
        elapsed = time.perf_counter() - tick
        err = history[-1]["eval_err"]
        best_err = min(r["eval_err"] for r in history)
        rows.append({
            "mode": mode, "params": n_params,
            "final_eval_err": round(err, 4),
            "best_eval_err": round(best_err, 4),
            "final_train_acc": round(history[-1]["train_acc"], 4),
            "seconds": round(elapsed, 1),
        })
        print(f"   eval err {err:.2f}% (best {best_err:.2f}%), {elapsed:.0f}s")

    table = os.path.join(args.out, "sweep.csv")
    with open(table, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)
    print(f"\nwrote {table}")
    width = max(len(r["mode"]) for r in rows)
    for r in rows:
        print(f"{r['mode']:<{width}}  {r['params']:>10,}  "
              f"err {r['final_eval_err']:6.2f}%  best {r['best_eval_err']:6.2f}%")


if __name__ == "__main__":
    main()
