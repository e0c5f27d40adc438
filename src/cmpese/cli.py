"""Command-line interface.

Subcommands: train, eval, param-count, gradcheck, export-attention,
synth-data. Exit codes: 0 success, 1 failure with a message on stderr,
2 usage errors (argparse).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .attention import MODE_NAMES
from .checkpoint import load_checkpoint
from .config import check_class_count, load_experiment, materialize_data, resolve_seed
from .data import load_cifar_binary, load_dataset_npz, load_synth_manifest, \
    save_dataset_npz, synth_dataset
from .diagnostics import ascii_heatmap, attention_stats, capture_trace, \
    export_inner_images, stats_to_csv
from .errors import CmpeSeError, ConfigError, DataFormatError, output_dir, read_json
from .gradcheck import block_gradient_check
from .network import build, param_count, reference_mparams, spec_from_dict
from .train import evaluate, train


def _load_eval_data(path, classes):
    if str(path).endswith(".npz"):
        ds = load_dataset_npz(path)
    else:
        ds, _ = load_cifar_binary(path, classes=classes, split="test")
    check_class_count("eval", ds, classes)
    return ds


def _rebuild_model(ckpt_path):
    if not os.path.exists(ckpt_path):
        raise FileNotFoundError(f"checkpoint not found: {ckpt_path}")
    state, velocity, meta = load_checkpoint(ckpt_path)
    if meta["network"] is None:
        raise DataFormatError(f"{ckpt_path}.json: sidecar holds no network description")
    spec = spec_from_dict(meta["network"])
    model = build(spec, rng=np.random.default_rng(0))
    model.load_state_dict(state)
    return model, spec


def cmd_train(args):
    exp = load_experiment(args.config)
    spec, cfg = exp["spec"], exp["train"]
    train_ds, eval_ds = materialize_data(exp["data"], spec.num_classes)
    model = build(spec, rng=np.random.default_rng(cfg.seed))
    print(f"training {spec.family}-{spec.depth} "
          f"(mode={spec.attention.mode.value}, {model.param_count():,} params) "
          f"for {cfg.total_epochs()} epochs")
    history = train(model, train_ds, cfg, eval_data=eval_ds, out_dir=exp["out_dir"])
    last = history[-1]
    print(f"done: train_acc={last['train_acc']:.2f}% eval_err={last['eval_err']:.2f}%")
    if exp["out_dir"] is not None:
        print(f"metrics and checkpoint in {exp['out_dir']}")
    return 0


def cmd_eval(args):
    model, spec = _rebuild_model(args.checkpoint)
    if args.top_k > spec.num_classes:
        raise ConfigError(f"--top-k {args.top_k} is above the checkpoint's num_classes "
                          f"{spec.num_classes}")
    data = _load_eval_data(args.data, spec.num_classes)
    if args.top_k > 1:
        errors = evaluate(model, data, batch_size=args.batch_size,
                          topk=(1, args.top_k))
        print(f"top1_error_pct={errors[1]:.4f}")
        print(f"top{args.top_k}_error_pct={errors[args.top_k]:.4f}")
    else:
        err = evaluate(model, data, batch_size=args.batch_size)
        print(f"top1_error_pct={err:.4f}")
    return 0


def cmd_param_count(args):
    raw = read_json(args.netspec, ConfigError)
    if "network" in raw:   # accept a whole experiment file too
        raw = raw["network"]
    spec = spec_from_dict(raw)
    count = param_count(spec)
    print(f"{spec.family}-{spec.depth}"
          + (f"-{spec.widen_factor}" if spec.family == "wrn" else "")
          + f" mode={spec.attention.mode.value}: {count:,} parameters"
          f" ({count / 1e6:.2f}M)")
    ref = reference_mparams(spec)
    if ref is not None:
        within = abs(count - ref * 1e6) <= 0.02 * ref * 1e6
        print(f"reference: {ref}M; within 2%: {'yes' if within else 'NO'}")
    return 0


def cmd_gradcheck(args):
    modes = MODE_NAMES if args.mode == "all" else (args.mode,)
    seed = resolve_seed(args.seed)
    worst = 0.0
    for mode in modes:
        res = block_gradient_check(mode, seed=seed, rtol=args.rtol,
                                   raise_on_fail=False)
        print(f"{mode}: max rel. error {res.max_rel_err:.3e} (worst: {res.worst_name})")
        worst = max(worst, res.max_rel_err)
    ok = worst < args.rtol
    print(f"overall max rel. error {worst:.3e} {'<' if ok else '>='} {args.rtol:g}")
    return 0 if ok else 1


def cmd_export_attention(args):
    model, spec = _rebuild_model(args.checkpoint)
    data = _load_eval_data(args.data, spec.num_classes)
    probe = data.images[: args.samples]
    trace = capture_trace(model, probe)
    stats_path = stats_to_csv(attention_stats(trace), os.path.join(
        output_dir(args.out_dir, ConfigError), "attention_stats.csv"))
    print(f"wrote {stats_path} ({len(trace.blocks)} blocks, "
          f"{trace.sample_count} samples)")
    if any(b.before is not None for b in trace.blocks):
        maps_path = export_inner_images(trace, args.out_dir)
        print(f"wrote {maps_path}")
        if args.heatmap:
            b = next(b for b in trace.blocks if b.before is not None)
            print(f"block {b.index} sample 0 inner map (before re-weighting):")
            print(ascii_heatmap(b.before[0]))
    return 0


def cmd_synth_data(args):
    manifest = load_synth_manifest(args.manifest)
    out = manifest.pop("out", None)
    if out is None:
        out = os.path.splitext(args.manifest)[0] + ".npz"
    manifest["seed"] = resolve_seed(manifest["seed"])
    ds = synth_dataset(**manifest)
    out = save_dataset_npz(ds, out)
    print(f"wrote {out}: {len(ds)} samples, {ds.class_count} classes, seed {manifest['seed']}")
    return 0


def positive_int(text):
    """argparse type of a count: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def build_parser():
    p = argparse.ArgumentParser(
        prog="cmpese",
        description="competitive squeeze-and-excitation residual networks",
    )
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("train", help="train a model from an experiment config")
    q.add_argument("config")
    q.set_defaults(fn=cmd_train)

    q = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    q.add_argument("checkpoint")
    q.add_argument("data")
    q.add_argument("--batch-size", type=positive_int, default=256)
    q.add_argument("--top-k", type=positive_int, default=1)
    q.set_defaults(fn=cmd_eval)

    q = sub.add_parser("param-count", help="parameter count for a network spec")
    q.add_argument("netspec")
    q.set_defaults(fn=cmd_param_count)

    q = sub.add_parser("gradcheck", help="finite-difference check of one block")
    q.add_argument("--mode", choices=("all",) + MODE_NAMES, default="all")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--rtol", type=float, default=1e-4)
    q.set_defaults(fn=cmd_gradcheck)

    q = sub.add_parser("export-attention", help="dump excitation stats and inner maps")
    q.add_argument("checkpoint")
    q.add_argument("data")
    q.add_argument("out_dir")
    q.add_argument("--samples", type=positive_int, default=4)
    q.add_argument("--heatmap", action="store_true")
    q.set_defaults(fn=cmd_export_attention)

    q = sub.add_parser("synth-data", help="render a synthetic dataset from a manifest")
    q.add_argument("manifest")
    q.set_defaults(fn=cmd_synth_data)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (CmpeSeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
