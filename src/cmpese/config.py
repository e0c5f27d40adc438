"""Experiment configuration files (JSON).

Layout:

    {
      "network": { family, depth, widen_factor, num_classes, attention {...} },
      "train":   { preset?, epochs, batch_size, ... },
      "data":    { "kind": "synth" | "npz" | "cifar10" | "cifar100", ... },
      "out_dir": "runs/example"
    }

Unknown keys, and values of the wrong type, are rejected at every level;
nothing is coerced. The environment variable CMPESE_SEED, when set,
overrides any configured seed.
"""

from __future__ import annotations

import os
from dataclasses import replace

from .data import load_cifar_binary, load_dataset_npz, synth_dataset
from .errors import ConfigError, check_keys, read_json, require_choice, require_int, require_path
from .network import spec_from_dict
from .train import train_config_from_dict

# per data kind: (required keys, optional keys)
_DATA_KEYS = {
    "synth": (("kind",), ("class_count", "n_per_class", "image_size", "seed")),
    "npz": (("kind", "path"), ("eval_path",)),
    "cifar10": (("kind", "train"), ("test", "normalization")),
    "cifar100": (("kind", "train"), ("test", "normalization")),
}
# keys that name data files, and whether a non-empty list of paths may stand for one
_PATH_KEYS = {"path": False, "eval_path": False, "train": True, "test": True}


def resolve_seed(seed):
    """CMPESE_SEED when it is set, else ``seed``: a non-negative integer
    either way, or ConfigError."""
    env = os.environ.get("CMPESE_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise ConfigError(f"CMPESE_SEED must be an integer, got {env!r}") from None
    require_int("seed" if env is None else "seed (CMPESE_SEED)", seed, 0)
    return seed


def load_experiment(path):
    raw = read_json(path, ConfigError)
    check_keys(raw, "config", ("network",), ("train", "data", "out_dir"))
    spec = spec_from_dict(raw["network"])
    cfg = train_config_from_dict(raw.get("train", {}))
    cfg = replace(cfg, seed=resolve_seed(cfg.seed))
    data = raw.get("data", {"kind": "synth"})
    validate_data_section(data)
    out_dir = raw.get("out_dir")
    require_path("out_dir", out_dir, null=True)
    return {
        "spec": spec,
        "train": cfg,
        "data": data,
        "out_dir": out_dir,
    }


def validate_data_section(data):
    if not isinstance(data, dict):
        raise ConfigError(f"data must be an object, got {data!r}")
    kind = data.get("kind")
    require_choice("data kind", kind, sorted(_DATA_KEYS))
    check_keys(data, f"data kind {kind!r}", *_DATA_KEYS[kind])
    for key, many in _PATH_KEYS.items():
        if key in data:
            require_path(f"data {key}", data[key], many=many)


def check_class_count(which, ds, num_classes):
    """Refuse a dataset whose class_count is not the network's num_classes:
    fewer classes leave outputs untrained, more index past the logits."""
    if ds is not None and ds.class_count != num_classes:
        raise ConfigError(f"{which} data has class_count {ds.class_count}, but the "
                          f"network's num_classes is {num_classes}")


def materialize_data(data, num_classes):
    """Build (train_dataset, eval_dataset_or_None) from a data section;
    each must pass check_class_count."""
    kind = data["kind"]
    eval_ds = None
    if kind == "synth":
        args = {k: v for k, v in data.items() if k != "kind"}
        args.setdefault("class_count", num_classes)
        args["seed"] = resolve_seed(args.get("seed", 0))
        train = synth_dataset(**args)
    elif kind == "npz":
        train = load_dataset_npz(data["path"])
        if "eval_path" in data:
            eval_ds = load_dataset_npz(data["eval_path"])
    else:
        classes = 10 if kind == "cifar10" else 100
        norm = data.get("normalization", "meanstd")
        train, stats = load_cifar_binary(data["train"], classes=classes,
                                         normalization=norm, split="train")
        if "test" in data:
            eval_ds, _ = load_cifar_binary(data["test"], classes=classes,
                                           normalization=norm, stats=stats, split="test")
    check_class_count("train", train, num_classes)
    check_class_count("eval", eval_ds, num_classes)
    return train, eval_ds
