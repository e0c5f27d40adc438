"""Dataset ingestion and batch construction.

Covers the CIFAR binary format (1 label byte + 3072 pixel bytes per record;
CIFAR-100 carries a coarse label byte that we skip), a deterministic
synthetic dataset for desk-scale experiments, pad-crop/flip augmentation,
and mixup batches.
"""

from __future__ import annotations

import numbers
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataFormatError, check_keys, read_file, read_json, \
    require_bool, require_int, require_number, require_path


@dataclass
class Dataset:
    """Images, their labels and the class count, checked on construction:
    anything else raises DataFormatError before training or evaluation."""

    images: np.ndarray        # (N, H, W, 3) float32
    labels: np.ndarray        # (N,) integers in [0, class_count)
    class_count: int
    split: str = "train"

    def __post_init__(self):
        images, labels, classes = self.images, self.labels, self.class_count
        if images.dtype != np.float32 or images.ndim != 4 or images.shape[3] != 3 \
                or len(images) == 0:
            raise DataFormatError(f"images must be float32 of shape (N, H, W, 3) with N >= 1, "
                                  f"got {images.dtype} {images.shape}")
        if isinstance(classes, bool) or not isinstance(classes, numbers.Integral) \
                or classes < 1:
            raise DataFormatError(f"class_count must be a positive integer, got {classes!r}")
        if labels.dtype.kind not in "iu" or labels.shape != images.shape[:1]:
            raise DataFormatError(f"labels must be {len(images)} integers, one per image, "
                                  f"got {labels.dtype} {labels.shape}")
        if labels.min() < 0 or labels.max() >= classes:
            raise DataFormatError(f"labels must lie in [0, {classes}), got "
                                  f"[{labels.min()}, {labels.max()}]")

    def __len__(self):
        return self.images.shape[0]


@dataclass
class MixupConfig:
    enabled: bool = False
    alpha: float = 1.0        # Beta(alpha, alpha) parameter
    tail_epochs: int = 20     # plain-training epochs appended after mixup

    def __post_init__(self):
        require_bool("mixup.enabled", self.enabled)
        require_number("mixup.alpha", self.alpha)
        require_int("mixup.tail_epochs", self.tail_epochs, 0)
        if self.enabled and self.alpha <= 0:
            raise ConfigError(f"mixup.alpha must be positive, got {self.alpha}")


# ---------------------------------------------------------------------------
# CIFAR binary format
# ---------------------------------------------------------------------------

def _decode_records(buf, record_size, label_offset, classes, path):
    n_bytes = len(buf)
    if n_bytes == 0:
        raise DataFormatError(f"{path}: empty file", byte_offset=0)
    if n_bytes % record_size != 0:
        raise DataFormatError(
            f"{path}: file ends mid-record ({n_bytes % record_size} stray bytes; "
            f"record size is {record_size})",
            byte_offset=n_bytes,
        )
    n = n_bytes // record_size
    raw = np.frombuffer(buf, dtype=np.uint8).reshape(n, record_size)
    labels = raw[:, label_offset].astype(np.int64)
    bad = np.flatnonzero(labels >= classes)
    if bad.size:
        i = int(bad[0])
        raise DataFormatError(
            f"{path}: record {i} has label {labels[i]}, out of range for {classes} classes",
            byte_offset=i * record_size + label_offset)
    planes = raw[:, label_offset + 1:].reshape(n, 3, 32, 32)
    # C order, not the planes' layout: a minibatch gather then reads whole images
    images = planes.transpose(0, 2, 3, 1).astype(np.float32, order="C")
    return images, labels


def load_cifar_binary(paths, classes=10, normalization="meanstd", stats=None,
                      split="train"):
    """Decode one or more CIFAR binary batch files into a Dataset.

    classes selects the record layout: 10 -> 3073-byte records with one
    label byte; 100 -> 3074-byte records (coarse byte skipped, fine label
    used). normalization is "meanstd" (per-channel statistics, computed
    from this data unless ``stats`` is given) or "scale255".

    Returns (dataset, stats) so test splits can reuse training statistics.
    """
    if isinstance(paths, (str, os.PathLike)):
        paths = [paths]
    if classes == 10:
        record_size, label_offset = 3073, 0
    elif classes == 100:
        record_size, label_offset = 3074, 1
    else:
        raise ConfigError(f"classes must be 10 or 100, got {classes}")

    parts = []
    for path in paths:
        parts.append(_decode_records(read_file(path, DataFormatError), record_size,
                                     label_offset, classes, str(path)))
    if len(parts) == 1:
        images, labels = parts[0]
    else:
        images = np.concatenate([p[0] for p in parts])
        labels = np.concatenate([p[1] for p in parts])
    del parts    # the per-file arrays, once concatenated

    # in place on the one float32 copy of the decoded images
    if normalization == "meanstd":
        if stats is None:
            stats = channel_stats(images)
        mean, std = stats
        images -= mean
        images /= std
    elif normalization == "scale255":
        images /= np.float32(255.0)
        stats = None
    else:
        raise ConfigError(f"unknown normalization {normalization!r}")
    return Dataset(images, labels, classes, split), stats


# images per chunk of float64 deviations in channel_stats
_STATS_CHUNK = 64


def channel_stats(images):
    """Per-channel float32 mean and std of (N, H, W, C) images, taken in
    float64 as ``images.std(axis=(0, 1, 2), dtype=np.float64)`` takes them,
    but over chunks of images rather than a float64 copy of all of them.
    Each chunk's squared deviations are summed after the running total, in
    the order of one sum over C-ordered images."""
    c = images.shape[-1]
    mean = images.mean(axis=(0, 1, 2), dtype=np.float64)
    rows = np.zeros((images[:_STATS_CHUNK].size // c + 1, c))   # the total, then a chunk
    for start in range(0, len(images), _STATS_CHUNK):
        part = images[start: start + _STATS_CHUNK]
        used = part.size // c + 1
        deviations = rows[1: used].reshape(part.shape)
        np.subtract(part, mean, out=deviations)
        np.square(deviations, out=deviations)
        rows[0] = rows[:used].sum(axis=0)
    std = np.sqrt(rows[0] / (images.size // c))
    return mean.astype(np.float32), std.astype(np.float32)


# ---------------------------------------------------------------------------
# augmentation and mixup
# ---------------------------------------------------------------------------

def augment_batch(batch, rng, pad=4, flip_prob=0.5):
    """Random pad-and-crop plus horizontal flip, per sample.

    Shapes and labels are untouched; draws come only from ``rng`` so a
    fixed seed reproduces batches exactly.
    """
    n, h, w, c = batch.shape
    padded = np.zeros((n, h + 2 * pad, w + 2 * pad, c), dtype=batch.dtype)
    padded[:, pad: pad + h, pad: pad + w, :] = batch
    dy = rng.integers(0, 2 * pad + 1, size=n)
    dx = rng.integers(0, 2 * pad + 1, size=n)
    flip = rng.random(n) < flip_prob
    out = np.empty_like(batch)
    for i in range(n):
        crop = padded[i, dy[i]: dy[i] + h, dx[i]: dx[i] + w, :]
        out[i] = crop[:, ::-1, :] if flip[i] else crop
    return out


def mixup_batch(batch, labels, alpha, rng):
    """Convex-combine the batch with a shuffled copy of itself.

    Returns (mixed batch, labels, permuted labels, lam); the caller forms
    the loss as lam * CE(labels) + (1 - lam) * CE(permuted labels).
    """
    lam = float(rng.beta(alpha, alpha))
    perm = rng.permutation(batch.shape[0])
    mixed = batch.dtype.type(lam) * batch + batch.dtype.type(1 - lam) * batch[perm]
    return mixed, labels, labels[perm], lam


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------

# distinct mean colors per class keep the task linearly separable
_PALETTE = np.array([
    [0.9, 0.2, 0.2], [0.2, 0.9, 0.2], [0.2, 0.2, 0.9], [0.9, 0.9, 0.2],
    [0.9, 0.2, 0.9], [0.2, 0.9, 0.9], [0.7, 0.5, 0.1], [0.1, 0.5, 0.7],
    [0.5, 0.1, 0.7], [0.4, 0.4, 0.4],
], dtype=np.float32)


def synth_dataset(class_count=2, n_per_class=100, image_size=16, seed=0,
                  split="train"):
    """Separable toy images: each class is a color-tinted Gaussian blob at a
    class-specific position over a class-frequency sinusoid, plus noise.
    Deterministic per seed."""
    for key, value, least in (("class_count", class_count, 2), ("n_per_class", n_per_class, 1),
                              ("image_size", image_size, 1), ("seed", seed, 0)):
        require_int(key, value, least)
    if class_count > len(_PALETTE):
        raise ConfigError(f"class_count must be in [2, {len(_PALETTE)}], got {class_count}")
    rng = np.random.default_rng(seed)
    n = class_count * n_per_class
    images = np.empty((n, image_size, image_size, 3), dtype=np.float32)
    labels = np.empty(n, dtype=np.int64)
    yy, xx = np.mgrid[0:image_size, 0:image_size].astype(np.float32) / image_size
    for k in range(class_count):
        cy = 0.25 + 0.5 * ((k * 0.37) % 1.0)
        cx = 0.25 + 0.5 * ((k * 0.61) % 1.0)
        blob = np.exp(-(((yy - cy) ** 2 + (xx - cx) ** 2) / 0.02))
        wave = 0.25 * np.sin(2 * np.pi * (k + 1) * xx)
        base = blob[..., None] * _PALETTE[k] + wave[..., None]
        # one draw per class: the generator yields the same stream as one
        # draw per image
        noise = rng.normal(0.0, 0.08, size=(n_per_class, image_size, image_size, 3))
        rows = slice(k * n_per_class, (k + 1) * n_per_class)
        images[rows] = base + 0.3 * _PALETTE[k] + noise.astype(np.float32)
        labels[rows] = k
    order = rng.permutation(n)
    return Dataset(images[order], labels[order], class_count, split)


def load_synth_manifest(path):
    """Manifest: JSON with class_count, n_per_class, seed and optionally
    image_size and out (output path for the rendered dataset)."""
    raw = read_json(path, ConfigError)
    check_keys(raw, "manifest", ("class_count", "n_per_class", "seed"), ("image_size", "out"))
    require_path("manifest out", raw.get("out"), null=True)
    return raw


def save_dataset_npz(dataset, path):
    np.savez(path, images=dataset.images, labels=dataset.labels,
             class_count=np.int64(dataset.class_count),
             split=np.str_(dataset.split))


def load_dataset_npz(path):
    """Read a dataset that save_dataset_npz wrote. A missing key, a
    class_count that is not a scalar, or any value that Dataset refuses
    raises DataFormatError naming the file and the key."""
    keys = ("images", "labels", "class_count", "split")
    try:
        with np.load(path, allow_pickle=False) as z:
            arrays = {k: z[k] for k in keys if k in z.files}
    except FileNotFoundError:
        raise
    except Exception as e:
        # numpy and zipfile report a damaged file with many exception types
        # (BadZipFile, ValueError, EOFError, ...), and a member's CRC is
        # checked only as it is read, so the whole read is inside the try
        raise DataFormatError(f"{path}: not a readable dataset npz "
                              f"({type(e).__name__}: {e})") from None
    missing = [k for k in keys if k not in arrays]
    if missing:
        raise DataFormatError(f"{path}: lacks {', '.join(missing)}")
    images, labels, class_count, split = (arrays[k] for k in keys)
    if class_count.ndim != 0:
        raise DataFormatError(f"{path}: class_count must be a positive integer, "
                              f"got {class_count!r}")
    try:
        return Dataset(images, labels, class_count.item(), str(split))
    except DataFormatError as e:
        raise DataFormatError(f"{path}: {e}") from None


def iterate_minibatches(images, labels, batch_size, rng=None, shuffle=True):
    """Yield (x, y) slices; order is a pure function of the rng state."""
    n = images.shape[0]
    if shuffle:
        if rng is None:
            raise ConfigError("shuffling requires an rng")
        order = rng.permutation(n)
    else:
        order = np.arange(n)
    for start in range(0, n, batch_size):
        sel = order[start: start + batch_size]
        yield images[sel], labels[sel]
