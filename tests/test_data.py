"""Data pipeline: binary decode layout, normalization, augmentation, mixup,
and the synthetic corpus."""

import re
import tracemalloc

import numpy as np
import pytest

from cmpese.data import (
    Dataset,
    MixupConfig,
    augment_batch,
    channel_stats,
    iterate_minibatches,
    load_cifar_binary,
    load_dataset_npz,
    load_synth_manifest,
    mixup_batch,
    save_dataset_npz,
    synth_dataset,
)
from cmpese.errors import ConfigError, DataFormatError

import oracles


def write_records_10(path, entries):
    """entries: list of (label, planes) with planes shaped (3, 32, 32) uint8."""
    with open(path, "wb") as f:
        for label, planes in entries:
            f.write(bytes([label]) + planes.astype(np.uint8).tobytes())


def write_records_100(path, entries):
    with open(path, "wb") as f:
        for coarse, fine, planes in entries:
            f.write(bytes([coarse, fine]) + planes.astype(np.uint8).tobytes())


def checker_planes(r=7, g=11, b=13):
    planes = np.zeros((3, 32, 32), dtype=np.uint8)
    planes[0] = r
    planes[1] = g
    planes[2] = b
    planes[0, 0, 1] = 255      # red channel, row 0, col 1
    return planes


# ---------------------------------------------------------------------------
# binary decode
# ---------------------------------------------------------------------------

def test_decode_plane_layout_bit_exact(tmp_path):
    path = tmp_path / "batch.bin"
    write_records_10(path, [(3, checker_planes())])
    ds, stats = load_cifar_binary(path, classes=10, normalization="scale255")
    assert stats is None
    assert ds.labels.tolist() == [3]
    img = ds.images[0]
    assert img.shape == (32, 32, 3)
    # planes are stored R-block, G-block, B-block, each row-major 32x32
    assert img[0, 0].tolist() == pytest.approx([7 / 255, 11 / 255, 13 / 255])
    assert img[0, 1, 0] == pytest.approx(1.0)       # the marked red pixel
    assert img[0, 1, 1] == pytest.approx(11 / 255)  # green untouched there


def test_decode_fine_label_skips_coarse_byte(tmp_path):
    path = tmp_path / "batch100.bin"
    write_records_100(path, [(19, 87, checker_planes()), (4, 2, checker_planes(1, 2, 3))])
    ds, _ = load_cifar_binary(path, classes=100, normalization="scale255")
    assert ds.labels.tolist() == [87, 2]
    assert ds.images[1, 0, 0].tolist() == pytest.approx([1 / 255, 2 / 255, 3 / 255])


def test_decode_multiple_files_concatenate(tmp_path):
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    write_records_10(a, [(0, checker_planes()), (1, checker_planes())])
    write_records_10(b, [(2, checker_planes())])
    ds, _ = load_cifar_binary([a, b], classes=10, normalization="scale255")
    assert len(ds) == 3
    assert ds.labels.tolist() == [0, 1, 2]


def test_truncated_file_reports_failure_offset(tmp_path):
    path = tmp_path / "short.bin"
    path.write_bytes(b"\x00" * 3072)    # one byte shy of a full record
    with pytest.raises(DataFormatError) as exc:
        load_cifar_binary(path, classes=10)
    assert exc.value.byte_offset == 3072
    assert "3072" in str(exc.value)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.bin"
    path.write_bytes(b"")
    with pytest.raises(DataFormatError) as exc:
        load_cifar_binary(path, classes=10)
    assert exc.value.byte_offset == 0


def test_label_out_of_range_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    write_records_10(path, [(14, checker_planes())])
    with pytest.raises(DataFormatError):
        load_cifar_binary(path, classes=10)


def test_label_out_of_range_names_the_file_record_and_offset(tmp_path):
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    write_records_10(a, [(0, checker_planes()), (1, checker_planes())])
    write_records_10(b, [(2, checker_planes()), (10, checker_planes()), (3, checker_planes())])
    with pytest.raises(DataFormatError, match=re.escape(f"{b}: record 1 has label 10")) as exc:
        load_cifar_binary([a, b], classes=10)
    assert exc.value.byte_offset == 3073
    write_records_100(a, [(0, 5, checker_planes()), (0, 100, checker_planes())])
    with pytest.raises(DataFormatError, match=re.escape(f"{a}: record 1 has label 100")) as exc:
        load_cifar_binary(a, classes=100)
    assert exc.value.byte_offset == 3074 + 1


def test_unsupported_class_count_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_cifar_binary(tmp_path / "x.bin", classes=20)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def random_batch_file(path, n=64, seed=0):
    rng = np.random.default_rng(seed)
    write_records_10(path, [(int(rng.integers(0, 10)),
                             rng.integers(0, 256, size=(3, 32, 32)))
                            for _ in range(n)])


def test_meanstd_normalization_standardizes_channels(tmp_path):
    path = tmp_path / "train.bin"
    random_batch_file(path)
    ds, stats = load_cifar_binary(path, classes=10, normalization="meanstd")
    for c in range(3):
        chan = ds.images[..., c]
        assert abs(chan.mean()) < 1e-3
        assert abs(chan.std() - 1.0) < 1e-3
    mean, std = stats
    assert mean.shape == std.shape == (3,)


def test_eval_split_reuses_train_statistics(tmp_path):
    train_p, test_p = tmp_path / "train.bin", tmp_path / "test.bin"
    random_batch_file(train_p, seed=1)
    random_batch_file(test_p, n=16, seed=2)
    _, stats = load_cifar_binary(train_p, classes=10)
    test_ds, stats2 = load_cifar_binary(test_p, classes=10, stats=stats, split="test")
    np.testing.assert_array_equal(stats[0], stats2[0])
    # normalized with foreign stats, the test split is NOT exactly standard
    assert abs(test_ds.images.mean()) > 1e-4 or abs(test_ds.images.std() - 1) > 1e-4


def test_channel_stats_match_two_pass_oracle():
    imgs = np.random.default_rng(3).random((10, 8, 8, 3)).astype(np.float32)
    mean, std = channel_stats(imgs)
    for c in range(3):
        m, v = oracles.mean_var_two_pass(imgs[..., c].ravel().astype(np.float64))
        assert mean[c] == pytest.approx(m, rel=1e-6)
        assert std[c] == pytest.approx(np.sqrt(v), rel=1e-6)


def decoded_images(path):
    raw = np.fromfile(path, dtype=np.uint8).reshape(-1, 3073)
    return raw[:, 1:].reshape(-1, 3, 32, 32).transpose(0, 2, 3, 1).astype(np.float32)


def test_meanstd_load_keeps_the_statistics_bits_in_a_fraction_of_the_memory(tmp_path):
    # channel_stats' float64 deviations, a chunk of them at a time, stay
    # below the file's bytes, so the peak is the decode's: the images and the
    # file. One std over all the images at once made twice their bytes, and
    # the load peaked at 3.03x
    path = tmp_path / "batch.bin"
    random_batch_file(path, n=2000, seed=6)
    images = decoded_images(path)
    tracemalloc.start()
    try:
        _, (mean, std) = load_cifar_binary(path, classes=10, normalization="meanstd")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * images.nbytes
    np.testing.assert_array_equal(
        mean, images.mean(axis=(0, 1, 2), dtype=np.float64).astype(np.float32))
    np.testing.assert_array_equal(
        std, images.std(axis=(0, 1, 2), dtype=np.float64).astype(np.float32))


def test_unknown_normalization_rejected(tmp_path):
    path = tmp_path / "t.bin"
    random_batch_file(path)
    with pytest.raises(ConfigError):
        load_cifar_binary(path, classes=10, normalization="whiten")


@pytest.mark.parametrize("normalization, bound", [("scale255", 1.3), ("meanstd", 3.1)])
def test_cifar_load_keeps_one_float32_copy_of_the_images(tmp_path, normalization, bound):
    # the peak, in multiples of the float32 images: the decoded images and
    # the file's bytes (a quarter as many), and for meanstd also the float64
    # deviations of one chunk of images in channel_stats; it measures 1.25x
    # and 1.53x on these 256 images. The loader that concatenated one file
    # and normalized out of place peaked at 3.25x and 4.26x
    path = tmp_path / "batch.bin"
    random_batch_file(path, n=256, seed=4)
    raw = np.fromfile(path, dtype=np.uint8).reshape(256, 3073)
    images = raw[:, 1:].reshape(256, 3, 32, 32).transpose(0, 2, 3, 1).astype(np.float32)
    tracemalloc.start()
    try:
        ds, stats = load_cifar_binary(path, classes=10, normalization=normalization)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound * images.nbytes
    if normalization == "meanstd":
        mean, std = channel_stats(images)
        np.testing.assert_array_equal(stats[0], mean)
        np.testing.assert_array_equal(ds.images, (images - mean) / std)
    else:
        np.testing.assert_array_equal(ds.images, images / np.float32(255.0))
    assert ds.images.dtype == np.float32


def test_cifar_images_are_c_ordered_and_keep_the_planar_stats(tmp_path):
    # the planes' layout gave the same statistics: the mean sums integers,
    # exactly in float64, and channel_stats writes its deviations C-ordered
    path = tmp_path / "batch.bin"
    random_batch_file(path, n=96, seed=6)
    ds, stats = load_cifar_binary(path, classes=10)
    assert ds.images.flags.c_contiguous
    raw = np.fromfile(path, dtype=np.uint8).reshape(96, 3073)
    planar = raw[:, 1:].reshape(96, 3, 32, 32).transpose(0, 2, 3, 1).astype(np.float32)
    assert not planar.flags.c_contiguous
    for got, want in zip(stats, channel_stats(planar)):
        assert np.array_equal(got, want)
    np.testing.assert_array_equal(ds.images, (planar - stats[0]) / stats[1])


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------

def test_augment_preserves_shape_and_dtype():
    batch = np.random.default_rng(4).random((8, 32, 32, 3)).astype(np.float32)
    out = augment_batch(batch, np.random.default_rng(0))
    assert out.shape == batch.shape and out.dtype == batch.dtype


def test_augment_zero_pad_no_flip_is_identity():
    batch = np.random.default_rng(5).random((4, 16, 16, 3)).astype(np.float32)
    out = augment_batch(batch, np.random.default_rng(0), pad=0, flip_prob=0.0)
    np.testing.assert_array_equal(out, batch)


def test_augment_certain_flip_is_mirror():
    batch = np.random.default_rng(6).random((4, 16, 16, 3)).astype(np.float32)
    out = augment_batch(batch, np.random.default_rng(0), pad=0, flip_prob=1.0)
    np.testing.assert_array_equal(out, batch[:, :, ::-1, :])


def test_augment_deterministic_per_seed():
    batch = np.random.default_rng(7).random((6, 20, 20, 3)).astype(np.float32)
    a = augment_batch(batch, np.random.default_rng(123))
    b = augment_batch(batch, np.random.default_rng(123))
    c = augment_batch(batch, np.random.default_rng(124))
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_augment_crop_content_is_a_shifted_window():
    # with a uniform-valued interior, any crop keeps values in {0, fill}
    batch = np.full((2, 12, 12, 3), 5.0, dtype=np.float32)
    out = augment_batch(batch, np.random.default_rng(8), pad=4)
    assert set(np.unique(out)).issubset({0.0, 5.0})
    assert (out == 5.0).any()


# ---------------------------------------------------------------------------
# mixup
# ---------------------------------------------------------------------------

def test_mixup_convex_combination_exact():
    rng = np.random.default_rng(9)
    batch = rng.random((8, 4, 4, 3)).astype(np.float32)
    labels = np.arange(8, dtype=np.int64)
    mixed, ya, yb, lam = mixup_batch(batch, labels, 1.0, np.random.default_rng(1))
    assert 0.0 <= lam <= 1.0
    np.testing.assert_array_equal(ya, labels)
    assert sorted(yb.tolist()) == sorted(labels.tolist())
    # reconstruct using the permutation implied by the label pairing
    perm = yb
    want = np.float32(lam) * batch + np.float32(1 - lam) * batch[perm]
    np.testing.assert_array_equal(mixed, want)


def test_mixup_constant_batch_is_fixed_point():
    batch = np.full((5, 2, 2, 3), 3.25, dtype=np.float32)
    labels = np.zeros(5, dtype=np.int64)
    mixed, _, _, _ = mixup_batch(batch, labels, 1.0, np.random.default_rng(2))
    np.testing.assert_allclose(mixed, batch, rtol=1e-6)


def test_mixup_small_alpha_concentrates_at_endpoints():
    lams = [mixup_batch(np.zeros((2, 1, 1, 3), np.float32), np.zeros(2, np.int64),
                        0.05, np.random.default_rng(s))[3] for s in range(40)]
    assert np.mean([min(l, 1 - l) < 0.1 for l in lams]) > 0.8


def test_mixup_config_validation():
    assert MixupConfig().tail_epochs == 20
    with pytest.raises(ConfigError):
        MixupConfig(enabled=True, alpha=0.0)
    MixupConfig(enabled=False, alpha=0.0)   # ignored when disabled


# ---------------------------------------------------------------------------
# synthetic corpus
# ---------------------------------------------------------------------------

def test_synth_deterministic_and_balanced():
    a = synth_dataset(class_count=3, n_per_class=20, seed=11)
    b = synth_dataset(class_count=3, n_per_class=20, seed=11)
    c = synth_dataset(class_count=3, n_per_class=20, seed=12)
    np.testing.assert_array_equal(a.images, b.images)
    np.testing.assert_array_equal(a.labels, b.labels)
    assert not np.array_equal(a.images, c.images)
    assert np.bincount(a.labels, minlength=3).tolist() == [20, 20, 20]
    assert a.images.shape == (60, 16, 16, 3)
    assert a.images.dtype == np.float32 and a.labels.dtype == np.int64


def test_synth_classes_are_linearly_separable_enough():
    ds = synth_dataset(class_count=4, n_per_class=60, seed=13)
    acc = oracles.ridge_probe_accuracy(ds.images, ds.labels, 4)
    assert acc > 0.8


def test_synth_class_count_bounds():
    with pytest.raises(ConfigError):
        synth_dataset(class_count=1)
    with pytest.raises(ConfigError):
        synth_dataset(class_count=11)


@pytest.mark.parametrize("key, value", [("class_count", 2.9), ("n_per_class", 2.5),
                                        ("n_per_class", 0), ("image_size", "16"),
                                        ("seed", 1.5), ("seed", True)])
def test_synth_refuses_what_is_not_an_integer(key, value):
    with pytest.raises(ConfigError, match=key):
        synth_dataset(**{"class_count": 2, "n_per_class": 4, key: value})


def test_manifest_required_and_unknown_keys(tmp_path):
    good = tmp_path / "good.json"
    good.write_text('{"class_count": 2, "n_per_class": 10, "seed": 5}')
    assert load_synth_manifest(good)["seed"] == 5
    bad = tmp_path / "bad.json"
    bad.write_text('{"class_count": 2, "n_per_class": 10, "seed": 5, "blur": 1}')
    with pytest.raises(ConfigError, match="blur"):
        load_synth_manifest(bad)
    missing = tmp_path / "missing.json"
    missing.write_text('{"class_count": 2, "seed": 5}')
    with pytest.raises(ConfigError, match="n_per_class"):
        load_synth_manifest(missing)


def test_npz_round_trip_bitwise(tmp_path):
    ds = synth_dataset(class_count=2, n_per_class=5, seed=14, split="test")
    path = tmp_path / "ds.npz"
    save_dataset_npz(ds, path)
    back = load_dataset_npz(path)
    np.testing.assert_array_equal(back.images, ds.images)
    np.testing.assert_array_equal(back.labels, ds.labels)
    assert back.class_count == 2 and back.split == "test"


def _edit_npz(path, **edit):
    """Write a saved 2-class dataset to ``path`` with keys replaced by
    ``edit``; a value of None drops the key."""
    ds = synth_dataset(class_count=2, n_per_class=3, image_size=4, seed=15)
    arrays = {"images": ds.images, "labels": ds.labels,
              "class_count": np.int64(2), "split": np.str_("train")}
    arrays.update(edit)
    np.savez(path, **{k: v for k, v in arrays.items() if v is not None})
    return path


@pytest.mark.parametrize("key, edit", [
    ("images", {"images": None}),
    ("labels", {"labels": None}),
    ("class_count", {"class_count": None}),
    ("labels", {"labels": np.array([0, 1, 0, 1, 0, -1])}),
    ("labels", {"labels": np.array([0, 1, 0, 1, 0, 2])}),
    ("labels", {"labels": np.array([0, 1, 0, 1, 0])}),
    ("labels", {"labels": np.zeros(6, dtype=np.float32)}),
    ("images", {"images": np.zeros((6, 4, 4, 3), dtype=np.float64)}),
    ("images", {"images": np.zeros((6, 4, 4, 1), dtype=np.float32)}),
    ("images", {"images": np.zeros((6, 48), dtype=np.float32)}),
    ("class_count", {"class_count": np.float64(2.0)}),
    ("class_count", {"class_count": np.array([2])}),
])
def test_npz_with_a_bad_key_is_a_named_format_error(tmp_path, key, edit):
    path = _edit_npz(tmp_path / "bad.npz", **edit)
    with pytest.raises(DataFormatError, match=re.escape(str(path)) + ".*" + key):
        load_dataset_npz(path)


def damage_npz(path, how):
    """Write a saved dataset to ``path``, damaged: ``truncated`` keeps its
    first half, ``flipped`` inverts one byte of the images' values (zipfile
    finds it by CRC only when the member is read), ``not-npz`` is text."""
    if how == "not-npz":
        path.write_text("images, labels\n")
        return path
    ds = synth_dataset(class_count=2, n_per_class=3, image_size=4, seed=15)
    save_dataset_npz(ds, path)
    raw = bytearray(path.read_bytes())
    if how == "truncated":
        del raw[len(raw) // 2:]
    else:
        raw[raw.index(ds.images.tobytes()) + 5] ^= 0xFF
    path.write_bytes(bytes(raw))
    return path


@pytest.mark.parametrize("how, says", [("truncated", "not a zip file"),
                                       ("flipped", "Bad CRC-32 for file 'images.npy'"),
                                       ("not-npz", "pickled")])
def test_a_damaged_npz_is_a_named_format_error(tmp_path, how, says):
    path = damage_npz(tmp_path / "bad.npz", how)
    with pytest.raises(DataFormatError, match=re.escape(str(path)) + ".*" + re.escape(says)):
        load_dataset_npz(path)


def test_a_missing_npz_is_still_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_dataset_npz(tmp_path / "absent.npz")


# a Dataset built in Python is checked as a loaded one is, so bad values never
# reach train() or evaluate(): float64 images would run the network in float64,
# and a label of -1 would train against the last class

def _fields(**edit):
    fields = {"images": np.zeros((4, 2, 2, 3), np.float32),
              "labels": np.array([0, 1, 1, 0]), "class_count": 2}
    fields.update(edit)
    return fields


@pytest.mark.parametrize("images", [
    np.zeros((4, 2, 2, 3), np.float64),
    np.zeros((4, 2, 2, 1), np.float32),
    np.zeros((4, 12), np.float32),
    np.zeros((0, 2, 2, 3), np.float32),
])
def test_dataset_refuses_bad_images(images):
    with pytest.raises(DataFormatError, match="images must be float32"):
        Dataset(**_fields(images=images))


@pytest.mark.parametrize("labels", [
    np.array([0, 1, -1, 0]),
    np.array([0, 1, 2, 0]),
    np.array([0, 1, 1]),
    np.zeros(4, np.float32),
])
def test_dataset_refuses_bad_labels(labels):
    with pytest.raises(DataFormatError, match="labels must"):
        Dataset(**_fields(labels=labels))


@pytest.mark.parametrize("class_count", [0, 2.0, True, "2"])
def test_dataset_refuses_bad_class_count(class_count):
    with pytest.raises(DataFormatError, match="class_count must be a positive integer"):
        Dataset(**_fields(labels=np.zeros(4, np.int64), class_count=class_count))


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

def test_minibatches_cover_everything_once():
    images = np.arange(10, dtype=np.float32).reshape(10, 1, 1, 1)
    labels = np.arange(10, dtype=np.int64)
    seen = []
    for x, y in iterate_minibatches(images, labels, 3, np.random.default_rng(0)):
        assert x.shape[0] == y.shape[0] <= 3
        seen.extend(y.tolist())
    assert sorted(seen) == list(range(10))


def test_minibatches_order_reproducible():
    images = np.zeros((7, 1, 1, 1), np.float32)
    labels = np.arange(7, dtype=np.int64)
    run = lambda s: [y.tolist() for _, y in
                     iterate_minibatches(images, labels, 2, np.random.default_rng(s))]
    assert run(5) == run(5)
    assert run(5) != run(6)


def test_minibatches_unshuffled_keeps_order():
    labels = np.arange(5, dtype=np.int64)
    got = [y.tolist() for _, y in iterate_minibatches(
        np.zeros((5, 1, 1, 1), np.float32), labels, 2, shuffle=False)]
    assert got == [[0, 1], [2, 3], [4]]


def test_minibatches_shuffle_requires_rng():
    with pytest.raises(ConfigError):
        next(iterate_minibatches(np.zeros((2, 1, 1, 1), np.float32),
                                 np.zeros(2, np.int64), 1))
