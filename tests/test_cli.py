"""Command-line behaviour: exit codes, artifacts on disk, and the seed
override. Everything goes through cli.main(argv) so the tests see the same
dispatch as a shell user."""

import json
import os
import shutil

import numpy as np
import pytest

from cmpese import cli
from cmpese.data import load_dataset_npz, save_dataset_npz, synth_dataset

from test_data import damage_npz


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def experiment_config(tmp_path, mode="se", epochs=1, out_name="run"):
    return write_json(tmp_path / "exp.json", {
        "network": {"family": "wrn", "depth": 10, "widen_factor": 1,
                    "num_classes": 2, "attention": {"mode": mode, "t": 4}},
        "train": {"epochs": epochs, "batch_size": 16, "base_lr": 0.05, "seed": 1},
        "data": {"kind": "synth", "class_count": 2, "n_per_class": 16,
                 "image_size": 16, "seed": 2},
        "out_dir": str(tmp_path / out_name),
    })


# ---------------------------------------------------------------------------
# usage errors
# ---------------------------------------------------------------------------

def test_no_arguments_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["calibrate"])
    assert exc.value.code == 2


def test_unknown_flag_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["gradcheck", "--limit", "3"])
    assert exc.value.code == 2


def test_bad_mode_choice_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["gradcheck", "--mode", "triple"])
    assert exc.value.code == 2


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("argv", [["eval", "m.ckpt", "d.npz", "--batch-size"],
                                  ["eval", "m.ckpt", "d.npz", "--top-k"],
                                  ["export-attention", "m.ckpt", "d.npz", "out", "--samples"]],
                         ids=["batch-size", "top-k", "samples"])
def test_a_count_below_one_is_a_usage_error(argv, value, capsys):
    # refused by the parser, before any file is read
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + [value])
    assert exc.value.code == 2
    assert f"must be a positive integer, got {value}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# param-count
# ---------------------------------------------------------------------------

def test_param_count_reports_reference_agreement(tmp_path, capsys):
    path = write_json(tmp_path / "net.json", {
        "family": "wrn", "depth": 28, "widen_factor": 10, "num_classes": 100,
        "attention": {"mode": "se"},
    })
    assert cli.main(["param-count", path]) == 0
    out = capsys.readouterr().out
    assert "wrn-28-10" in out
    assert "36.81M" in out
    assert "within 2%: yes" in out


def test_param_count_accepts_experiment_files(tmp_path, capsys):
    cfg = experiment_config(tmp_path)
    assert cli.main(["param-count", cfg]) == 0
    assert "parameters" in capsys.readouterr().out


def test_param_count_bad_spec_fails_cleanly(tmp_path, capsys):
    path = write_json(tmp_path / "net.json", {"family": "wrn", "depth": 13})
    assert cli.main(["param-count", path]) == 1
    assert "error:" in capsys.readouterr().err


def test_param_count_invalid_json_fails_cleanly(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{family: wrn")
    assert cli.main(["param-count", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def test_gradcheck_single_mode(capsys):
    assert cli.main(["gradcheck", "--mode", "folded3x3"]) == 0
    out = capsys.readouterr().out
    assert "folded3x3" in out and "max rel. error" in out


def test_gradcheck_impossible_tolerance_fails(capsys):
    assert cli.main(["gradcheck", "--mode", "se", "--rtol", "1e-18"]) == 1
    assert ">=" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# synth-data and the seed override
# ---------------------------------------------------------------------------

def test_synth_data_writes_npz(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("CMPESE_SEED", raising=False)
    out = tmp_path / "toy.npz"
    manifest = write_json(tmp_path / "toy.json", {
        "class_count": 3, "n_per_class": 8, "seed": 4, "out": str(out)})
    assert cli.main(["synth-data", manifest]) == 0
    assert "24 samples" in capsys.readouterr().out
    ds = load_dataset_npz(out)
    want = synth_dataset(class_count=3, n_per_class=8, seed=4)
    np.testing.assert_array_equal(ds.images, want.images)


def test_synth_data_prints_the_path_it_wrote(tmp_path, capsys, monkeypatch):
    # np.savez appends ".npz" to a path without it
    monkeypatch.delenv("CMPESE_SEED", raising=False)
    out = tmp_path / "adir"
    manifest = write_json(tmp_path / "toy.json", {
        "class_count": 2, "n_per_class": 4, "seed": 4, "out": str(out)})
    assert cli.main(["synth-data", manifest]) == 0
    assert capsys.readouterr().out.startswith(f"wrote {out}.npz: 8 samples")
    assert not out.exists() and len(load_dataset_npz(f"{out}.npz")) == 8


def test_env_seed_overrides_manifest(tmp_path, capsys, monkeypatch):
    out = tmp_path / "toy.npz"
    manifest = write_json(tmp_path / "toy.json", {
        "class_count": 2, "n_per_class": 8, "seed": 4, "out": str(out)})
    monkeypatch.setenv("CMPESE_SEED", "9")
    assert cli.main(["synth-data", manifest]) == 0
    assert "seed 9" in capsys.readouterr().out
    ds = load_dataset_npz(out)
    want = synth_dataset(class_count=2, n_per_class=8, seed=9)
    np.testing.assert_array_equal(ds.images, want.images)


def test_garbage_env_seed_fails_cleanly(tmp_path, capsys, monkeypatch):
    manifest = write_json(tmp_path / "toy.json",
                          {"class_count": 2, "n_per_class": 8, "seed": 4})
    monkeypatch.setenv("CMPESE_SEED", "lots")
    assert cli.main(["synth-data", manifest]) == 1
    assert "CMPESE_SEED" in capsys.readouterr().err


@pytest.mark.parametrize("flag, env", [(["--seed", "-1"], None), ([], "-2")])
def test_negative_seed_fails_cleanly(capsys, monkeypatch, flag, env):
    if env is None:
        monkeypatch.delenv("CMPESE_SEED", raising=False)
    else:
        monkeypatch.setenv("CMPESE_SEED", env)
    assert cli.main(["gradcheck", "--mode", "se"] + flag) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: seed") and "Traceback" not in err
    assert ("CMPESE_SEED" in err) == (env is not None)


def test_unknown_manifest_key_fails_cleanly(tmp_path, capsys):
    manifest = write_json(tmp_path / "toy.json",
                          {"class_count": 2, "n_per_class": 8, "seed": 4, "hue": 1})
    assert cli.main(["synth-data", manifest]) == 1
    assert "hue" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("class_count", 2.9), ("n_per_class", "8"),
                                        ("image_size", 16.0), ("seed", 4.5)])
def test_manifest_value_that_is_not_an_integer_fails_cleanly(tmp_path, capsys,
                                                             monkeypatch, key, value):
    monkeypatch.delenv("CMPESE_SEED", raising=False)
    manifest = {"class_count": 3, "n_per_class": 8, "seed": 4, "out": str(tmp_path / "o.npz")}
    manifest[key] = value
    assert cli.main(["synth-data", write_json(tmp_path / "toy.json", manifest)]) == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o.npz").exists()


@pytest.mark.parametrize("command, body, key", [
    ("train", {"kind": "npz"}, "path"),
    ("train", {"kind": "npz", "path": 5}, "path"),
    ("train", {"kind": "npz", "path": ["a.npz"]}, "path"),
    ("train", {"kind": "npz", "path": "a.npz", "eval_path": None}, "eval_path"),
    ("train", {"kind": "cifar10"}, "train"),
    ("train", {"kind": "cifar10", "train": 12345}, "train"),
    ("train", {"kind": "cifar100", "train": []}, "train"),
    ("train", {"kind": "cifar10", "train": ["a.bin", 7]}, "train"),
    ("train", {"kind": "cifar10", "train": "a.bin", "test": {"path": "b.bin"}}, "test"),
    ("synth-data", {"n_per_class": 8, "seed": 4}, "class_count"),
    ("synth-data", {"class_count": 2, "n_per_class": 8, "seed": 4, "out": 5}, "out"),
])
def test_data_section_or_manifest_missing_or_mistyped_key_fails_cleanly(
        tmp_path, capsys, command, body, key):
    if command == "train":
        raw = json.loads(open(experiment_config(tmp_path)).read())
        path = write_json(tmp_path / "exp.json", {**raw, "data": body})
    else:
        path = write_json(tmp_path / "toy.json", body)
    assert cli.main([command, path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err


def unreadable_input(tmp_path, how):
    path = tmp_path / f"input-{how}"
    if how == "directory":
        path.mkdir()
    elif how == "not-utf8":
        path.write_bytes(b'{"out": "caf\xe9"}')
    elif how == "truncated":
        path.write_text('{"network": ')
    else:
        path.write_text("5")
    return str(path)


@pytest.mark.parametrize("command, how", [
    *((command, how) for command in ("train", "param-count", "synth-data")
      for how in ("directory", "not-utf8", "truncated", "not-an-object")),
    ("eval", "directory"),
])
def test_an_input_file_that_cannot_be_read_fails_cleanly_naming_its_path(
        tmp_path, capsys, command, how):
    path = unreadable_input(tmp_path, how)
    argv = [command, path] + (["data.npz"] if command == "eval" else [])
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "Traceback" not in err


# ---------------------------------------------------------------------------
# train -> eval -> export-attention workflow
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("workflow")
    os.environ.pop("CMPESE_SEED", None)
    cfg = experiment_config(tmp_path, mode="folded3x3", epochs=2)
    code = cli.main(["train", cfg])
    assert code == 0
    out_dir = tmp_path / "run"
    # held-out data for the downstream commands
    eval_npz = tmp_path / "eval.npz"
    save_dataset_npz(synth_dataset(class_count=2, n_per_class=8, image_size=16,
                                   seed=77, split="test"), eval_npz)
    return tmp_path, out_dir, eval_npz


def test_train_writes_metrics_and_checkpoint(trained_run, capsys):
    _, out_dir, _ = trained_run
    assert (out_dir / "metrics.csv").exists()
    assert (out_dir / "last.ckpt").exists()
    assert (out_dir / "last.ckpt.json").exists()
    lines = (out_dir / "metrics.csv").read_text().splitlines()
    assert lines[0] == "epoch,lr,train_loss,train_acc,eval_err,seconds"
    assert len(lines) == 3


def test_eval_rebuilds_from_checkpoint(trained_run, capsys):
    _, out_dir, eval_npz = trained_run
    assert cli.main(["eval", str(out_dir / "last.ckpt"), str(eval_npz)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("top1_error_pct=")
    err = float(out.split("=")[1])
    assert 0.0 <= err <= 100.0


def test_eval_top_k_flag(trained_run, capsys):
    _, out_dir, eval_npz = trained_run
    assert cli.main(["eval", str(out_dir / "last.ckpt"), str(eval_npz),
                     "--top-k", "2"]) == 0
    out = capsys.readouterr().out
    assert "top1_error_pct=" in out and "top2_error_pct=" in out
    # on a 2-class problem the top-2 prediction always contains the label
    assert float(out.splitlines()[1].split("=")[1]) == 0.0


def test_eval_top_k_above_the_class_count_fails_cleanly(trained_run, capsys):
    _, out_dir, eval_npz = trained_run
    assert cli.main(["eval", str(out_dir / "last.ckpt"), str(eval_npz),
                     "--top-k", "3"]) == 1
    err = capsys.readouterr().err
    assert "--top-k 3" in err and "num_classes 2" in err


@pytest.mark.parametrize("command", ["eval", "export-attention", "train"])
def test_a_dataset_without_images_fails_cleanly(trained_run, tmp_path, capsys, command):
    _, out_dir, _ = trained_run
    empty = str(tmp_path / "empty.npz")
    np.savez(empty, images=np.zeros((0, 16, 16, 3), np.float32),
             labels=np.zeros(0, np.int64), class_count=np.int64(2), split=np.str_("test"))
    if command == "train":
        cfg = json.loads(open(experiment_config(tmp_path)).read())
        cfg["data"] = {"kind": "npz", "path": empty}
        argv = ["train", write_json(tmp_path / "exp.json", cfg)]
    else:
        argv = [command, str(out_dir / "last.ckpt"), empty]
        argv += [str(tmp_path / "out")] if command == "export-attention" else []
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {empty}: images must") and "Traceback" not in err


def test_eval_missing_checkpoint_fails_cleanly(tmp_path, capsys):
    assert cli.main(["eval", str(tmp_path / "nope.ckpt"), "whatever.npz"]) == 1
    assert "checkpoint not found" in capsys.readouterr().err


@pytest.mark.parametrize("network", [5, [1], None])
def test_eval_on_a_sidecar_without_a_network_object_fails_cleanly(trained_run, tmp_path,
                                                                  capsys, network):
    _, out_dir, eval_npz = trained_run
    ckpt = tmp_path / "last.ckpt"
    shutil.copy(out_dir / "last.ckpt", ckpt)
    meta = json.loads((out_dir / "last.ckpt.json").read_text())
    meta["network"] = network
    write_json(tmp_path / "last.ckpt.json", meta)
    assert cli.main(["eval", str(ckpt), str(eval_npz)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "last.ckpt.json" in err and "network" in err


@pytest.mark.parametrize("command", ["eval", "export-attention"])
def test_data_with_another_class_count_than_the_checkpoint_fails_cleanly(
        trained_run, tmp_path, capsys, command):
    _, out_dir, _ = trained_run
    four = tmp_path / "four.npz"
    save_dataset_npz(synth_dataset(class_count=4, n_per_class=2, image_size=16), four)
    argv = [command, str(out_dir / "last.ckpt"), str(four)]
    assert cli.main(argv + ([str(tmp_path / "diag")] if command != "eval" else [])) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "class_count 4" in captured.err and "num_classes is 2" in captured.err


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("how", ["truncated", "flipped", "not-npz"])
def test_a_damaged_npz_fails_cleanly_naming_its_path(trained_run, tmp_path, capsys,
                                                     command, how):
    _, out_dir, _ = trained_run
    bad = str(damage_npz(tmp_path / "bad.npz", how))
    if command == "train":
        raw = json.loads(open(experiment_config(tmp_path)).read())
        argv = ["train", write_json(tmp_path / "exp.json",
                                    {**raw, "data": {"kind": "npz", "path": bad}})]
    else:
        argv = ["eval", str(out_dir / "last.ckpt"), bad]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and "Traceback" not in err


def test_export_attention_writes_stats_and_maps(trained_run, capsys):
    tmp_path, out_dir, eval_npz = trained_run
    dest = tmp_path / "diag"
    assert cli.main(["export-attention", str(out_dir / "last.ckpt"),
                     str(eval_npz), str(dest), "--samples", "4",
                     "--heatmap"]) == 0
    out = capsys.readouterr().out
    assert "attention_stats.csv" in out and "inner_images.csv" in out
    stats_lines = (dest / "attention_stats.csv").read_text().splitlines()
    assert len(stats_lines) == 1 + 3       # header + one row per block
    maps_lines = (dest / "inner_images.csv").read_text().splitlines()
    assert len(maps_lines) == 1 + 3 * 4 * 2   # blocks x samples x phases
    assert "inner map" in out                 # the heatmap banner


@pytest.mark.parametrize("command", ["train", "export-attention"])
def test_an_output_directory_that_names_a_file_fails_cleanly(trained_run, tmp_path, capsys,
                                                             command):
    _, out_dir, eval_npz = trained_run
    taken = tmp_path / "taken"
    taken.write_text("")
    if command == "train":
        argv = ["train", experiment_config(tmp_path, out_name="taken")]
    else:
        argv = ["export-attention", str(out_dir / "last.ckpt"), str(eval_npz), str(taken)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {taken}: cannot be made an output directory")
    assert len(err.splitlines()) == 1 and taken.read_text() == ""


@pytest.mark.parametrize("command", ["train", "synth-data", "export-attention"])
def test_an_output_file_that_is_a_directory_fails_cleanly(trained_run, tmp_path, capsys,
                                                          command):
    _, out_dir, eval_npz = trained_run
    if command == "train":
        blocked = tmp_path / "run" / "metrics.csv"
        argv = ["train", experiment_config(tmp_path)]
    elif command == "synth-data":
        blocked = tmp_path / "d.npz"
        argv = ["synth-data", write_json(tmp_path / "toy.json", {
            "class_count": 2, "n_per_class": 4, "seed": 4, "out": str(blocked)})]
    else:
        blocked = tmp_path / "diag" / "attention_stats.csv"
        argv = ["export-attention", str(out_dir / "last.ckpt"), str(eval_npz),
                str(tmp_path / "diag")]
    blocked.mkdir(parents=True)
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(blocked) in err
    assert len(err.splitlines()) == 1


def test_train_rejects_unknown_config_key(tmp_path, capsys):
    cfg = write_json(tmp_path / "exp.json", {
        "network": {"family": "wrn", "depth": 10, "widen_factor": 1,
                    "num_classes": 2, "attention": {"mode": "se"}},
        "trainer": {"epochs": 1},
    })
    assert cli.main(["train", cfg]) == 1
    assert "trainer" in capsys.readouterr().err
