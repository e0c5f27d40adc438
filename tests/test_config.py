"""Experiment config files: the shipped configs, the sections' shape, and
the data section's agreement with the network."""

import json
import os

import pytest

from cmpese.config import load_experiment, materialize_data
from cmpese.data import save_dataset_npz, synth_dataset
from cmpese.errors import ConfigError

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def write_config(tmp_path, **sections):
    cfg = {"network": {"family": "wrn", "depth": 10, "num_classes": 4}}
    cfg.update(sections)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.mark.parametrize("name", ["synth_experiment.json", "cifar_experiment.json"])
def test_shipped_configs_load(monkeypatch, name):
    monkeypatch.delenv("CMPESE_SEED", raising=False)
    exp = load_experiment(os.path.join(SCRIPTS, name))
    assert exp["train"].seed == 0
    assert exp["data"]["kind"] in ("synth", "cifar100")


def test_env_seed_is_checked_like_a_configured_one(tmp_path, monkeypatch):
    monkeypatch.setenv("CMPESE_SEED", "-3")
    with pytest.raises(ConfigError, match="seed"):
        load_experiment(write_config(tmp_path))


@pytest.mark.parametrize("sections, key", [
    ({"train": [["epochs", 3]]}, "train must be an object"),
    ({"data": "synth"}, "data must be an object"),
    ({"data": {"kind": ["synth"]}}, "data kind"),
    ({"network": None}, "network must be an object"),
    ({"out_dir": 5}, "out_dir"),
])
def test_a_section_of_the_wrong_type_is_refused(tmp_path, sections, key):
    with pytest.raises(ConfigError, match=key):
        load_experiment(write_config(tmp_path, **sections))


def test_a_config_that_is_not_an_object_is_refused(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text("[]")
    with pytest.raises(ConfigError, match="object"):
        load_experiment(str(path))


def test_synth_section_refuses_a_fractional_class_count(tmp_path, monkeypatch):
    monkeypatch.delenv("CMPESE_SEED", raising=False)
    exp = load_experiment(write_config(tmp_path, data={"kind": "synth", "class_count": 2.9}))
    with pytest.raises(ConfigError, match="class_count"):
        materialize_data(exp["data"], exp["spec"].num_classes)


def test_synth_section_defaults_to_the_network_classes(monkeypatch):
    monkeypatch.delenv("CMPESE_SEED", raising=False)
    train, eval_ds = materialize_data({"kind": "synth", "n_per_class": 2}, 4)
    assert train.class_count == 4 and len(train) == 8 and eval_ds is None


@pytest.mark.parametrize("train_classes, eval_classes, which", [(3, 4, "train"),
                                                                 (4, 5, "eval")])
def test_class_count_that_differs_from_the_network_is_refused(
        tmp_path, train_classes, eval_classes, which):
    paths = {}
    for key, classes in (("path", train_classes), ("eval_path", eval_classes)):
        paths[key] = str(tmp_path / f"{key}.npz")
        save_dataset_npz(synth_dataset(class_count=classes, n_per_class=2, image_size=4),
                         paths[key])
    wrong = train_classes if which == "train" else eval_classes
    with pytest.raises(ConfigError, match=f"{which} data has class_count {wrong}.* 4"):
        materialize_data({"kind": "npz", **paths}, 4)


def test_synth_section_with_other_classes_than_the_network_is_refused(monkeypatch):
    monkeypatch.delenv("CMPESE_SEED", raising=False)
    with pytest.raises(ConfigError, match="class_count 3.*num_classes is 4"):
        materialize_data({"kind": "synth", "class_count": 3, "n_per_class": 2}, 4)
