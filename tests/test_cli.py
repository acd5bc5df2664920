import json
import os
import shutil

import numpy as np
import pytest

from mixnet import cli, volume
from mixnet.arch import Network, NetConfig
from mixnet.errors import DataError
from mixnet.tensor import derive_seed
from mixnet.trainer import (TrainConfig, Trainer, load_checkpoint,
                            load_checkpoint_header, load_network, save_checkpoint)

from test_arch import WRONG_TYPES
from test_trainer import _replace_header, _rewrite_header


DIMS = (24, 24, 24)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds") / "data"
    rc = cli.main(["generate", "--out", str(out), "--subjects", "3",
                   "--dims", "24,24,24", "--classes", "4", "--seed", "5"])
    assert rc == 0
    return out


def run(*argv):
    return cli.main([str(a) for a in argv])


def train_fast(dataset, out, *extra):
    return run("train", "--data", dataset, "--out", out,
               "--variant", "v3", "--filters", "8", "--epochs", "1",
               "--max-slices", "8", "--augment", "none", "--seed", "3",
               "--no-lr-schedule", *extra)


# -- generate ----------------------------------------------------------------

def test_generate_writes_manifest_and_volumes(dataset):
    names = sorted(os.listdir(dataset))
    assert "manifest.json" in names
    vols = [n for n in names if n.endswith(".vol")]
    assert len(vols) == 3 * 4  # 3 modalities + labels, per subject
    man = volume.load_manifest(dataset)
    assert [e["id"] for e in man["subjects"]] == \
        ["subject00", "subject01", "subject02"]


def test_generate_same_seed_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("generate", "--out", out, "--subjects", "2",
                   "--dims", "16,16,16", "--seed", "9") == 0
    for name in sorted(os.listdir(a)):
        with open(a / name, "rb") as fa, open(b / name, "rb") as fb:
            assert fa.read() == fb.read(), name


def test_generate_labels_cover_all_classes(dataset):
    man = volume.load_manifest(dataset)
    labels, _ = volume.read_volume(os.path.join(dataset, man["subjects"][0]["labels"]))
    assert set(np.unique(labels)) == {0, 1, 2, 3}


# -- train -------------------------------------------------------------------

def test_train_writes_run_artifacts(dataset, tmp_path):
    out = tmp_path / "run"
    assert train_fast(dataset, out, "--holdout", "subject02") == 0
    assert (out / "config.json").exists()
    assert (out / "checkpoint.ckpt").exists()
    with open(out / "train_log.csv") as fh:
        header = fh.readline().strip().split(",")
    assert header == ["epoch", "lr", "loss", "steps", "val_dice_mean",
                      "val_dice_1", "val_dice_2", "val_dice_3"]
    cfg = json.loads((out / "config.json").read_text())
    assert cfg["command"] == "train"
    assert cfg["variant"] == "v3" and cfg["epochs"] == 1


def test_train_zero_lr_leaves_parameters_at_init(dataset, tmp_path):
    out = tmp_path / "run"
    assert train_fast(dataset, out, "--lr0", "0") == 0
    net = load_network(out / "checkpoint.ckpt")
    man = volume.load_manifest(dataset)
    fresh = Network(NetConfig(variant="v3", modalities=3,
                              classes=man["classes"], filters=8),
                    seed=derive_seed(3, "params"))
    for name in fresh.store:
        np.testing.assert_array_equal(net.store.get(name).data,
                                      fresh.store.get(name).data)


def test_train_resume_matches_uninterrupted(dataset, tmp_path):
    straight = tmp_path / "straight"
    assert train_fast(dataset, straight, "--epochs", "2") == 0
    first = tmp_path / "first"
    assert train_fast(dataset, first, "--epochs", "1") == 0
    resumed = tmp_path / "resumed"
    assert train_fast(dataset, resumed, "--epochs", "2",
                      "--resume", first / "checkpoint.ckpt") == 0
    _, arrays_a = load_checkpoint(straight / "checkpoint.ckpt")
    _, arrays_b = load_checkpoint(resumed / "checkpoint.ckpt")
    assert arrays_a.keys() == arrays_b.keys()
    for key in arrays_a:
        np.testing.assert_array_equal(arrays_a[key], arrays_b[key])


def test_train_resume_in_place_keeps_the_log(dataset, tmp_path):
    straight = tmp_path / "straight"
    assert train_fast(dataset, straight, "--epochs", "2") == 0
    run_dir = tmp_path / "run"
    assert train_fast(dataset, run_dir, "--epochs", "1") == 0
    assert train_fast(dataset, run_dir, "--epochs", "2",
                      "--resume", run_dir / "checkpoint.ckpt") == 0
    assert (run_dir / "train_log.csv").read_bytes() == \
        (straight / "train_log.csv").read_bytes()


def test_train_resume_rejects_a_changed_setting(dataset, tmp_path):
    first = tmp_path / "first"
    assert train_fast(dataset, first) == 0
    resumed = tmp_path / "resumed"
    assert train_fast(dataset, resumed, "--epochs", "2", "--lr0", "0.5",
                      "--resume", first / "checkpoint.ckpt") == 1
    assert not (resumed / "checkpoint.ckpt").exists()


def test_train_resume_rejects_a_changed_plane(dataset, tmp_path):
    first = tmp_path / "first"
    assert train_fast(dataset, first, "--plane", "coronal") == 0
    ckpt = first / "checkpoint.ckpt"
    assert train_fast(dataset, tmp_path / "sagittal", "--epochs", "2",
                      "--plane", "sagittal", "--resume", ckpt) == 1
    assert not (tmp_path / "sagittal" / "checkpoint.ckpt").exists()
    # without the flag the resumed run takes the recorded plane
    assert train_fast(dataset, tmp_path / "same", "--epochs", "2", "--resume", ckpt) == 0
    echoed = json.loads((tmp_path / "same" / "config.json").read_text())
    assert echoed["plane"] == "coronal"
    # a checkpoint that records no slice settings resumes unchecked
    old = tmp_path / "old.ckpt"
    _rewrite_header(ckpt, old, lambda h: h.pop("slice_settings"))
    assert train_fast(dataset, tmp_path / "old", "--epochs", "2", "--resume", old) == 0


def test_resume_keeps_the_recorded_seed(dataset, tmp_path, capsys):
    first = tmp_path / "first"
    assert train_fast(dataset, first) == 0     # --seed 3
    ckpt = first / "checkpoint.ckpt"
    assert load_checkpoint_header(ckpt)["slice_settings"]["seed"] == 3
    resume = ["train", "--data", dataset, "--epochs", "2", "--resume"]
    assert run(*resume, ckpt, "--out", tmp_path / "resumed") == 0
    assert json.loads((tmp_path / "resumed" / "config.json").read_text())["seed"] == 3
    err = _fails_cleanly(capsys, 1, *resume, ckpt, "--out", tmp_path / "other",
                         "--seed", "4")
    assert err.endswith("cannot resume with changed settings: seed 4 (checkpoint 3)")
    # a checkpoint that records no seed compares the batch-order seed it
    # derived: the default seed 0 is refused, the run's own seed resumes
    old = tmp_path / "old.ckpt"
    _rewrite_header(ckpt, old, lambda h: h["slice_settings"].pop("seed"))
    err = _fails_cleanly(capsys, 1, *resume, old, "--out", tmp_path / "old0")
    assert err.endswith("seed 0 (the checkpoint used another)")
    assert run(*resume, old, "--out", tmp_path / "old3", "--seed", "3") == 0


def test_resume_settings_come_from_the_header_alone(dataset, tmp_path):
    first = tmp_path / "first"
    assert train_fast(dataset, first, "--holdout", "subject02") == 0
    short = tmp_path / "short.ckpt"
    short.write_bytes((first / "checkpoint.ckpt").read_bytes()[:-64])
    settings, _ = cli._checkpoint_settings(short)
    assert {k: settings[k] for k in cli.SLICE_KEYS} == {
        "plane": "transverse", "augment": "none", "max_slices": 8,
        "holdout": "subject02", "seed": 3}
    with pytest.raises(DataError):
        load_checkpoint(short)


def test_default_keys_are_flag_dests():
    parser = cli.build_parser()
    for argv, defaults in ((["generate", "--out", "o"], cli.GENERATE_DEFAULTS),
                           (["train", "--data", "d", "--out", "o"], cli.TRAIN_DEFAULTS)):
        args = vars(parser.parse_args(argv))
        assert set(defaults) <= set(args)
        assert all(args[k] is None for k in defaults)


def test_default_train_run_echoes_the_recipe(tmp_path):
    out = tmp_path / "run"
    # the echo comes before the data is read, so a missing dataset still
    # writes the resolved configuration
    assert run("train", "--data", tmp_path / "missing", "--out", out) == 2
    assert json.loads((out / "config.json").read_text()) == {
        "command": "train", "augment": "plane", "batch_size": 4,
        "checkpoint_every": 0, "data": str(tmp_path / "missing"), "epochs": 40,
        "filters": 24, "holdout": "", "loss_reduction": "mean", "lr0": 2e-4,
        "lr_schedule": True, "max_slices": 0, "momentum": 0.99, "plane": "transverse",
        "resume": "", "seed": 0, "val_every": 1, "variant": "v2", "weight_decay": 1e-3}


def test_train_config_file_merges_under_flags(dataset, tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(
        {"epochs": 1, "filters": 8, "variant": "v1", "max_slices": 8,
         "augment": "none"}))
    out = tmp_path / "run"
    assert run("train", "--data", dataset, "--out", out, "--config", cfg_file,
               "--variant", "v3", "--seed", "3") == 0
    cfg = json.loads((out / "config.json").read_text())
    assert cfg["variant"] == "v3"    # flag beats file
    assert cfg["epochs"] == 1        # file beats default
    assert cfg["momentum"] == 0.99   # default survives


def test_train_rejects_unknown_config_keys(dataset, tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"epochs": 1, "banana": True}))
    assert run("train", "--data", dataset, "--out", tmp_path / "x",
               "--config", cfg_file) == 1


def test_train_unknown_holdout_is_a_data_error(dataset, tmp_path):
    assert train_fast(dataset, tmp_path / "x", "--holdout", "nope") == 2


def test_train_on_a_subject_entry_without_labels_is_a_data_error(dataset, tmp_path,
                                                                 capsys):
    data = tmp_path / "data"
    shutil.copytree(dataset, data)
    man = json.loads((data / "manifest.json").read_text())
    del man["subjects"][1]["labels"]
    (data / "manifest.json").write_text(json.dumps(man))
    err = _fails_cleanly(capsys, 2, "train", "--data", data, "--out", tmp_path / "run")
    assert "subject 1" in err and "labels" in err


@pytest.mark.parametrize("keep", [2, 0])
def test_train_on_subject_entries_with_unequal_modalities_is_a_data_error(
        dataset, tmp_path, capsys, keep):
    data = tmp_path / "data"
    shutil.copytree(dataset, data)
    man = json.loads((data / "manifest.json").read_text())
    del man["subjects"][1]["modalities"][keep:]
    (data / "manifest.json").write_text(json.dumps(man))
    err = _fails_cleanly(capsys, 2, "train", "--data", data, "--out", tmp_path / "run")
    assert f"subject 1 lists {keep} modalities" in err


# the slice-size error, naming a subject
TOO_SMALL = "error: {}: a 16x16 slice is too small: this network needs height and width >= 23\n"


def _small_dataset(tmp_path, name="small"):
    data = tmp_path / name
    assert run("generate", "--out", data, "--subjects", "2", "--dims", "16,16,16") == 0
    return data


def _only_the_echo(capsys, out):
    """The config echo is all a failed run printed, and it wrote no log."""
    printed = capsys.readouterr()
    assert json.loads(printed.out) == json.loads((out / "config.json").read_text())
    assert not (out / "train_log.csv").exists()
    return printed.err


def test_train_on_slices_too_small_fails_before_reading_a_subject(tmp_path, capsys):
    data = _small_dataset(tmp_path)
    for name in os.listdir(data):  # a subject read would fail on a missing file
        if name.endswith(".vol"):
            os.remove(data / name)
    capsys.readouterr()
    assert train_fast(data, tmp_path / "run") == 2
    assert _only_the_echo(capsys, tmp_path / "run") == TOO_SMALL.format("subject00")


def test_resume_checks_slices_against_the_checkpoints_network(dataset, tmp_path, capsys):
    data = _small_dataset(tmp_path)
    assert train_fast(dataset, tmp_path / "first") == 0
    ckpt = tmp_path / "first" / "checkpoint.ckpt"
    capsys.readouterr()
    assert train_fast(data, tmp_path / "run", "--epochs", "2", "--resume", ckpt) == 2
    assert _only_the_echo(capsys, tmp_path / "run") == TOO_SMALL.format("subject00")
    # a header that still records the init unit's pool, as older ones do,
    # is the same network: it refuses the 16x16 slices and resumes on 24x24
    pooled = tmp_path / "pooled.ckpt"
    _rewrite_header(ckpt, pooled, lambda h: h["net_config"].update(init_pool=True))
    capsys.readouterr()
    assert train_fast(data, tmp_path / "small", "--epochs", "2", "--resume", pooled) == 2
    assert _only_the_echo(capsys, tmp_path / "small") == TOO_SMALL.format("subject00")
    assert train_fast(dataset, tmp_path / "pooled", "--epochs", "2", "--resume",
                      pooled) == 0


def test_manifest_without_dims_fails_before_reading_a_subject(tmp_path, capsys):
    data = _small_dataset(tmp_path)
    man = json.loads((data / "manifest.json").read_text())
    del man["dims"]
    (data / "manifest.json").write_text(json.dumps(man))
    capsys.readouterr()
    assert train_fast(data, tmp_path / "run") == 2
    assert _only_the_echo(capsys, tmp_path / "run") == TOO_SMALL.format("subject00")


def _set_manifest_dims(data, dims):
    man = json.loads((data / "manifest.json").read_text())
    man["dims"] = dims
    (data / "manifest.json").write_text(json.dumps(man))


def test_train_takes_the_slice_size_from_the_volumes(dataset, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(dataset, data)
    _set_manifest_dims(data, [16, 16, 16])   # the volumes are 24^3
    assert train_fast(data, tmp_path / "run") == 0
    small = _small_dataset(tmp_path)
    _set_manifest_dims(small, [64, 64, 64])  # the volumes are 16^3
    capsys.readouterr()
    assert train_fast(small, tmp_path / "small") == 2
    assert _only_the_echo(capsys, tmp_path / "small") == TOO_SMALL.format("subject00")


def test_a_holdout_too_small_fails_before_training(dataset, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(dataset, data)
    small = _small_dataset(tmp_path)
    for name in os.listdir(small):      # subject01 becomes a 16^3 subject
        if name.startswith("subject01_"):
            shutil.copy(small / name, data / name)
    capsys.readouterr()
    assert train_fast(data, tmp_path / "run", "--holdout", "subject01") == 2
    assert _only_the_echo(capsys, tmp_path / "run") == TOO_SMALL.format("subject01")


def test_train_on_a_manifest_without_subjects_is_a_data_error(dataset, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(dataset, data)
    man = json.loads((data / "manifest.json").read_text())
    man["subjects"] = []
    (data / "manifest.json").write_text(json.dumps(man))
    capsys.readouterr()
    assert train_fast(data, tmp_path / "run") == 2
    assert capsys.readouterr().err == "error: no training subjects\n"


def test_subjects_of_other_dims_are_a_data_error(dataset, tmp_path, capsys):
    data, other = tmp_path / "data", tmp_path / "other"
    shutil.copytree(dataset, data)
    assert run("generate", "--out", other, "--subjects", "2", "--dims", "32,24,24") == 0
    for name in os.listdir(other):
        if name.startswith("subject01_"):
            shutil.copy(other / name, data / name)
    capsys.readouterr()
    assert train_fast(data, tmp_path / "run") == 2
    assert capsys.readouterr().err == ("error: subject 'subject01' has dims (32, 24, 24), "
                                       "subject 'subject00' (24, 24, 24)\n")


def test_modalities_of_other_dims_are_a_data_error(dataset, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(dataset, data)
    volume.write_volume(data / "subject00_mod1.vol", np.zeros((24, 24, 25)),
                        (1.0, 1.0, 1.0), "intensity", modality="mod1")
    ckpt = tmp_path / "net.ckpt"
    save_checkpoint(ckpt, Network(NetConfig(variant="v3", classes=4, filters=4)))
    want = (f"error: {data / 'subject00_mod1.vol'}: dims (24, 24, 25), "
            f"but {data / 'subject00_mod0.vol'} has (24, 24, 24)")
    assert _fails_cleanly(capsys, 2, "predict", "--checkpoint", ckpt, "--data", data,
                          "--subject", "subject00", "--plane", "coronal",
                          "--out", tmp_path / "p.vol") == want
    capsys.readouterr()
    assert train_fast(data, tmp_path / "run") == 2
    assert capsys.readouterr().err == want + "\n"


def _edit_sidecar(path, **fields):
    side = path.parent / f"{path.name}.json"
    side.write_text(json.dumps({**json.loads(side.read_text()), **fields}))


def _drop_bodies(data):
    """Remove every volume body, so that reading one fails."""
    for name in os.listdir(data):
        if name.endswith(".vol"):
            os.remove(data / name)


def test_labels_on_another_spacing_are_a_data_error(dataset, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(dataset, data)
    _edit_sidecar(data / "subject01_labels.vol", spacing=[1, 1, 3])
    want = (f"error: {data / 'subject01_labels.vol'}: spacing (1.0, 1.0, 3.0), "
            f"but {data / 'subject01_mod0.vol'} has (1.0, 1.0, 1.0)")
    ckpt = tmp_path / "net.ckpt"
    save_checkpoint(ckpt, Network(NetConfig(variant="v3", classes=4, filters=4)))
    assert _fails_cleanly(capsys, 2, "predict", "--checkpoint", ckpt, "--data", data,
                          "--subject", "subject01", "--plane", "coronal",
                          "--out", tmp_path / "p.vol") == want
    _drop_bodies(data)
    capsys.readouterr()
    assert train_fast(data, tmp_path / "run") == 2
    assert _only_the_echo(capsys, tmp_path / "run") == want + "\n"


def test_label_sidecars_must_hold_the_manifests_classes(dataset, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(dataset, data)
    _drop_bodies(data)
    man = json.loads((data / "manifest.json").read_text())
    (data / "manifest.json").write_text(json.dumps({**man, "classes": 3}))
    capsys.readouterr()
    assert train_fast(data, tmp_path / "run") == 2
    assert _only_the_echo(capsys, tmp_path / "run") == (
        f"error: {data / 'subject00_labels.vol'}: 4 classes, but the manifest has 3\n")
    # the holdout's labels too
    (data / "manifest.json").write_text(json.dumps(man))
    _edit_sidecar(data / "subject01_labels.vol", classes=5)
    assert train_fast(data, tmp_path / "held", "--holdout", "subject01") == 2
    assert _only_the_echo(capsys, tmp_path / "held") == (
        f"error: {data / 'subject01_labels.vol'}: 5 classes, but the manifest has 4\n")


def test_predict_checks_the_modality_count_before_a_body(dataset, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(dataset, data)
    _drop_bodies(data)
    ckpt = tmp_path / "net.ckpt"
    save_checkpoint(ckpt, Network(NetConfig(variant="v3", modalities=2, classes=4,
                                            filters=4)))
    assert _fails_cleanly(capsys, 2, "predict", "--checkpoint", ckpt, "--data", data,
                          "--subject", "subject02", "--plane", "coronal",
                          "--out", tmp_path / "p.vol") == (
        "error: subject 'subject02' has 3 modalities, checkpoint expects 2")


def test_config_json_is_replaced_whole_or_not_at_all(tmp_path, monkeypatch):
    out = tmp_path / "run"
    assert run("train", "--data", tmp_path / "missing", "--out", out) == 2
    before = (out / "config.json").read_bytes()

    def killed(src, dst):
        raise OSError("killed before the rename")

    monkeypatch.setattr(os, "replace", killed)
    assert run("train", "--data", tmp_path / "missing", "--out", out,
               "--epochs", "3") == 2
    assert (out / "config.json").read_bytes() == before
    assert os.listdir(out) == ["config.json"]


def _first_buffer(**fields):
    def make(header):
        header["buffers"][0].update(fields)
        return header
    return make


def _header_value(field, value):
    section, _, key = field.rpartition(".")

    def make(header):
        (header[section] if section else header)[key] = value
        return header
    return make


# one wrongly typed value per header field, and per field of its configs
WRONGLY_TYPED = {**{f"net_config.{k}": v for k, v in sorted(WRONG_TYPES.items())},
                 "store_seed": "a", "epoch": "x", "step_count": [1], "history": 3,
                 "rng_state": 3, "slice_settings": [1], "train_config.epochs": "x"}

# values of the right kind that validate() rejects, and retired fields at a
# value other than the network's one
OUT_OF_RANGE_HEADERS = {"net_config.filters": 7, "net_config.classes": 1,
                        "train_config.epochs": 0}
RETIRED_HEADERS = {"net_config.pool_kind": "avg", "net_config.dilations": [2, 0],
                   "net_config.pyramid_bins": [2, 4, 6, 8]}

# headers every checkpoint reader rejects
MALFORMED_HEADERS = {
    "no-buffers": lambda h: {k: v for k, v in h.items() if k != "buffers"},
    "json-list": lambda h: [h],
    "bad-dtype": _first_buffer(dtype="zz"),
    "negative-dim": _first_buffer(shape=[-2]),
    "history-row": _header_value("history", [1]),
    "history-row-lr": _header_value("history", [{"epoch": 1, "lr": "x", "loss": 1.0,
                                                 "steps": 2}]),
    **{f: _header_value(f, v) for f, v in WRONGLY_TYPED.items()},
    **{f"{f}={v}": _header_value(f, v) for f, v in OUT_OF_RANGE_HEADERS.items()},
    **{f: _header_value(f, v) for f, v in RETIRED_HEADERS.items()},
    # the retired init_pool at a value other than true (its 1 is wrongly typed)
    **{f"net_config.init_pool={v}": _header_value("net_config.init_pool", v)
       for v in (False, "yes")},
}
# headers only train --resume rejects: it reads the slice settings' keys
UNRESUMABLE_HEADERS = {
    "slice_settings.unknown": _header_value("slice_settings", {"banana": 1}),
}


def _fails_cleanly(capsys, code, *argv):
    """Run the CLI and check it exits ``code`` with a one-line error."""
    capsys.readouterr()
    assert run(*argv) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    return err[0]


@pytest.mark.parametrize("case", [*MALFORMED_HEADERS, *UNRESUMABLE_HEADERS])
def test_malformed_checkpoint_header_is_a_data_error(dataset, tmp_path, capsys, case):
    good, bad = tmp_path / "good.ckpt", tmp_path / "bad.ckpt"
    x = np.zeros((1, 24, 24, 3), np.float32)
    trainer = Trainer(Network(NetConfig(variant="v3", classes=3, filters=4)),
                      x, x[..., 0], TrainConfig())
    save_checkpoint(good, trainer.net, trainer)
    _replace_header(good, bad, MALFORMED_HEADERS.get(case) or UNRESUMABLE_HEADERS[case])
    if case in MALFORMED_HEADERS:
        with pytest.raises(DataError):
            load_network(bad)
        assert str(bad) in _fails_cleanly(
            capsys, 2, "predict", "--checkpoint", bad, "--data", dataset,
            "--subject", "subject00", "--plane", "coronal", "--out", tmp_path / "p.vol")
    assert str(bad) in _fails_cleanly(capsys, 2, "train", "--data", dataset, "--out",
                                      tmp_path / "run", "--epochs", "2", "--resume", bad)
    assert not (tmp_path / "run" / "checkpoint.ckpt").exists()


# config-file values of the wrong kind, by command
MISTYPED_CONFIG = {"filters": ("train", "x"), "epochs": ("train", 1.5),
                   "max_slices": ("train", "x"), "subjects": ("generate", "2"),
                   "dims": ("generate", [64.5, 64, 64])}


@pytest.mark.parametrize("key", MISTYPED_CONFIG)
def test_config_file_value_of_the_wrong_kind_is_a_usage_error(dataset, tmp_path,
                                                              capsys, key):
    command, value = MISTYPED_CONFIG[key]
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({key: value}))
    data = ["--data", dataset] if command == "train" else []
    err = _fails_cleanly(capsys, 1, command, *data, "--out", tmp_path / "out",
                         "--config", cfg_file)
    assert f"{key}={value!r}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "generate"])
@pytest.mark.parametrize("body", [b"\xff{}", b"{"], ids=["not-utf8", "not-json"])
def test_a_config_file_that_is_not_json_is_a_usage_error(dataset, tmp_path, capsys,
                                                         command, body):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_bytes(body)
    data = ["--data", dataset] if command == "train" else []
    err = _fails_cleanly(capsys, 1, command, *data, "--out", tmp_path / "out",
                         "--config", cfg_file)
    assert err.startswith(f"error: {cfg_file}: invalid JSON: "), err
    assert not (tmp_path / "out").exists()


# settings out of range, by command: (config-file values, flags, a fragment
# of the error); the file also keeps a run short should the check be missing,
# and the error names the file when the value comes from it
QUICK_TRAIN = {"epochs": 1, "augment": "none", "variant": "v3", "filters": 4,
               "max_slices": 2}
QUICK_GENERATE = {"subjects": 1, "dims": [8, 8, 8]}
OUT_OF_RANGE = {"max-slices": ("train", {}, ["--max-slices", "-1"],
                               "max_slices must be an integer >= 0, got -1"),
                **{f"seed-{command}": (command, {}, ["--seed", "-1"],
                                       "seed must be an integer >= 0, got -1")
                   for command in ("train", "generate", "verify")},
                **{f"seed-{command}-file": (command, {"seed": -1}, [],
                                            "seed must be an integer >= 0, got -1")
                   for command in ("train", "generate")},
                "max-slices-file": ("train", {"max_slices": -1}, [],
                                    "max_slices must be an integer >= 0, got -1"),
                "epochs-file": ("train", {"epochs": 0}, [],
                                "epochs must be an integer >= 1, got 0"),
                "lr0-nan-file": ("train", {"lr0": float("nan")}, [],
                                 "lr0 must be a finite number >= 0, got nan"),
                "weight-decay-inf-file": ("train", {"weight_decay": float("inf")}, [],
                                          "weight_decay must be a finite number >= 0, "
                                          "got inf"),
                "plane-file": ("train", {"plane": "axial"}, [],
                               "plane must be one of ('sagittal', 'coronal', "
                               "'transverse'), got 'axial'"),
                "val-every": ("train", {}, ["--val-every", "-1"],
                              "val_every must be an integer >= 0, got -1"),
                "checkpoint-every": ("train", {}, ["--checkpoint-every", "-1"],
                                     "checkpoint_every must be an integer >= 0, got -1"),
                "batch-size-0": ("predict", {}, ["--batch-size", "0"],
                                 "batch_size must be an integer >= 1, got 0"),
                "batch-size-negative": ("predict", {}, ["--batch-size", "-1"],
                                        "batch_size must be an integer >= 1, got -1"),
                "subjects": ("generate", {}, ["--subjects", "0"],
                             "subjects must be an integer >= 1"),
                "subjects-file": ("generate", {"subjects": 0}, [],
                                  "subjects must be an integer >= 1"),
                "modalities": ("generate", {}, ["--modalities", "0"],
                               "modalities must be an integer >= 1"),
                "classes": ("generate", {}, ["--classes", "1"],
                            "classes must be an integer in [2, 256], got 1"),
                "classes-257": ("generate", {}, ["--classes", "257"],
                                "classes must be an integer in [2, 256], got 257"),
                "dims": ("generate", {}, ["--dims", "8,7,8"],
                         "must be an integer >= 8, got 7"),
                "dims-file": ("generate", {"dims": [8, 8]}, [],
                              "dims must be three extents, got (8, 8)"),
                "spacing": ("generate", {}, ["--spacing", "1,0,1"], "positive numbers"),
                "spacing-file": ("generate", {"spacing": [1, -0.5, 1]}, [],
                                 "positive numbers"),
                "spacing-nan": ("generate", {}, ["--spacing", "nan,1,1"],
                                "three finite positive numbers"),
                "spacing-inf-file": ("generate", {"spacing": [1, float("inf"), 1]}, [],
                                     "three finite positive numbers"),
                "trials-0": ("verify", {}, ["--trials", "0"],
                             "trials must be an integer >= 1"),
                "trials-negative": ("verify", {}, ["--trials", "-5"],
                                    "trials must be an integer >= 1")}


@pytest.mark.parametrize("case", OUT_OF_RANGE)
def test_count_out_of_range_is_a_usage_error(dataset, trained, tmp_path, capsys, case):
    command, values, flags, message = OUT_OF_RANGE[case]
    cfg = ["--config", tmp_path / "cfg.json"]
    if command == "train":
        (tmp_path / "cfg.json").write_text(json.dumps({**QUICK_TRAIN, **values}))
        argv = ["--data", dataset, "--out", tmp_path / "out", *cfg]
    elif command == "generate":
        (tmp_path / "cfg.json").write_text(json.dumps({**QUICK_GENERATE, **values}))
        argv = ["--out", tmp_path / "out", *cfg]
    elif command == "verify":
        argv = ["--suite", "metrics"]
    else:
        argv = ["--checkpoint", trained, "--data", dataset, "--subject", "subject00",
                "--plane", "coronal", "--out", tmp_path / "out" / "p.vol"]
    err = _fails_cleanly(capsys, 1, command, *argv, *flags)
    assert message in err
    assert err.startswith(f"error: {tmp_path / 'cfg.json'}: ") == bool(values)
    assert not (tmp_path / "out").exists()


# network and augmentation settings a train run checks before it echoes its
# config or reads any data: the data directory here does not exist
BAD_TRAIN_SETTINGS = {"filters": ({}, ["--filters", "7"]),
                      "variant-file": ({"variant": "v4"}, []),
                      "augment-file": ({"augment": "bogus"}, [])}


@pytest.mark.parametrize("case", BAD_TRAIN_SETTINGS)
def test_bad_train_setting_is_a_usage_error_before_any_data(tmp_path, capsys, case):
    values, flags = BAD_TRAIN_SETTINGS[case]
    (tmp_path / "cfg.json").write_text(json.dumps({**QUICK_TRAIN, **values}))
    _fails_cleanly(capsys, 1, "train", "--data", tmp_path / "missing", "--out",
                   tmp_path / "out", "--config", tmp_path / "cfg.json", *flags)
    assert not (tmp_path / "out").exists()


def test_config_file_ints_stand_for_floats(dataset, tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"lr0": 1, "max_slices": 4}))
    out = tmp_path / "run"
    assert run("train", "--data", dataset, "--out", out, "--config", cfg_file,
               "--variant", "v3", "--filters", "8", "--epochs", "1",
               "--augment", "none", "--seed", "3") == 0
    assert load_checkpoint_header(out / "checkpoint.ckpt")["train_config"].lr0 == 1
    cfg_file.write_text(json.dumps({"spacing": [1, 1, 3]}))
    data = tmp_path / "data"
    assert run("generate", "--out", data, "--config", cfg_file, "--subjects", "1",
               "--dims", "8,8,8") == 0
    _, meta = volume.read_volume(data / "subject00_labels.vol")
    assert meta.spacing == (1.0, 1.0, 3.0)


def test_resume_checks_classes_and_modalities_before_a_body(dataset, trained, tmp_path,
                                                            capsys):
    three = tmp_path / "three"
    assert run("generate", "--out", three, "--subjects", "2", "--dims", "24,24,24",
               "--classes", "3", "--seed", "5") == 0
    assert train_fast(three, tmp_path / "run3") == 0
    three_ckpt = tmp_path / "run3" / "checkpoint.ckpt"
    two_mods = tmp_path / "two_mods.ckpt"
    _rewrite_header(trained, two_mods, lambda h: h["net_config"].update(modalities=2))
    for ckpt, data, got, want in ((three_ckpt, dataset, (3, 3), (4, 3)),
                                  (trained, three, (4, 3), (3, 3)),
                                  (two_mods, dataset, (4, 2), (4, 3))):
        bodiless = tmp_path / f"bodiless_{ckpt.stem}_{data.name}"
        shutil.copytree(data, bodiless)
        _drop_bodies(bodiless)
        out = tmp_path / f"resumed_{ckpt.stem}_{data.name}"
        assert _fails_cleanly(capsys, 2, "train", "--data", bodiless, "--out", out,
                              "--epochs", "2", "--resume", ckpt) == (
            f"error: {ckpt}: checkpoint has {got[0]} classes and {got[1]} modalities, "
            f"the data {want[0]} and {want[1]}")
        assert not (out / "train_log.csv").exists()


# -- predict / fuse / evaluate -----------------------------------------------

@pytest.fixture(scope="module")
def trained(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    assert train_fast(dataset, out) == 0
    return out / "checkpoint.ckpt"


def test_predict_probabilities_sum_to_one(dataset, trained, tmp_path):
    out = tmp_path / "p.vol"
    assert run("predict", "--checkpoint", trained, "--data", dataset,
               "--subject", "subject01", "--plane", "coronal",
               "--out", out) == 0
    probs, meta = volume.read_volume(out)
    assert meta.kind == "probs" and probs.shape == DIMS + (4,)
    np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-5)


def test_predict_reads_no_labels(dataset, trained, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(dataset, data)
    predict = ["predict", "--checkpoint", trained, "--data", data,
               "--subject", "subject01", "--plane", "coronal", "--out"]
    assert run(*predict, tmp_path / "all.vol") == 0
    os.remove(data / "subject01_labels.vol")           # the body
    assert run(*predict, tmp_path / "no_body.vol") == 0
    os.remove(data / "subject01_labels.vol.json")      # and its sidecar
    assert run(*predict, tmp_path / "no_labels.vol") == 0
    want = (tmp_path / "all.vol").read_bytes()
    for name in ("no_body.vol", "no_labels.vol"):
        assert (tmp_path / name).read_bytes() == want, name


def test_fuse_defaults_to_1_1_4_and_writes_labels(dataset, trained, tmp_path):
    paths = []
    for plane in ("sagittal", "coronal", "transverse"):
        p = tmp_path / f"{plane}.vol"
        assert run("predict", "--checkpoint", trained, "--data", dataset,
                   "--subject", "subject01", "--plane", plane, "--out", p) == 0
        paths.append(p)
    fused = tmp_path / "fused.vol"
    assert run("fuse", "--inputs", *paths, "--out", fused) == 0
    labels, meta = volume.read_volume(fused)
    assert meta.kind == "labels" and labels.dtype == np.uint8
    vols = [volume.read_volume(p)[0] for p in paths]
    want, _ = volume.fuse_predictions(vols, (1, 1, 4))
    np.testing.assert_array_equal(labels, want)


def test_fuse_rejects_label_volumes(dataset, tmp_path):
    man = volume.load_manifest(dataset)
    lab = os.path.join(dataset, man["subjects"][0]["labels"])
    assert run("fuse", "--inputs", lab, "--out", tmp_path / "f.vol") == 2


def test_fuse_checks_every_sidecar_before_a_body(tmp_path, capsys):
    first, second = tmp_path / "a.vol", tmp_path / "b.vol"
    volume.write_volume(first, np.full((4, 4, 4, 3), 1 / 3), (1, 1, 1), "probs",
                        classes=3)
    volume.write_volume(second, np.full((4, 4, 5, 3), 1 / 3), (1, 1, 1), "probs",
                        classes=3)
    first.write_bytes(first.read_bytes()[:-4])      # a truncated body
    assert _fails_cleanly(capsys, 2, "fuse", "--inputs", first, second,
                          "--out", tmp_path / "f.vol") == (
        f"error: {second}: dims (4, 4, 5, 3), but {first} has (4, 4, 4, 3)")


@pytest.mark.parametrize("weights,message", [
    ("nan,1,1", "each weight must be a finite number >= 0, got nan"),
    ("1,inf,1", "each weight must be a finite number >= 0, got inf"),
    ("1,-1,1", "each weight must be a finite number >= 0, got -1.0"),
    ("0,0,0", "weights must not all be zero, got (0.0, 0.0, 0.0)"),
    ("1,1", "one weight per volume")])
def test_fuse_bad_weights_are_a_usage_error(tmp_path, capsys, weights, message):
    probs = np.full((4, 4, 4, 3), 1 / 3, np.float32)
    paths = [tmp_path / f"{plane}.vol" for plane in ("sagittal", "coronal", "transverse")]
    for p in paths:
        volume.write_volume(p, probs, (1, 1, 1), "probs", classes=3)
    err = _fails_cleanly(capsys, 1, "fuse", "--inputs", *paths, "--weights", weights,
                         "--out", tmp_path / "fused.vol")
    assert message in err
    assert not (tmp_path / "fused.vol").exists()


def test_evaluate_perfect_prediction(dataset, tmp_path):
    man = volume.load_manifest(dataset)
    truth = os.path.join(dataset, man["subjects"][0]["labels"])
    report_path = tmp_path / "report.json"
    assert run("evaluate", "--pred", truth, "--truth", truth,
               "--out", report_path) == 0
    raw = report_path.read_bytes()
    assert raw.endswith(b"}\n") and not raw.endswith(b"\n\n")
    report = json.loads(raw)
    assert report["overall"] == pytest.approx(3.0)
    for row in report["classes"]:
        assert row["dice"] == 1.0 and row["vs"] == 1.0
        assert row["hd95_mm"] == 0.0


def test_evaluate_dim_mismatch_is_a_data_error(dataset, tmp_path):
    man = volume.load_manifest(dataset)
    truth = os.path.join(dataset, man["subjects"][0]["labels"])
    small = tmp_path / "small.vol"
    volume.write_volume(small, np.zeros((4, 4, 4), np.uint8), (1, 1, 1),
                        "labels", classes=4)
    assert run("evaluate", "--pred", small, "--truth", truth) == 2


@pytest.mark.parametrize("write, want", [
    (lambda p: volume.write_volume(p, np.full((24, 24, 24, 4), 0.25), (1, 1, 1),
                                   "probs", classes=4),
     "kind 'probs', expected 'labels'"),
    (lambda p: volume.write_volume(p, np.zeros((24, 24, 24), np.uint8), (1, 1, 3),
                                   "labels", classes=4),
     "spacing (1.0, 1.0, 3.0), but {truth} has (1.0, 1.0, 1.0)"),
], ids=["kind", "spacing"])
def test_evaluate_names_a_prediction_of_another_kind_or_grid(dataset, tmp_path, capsys,
                                                            write, want):
    truth, pred = dataset / "subject00_labels.vol", tmp_path / "pred.vol"
    write(pred)
    assert _fails_cleanly(capsys, 2, "evaluate", "--pred", pred, "--truth", truth) == (
        f"error: {pred}: " + want.format(truth=truth))


# -- verify ------------------------------------------------------------------

def test_verify_shapes_suite_passes_and_writes_summary(tmp_path):
    summary = tmp_path / "v.json"
    assert run("verify", "--suite", "shapes", "--json", summary) == 0
    doc = json.loads(summary.read_text())
    assert doc["passed"] is True
    assert all(c["passed"] for c in doc["checks"])
    assert any(c["name"].startswith("structure/") for c in doc["checks"])


def test_verify_metrics_suite(tmp_path):
    assert run("verify", "--suite", "metrics", "--trials", "20") == 0


# -- usage errors ------------------------------------------------------------

def test_unknown_subcommand_exits_1():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 1


def test_bad_choice_exits_1(dataset, tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["train", "--data", str(dataset), "--out", str(tmp_path / "x"),
                  "--variant", "v9"])
    assert exc.value.code == 1


def test_missing_dataset_exits_2(tmp_path):
    assert run("train", "--data", tmp_path / "nowhere",
               "--out", tmp_path / "x") == 2
