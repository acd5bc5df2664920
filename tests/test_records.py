import argparse
import json
import re
from dataclasses import dataclass

import numpy as np
import pytest

from mixnet import cli, ops, volume
from mixnet.arch import NetConfig, Network
from mixnet.autodiff import Node
from mixnet.errors import ConfigError, DataError, ParameterError
from mixnet.metrics import evaluate_segmentation
from mixnet.records import check_count, check_record, conforms, kind_of, read_record
from mixnet.tensor import he_init
from mixnet.trainer import TrainConfig, Trainer, lr_at


@pytest.mark.parametrize("value,kind,ok", [
    (3, int, True), (True, int, False), (3.0, int, False), ("3", int, False),
    (1, float, True), (0.5, float, True), (False, float, False), ("1", float, False),
    (True, bool, True), (1, bool, False), ("a", str, True), (None, str, False),
    ({}, dict, True), ([], dict, False), ([], list, True), ((), list, False),
    ([1, 2], tuple[int, ...], True), ((1, 2), tuple[int, ...], True),
    ([], tuple[int, ...], True), ([1, 2.5], tuple[int, ...], False),
    ([1, True], tuple[int, ...], False), (3, tuple[int, ...], False),
    ([1, 2.5], tuple[float, ...], True), (5, tuple[float, ...], False),
    (["1"], tuple[float, ...], False),
], ids=lambda p: repr(p))
def test_conforms(value, kind, ok):
    assert conforms(value, kind) is ok


def test_kind_of_a_default():
    assert kind_of(0) is int and kind_of(2e-4) is float and kind_of("") is str
    assert kind_of(True) is bool
    assert kind_of((64, 64)) == tuple[int, ...]
    assert kind_of((1.0, 1.0)) == tuple[float, ...]


@dataclass
class Record:
    dims: tuple[int, ...]
    rate: float = 0.5
    name: str = ""

    def validate(self) -> "Record":
        if self.rate < 0:
            raise ConfigError(f"rate must be >= 0, got {self.rate}")
        return self


def test_read_record_makes_lists_tuples_and_keeps_values():
    rec = read_record(Record, {"dims": [2, 3], "rate": 1}, "rec", DataError)
    assert rec == Record((2, 3), 1)
    assert type(rec.rate) is int        # checked, not coerced


def test_read_record_names_every_bad_key_in_one_line():
    with pytest.raises(ConfigError) as exc:
        read_record(Record, {"rate": "x", "name": 3, "extra": 1}, "rec", ConfigError)
    message = str(exc.value)
    assert "\n" not in message and message.startswith("rec: ")
    for part in ("unknown keys ['extra']", "missing keys ['dims']", "rate='x'", "name=3"):
        assert part in message
    with pytest.raises(DataError, match="must be an object"):
        check_record([1], {"a": int}, "rec", DataError)


def test_read_record_leads_a_validate_error_with_what_as_the_callers_error():
    with pytest.raises(DataError, match=r"^rec: rate must be >= 0, got -1$"):
        read_record(Record, {"dims": [2], "rate": -1}, "rec", DataError)


# ---------------------------------------------------------------------------
# the count rule and the label rule at every call site

def _node(shape):
    return Node(np.zeros(shape))


def _predict(batch_size):
    net = Network(NetConfig(variant="v3", modalities=1, classes=2, filters=2), seed=0)
    volume.predict_volume(net, np.zeros((23, 23, 23, 1), np.float32), "sagittal",
                          batch_size=batch_size)


# call site: (its error class, the least count, a call that passes v there)
COUNT_SITES = {
    "conv2d dilation": (ParameterError, 1, lambda v, _: ops.conv2d(
        _node((1, 6, 6, 1)), _node((3, 3, 1, 1)), dilation=v)),
    "avgpool_region bins": (ParameterError, 1,
                            lambda v, _: ops.avgpool_region(_node((1, 6, 6, 1)), v)),
    "bilinear_resize size": (ParameterError, 1,
                             lambda v, _: ops.bilinear_resize(_node((1, 6, 6, 1)), 4, v)),
    "pyramid_head bins": (ParameterError, 1, lambda v, _: ops.pyramid_head(
        _node((1, 6, 6, 1)), _node((3, 3, 2, 1)), _node((1,)), (v,))),
    "he_init fan_in": (ParameterError, 1, lambda v, _: he_init((2, 2), v, 0)),
    "predict_volume batch_size": (ParameterError, 1, lambda v, _: _predict(v)),
    "synthesis subjects": (ParameterError, 1, lambda v, _: volume.check_synthesis(
        (8, 8, 8), 4, 3, (1, 1, 1), subjects=v)),
    "synthesis modalities": (ParameterError, 1, lambda v, _: volume.check_synthesis(
        (8, 8, 8), 4, v, (1, 1, 1))),
    "synthesis classes": (ParameterError, 2, lambda v, _: volume.check_synthesis(
        (8, 8, 8), v, 3, (1, 1, 1))),
    "synthesis extent": (ParameterError, 8, lambda v, _: volume.synthesize_subject(
        dims=(8, v, 8))),
    "label volume classes": (DataError, 2, lambda v, tmp: volume.write_volume(
        tmp / "seg.vol", np.zeros((2, 2, 2), np.uint8), (1, 1, 1), "labels", classes=v)),
    "NetConfig modalities": (ConfigError, 1,
                             lambda v, _: NetConfig(modalities=v).validate()),
    "NetConfig classes": (ConfigError, 2, lambda v, _: NetConfig(classes=v).validate()),
    "NetConfig filters": (ConfigError, 2, lambda v, _: NetConfig(filters=v).validate()),
    "TrainConfig epochs": (ConfigError, 1, lambda v, _: TrainConfig(epochs=v).validate()),
    "TrainConfig batch_size": (ConfigError, 1,
                               lambda v, _: TrainConfig(batch_size=v).validate()),
    "TrainConfig val_every": (ConfigError, 0,
                              lambda v, _: TrainConfig(val_every=v).validate()),
    "TrainConfig checkpoint_every": (ConfigError, 0, lambda v, _: TrainConfig(
        checkpoint_every=v).validate()),
    "lr_at total_epochs": (ConfigError, 1, lambda v, _: lr_at(1.0, 0, v)),
    "cli predict batch_size": (ConfigError, 1, lambda v, _: cli.cmd_predict(
        argparse.Namespace(batch_size=v))),
    "cli verify trials": (ConfigError, 1,
                          lambda v, _: cli.cmd_verify(argparse.Namespace(trials=v))),
    "cli train max_slices": (ConfigError, 0, lambda v, _: cli._train_configs(
        {**cli.TRAIN_DEFAULTS, "max_slices": v})),
}


@pytest.mark.parametrize("bad", ["bool", "float", "below"])
@pytest.mark.parametrize("site", COUNT_SITES)
def test_a_count_is_an_integer_at_least_its_least_value_never_coerced(site, bad, tmp_path):
    error, least, call = COUNT_SITES[site]
    v = {"bool": True, "float": least + 0.5, "below": least - 1}[bad]
    bound = rf"(>= {least}|in \[{least}, 256\])"
    with pytest.raises(error, match=rf"must be an integer {bound}, got {re.escape(repr(v))}$"):
        call(v, tmp_path)
    assert not (tmp_path / "seg.vol").exists()


def test_check_count_returns_a_plain_int_and_takes_numpy_integers():
    got = check_count(np.int32(3), "n", least=3, most=3)
    assert got == 3 and type(got) is int
    for bad in (np.float64(3), np.True_, "3", 4):
        with pytest.raises(ParameterError, match=r"^n must be an integer in \[3, 3\]"):
            check_count(bad, "n", least=3, most=3)


def _read_back(labels, tmp):
    # a body of valid ids whose sidecar then declares fewer classes
    path = tmp / "seg.vol"
    volume.write_volume(path, labels, (1, 1, 1), "labels", classes=int(labels.max()) + 1)
    side = json.loads((tmp / "seg.vol.json").read_text())
    side["classes"] = 4
    (tmp / "seg.vol.json").write_text(json.dumps(side))
    volume.read_volume(path)


def _validate(labels):
    net = Network(NetConfig(variant="v3", modalities=1, classes=4, filters=2), seed=0)
    Trainer(net, np.zeros((1, 2, 2, 1)), np.zeros((1, 2, 2), int), TrainConfig(),
            val=(np.zeros(labels.shape + (1,)), labels))


ZEROS = np.zeros((2, 2, 2), np.uint8)
# call site: a call that passes 4-class labels there
LABEL_SITES = {
    "softmax_cross_entropy": lambda lab, _: ops.softmax_cross_entropy(
        _node(lab.shape + (4,)), lab),
    "write_volume": lambda lab, tmp: volume.write_volume(
        tmp / "seg.vol", lab, (1, 1, 1), "labels", classes=4),
    "evaluate prediction": lambda lab, _: evaluate_segmentation(lab, ZEROS, 4),
    "evaluate truth": lambda lab, _: evaluate_segmentation(ZEROS, lab, 4),
    "Trainer validation": lambda lab, _: _validate(lab),
}
BAD_LABELS = {"float": np.full((2, 2, 2), 1.7), "bool": np.ones((2, 2, 2), bool),
              "too large": np.full((2, 2, 2), 4), "negative": np.full((2, 2, 2), -1)}
# a volume read from disk is of the dtype its sidecar names (u8 for labels):
# of the bad ids, only one too large for its class count can reach it
LABEL_CASES = [(s, b) for s in LABEL_SITES for b in BAD_LABELS] + [("read_volume", "too large")]


@pytest.mark.parametrize("site,bad", LABEL_CASES)
def test_label_ids_are_integers_below_the_class_count_never_coerced(site, bad, tmp_path):
    labels = BAD_LABELS[bad]
    call = _read_back if site == "read_volume" else LABEL_SITES[site]
    with pytest.raises(DataError, match=r"labels (must be integers, got dtype (float64|bool)"
                                        r"|-?\d\.\.-?\d leave \[0, 4\))$"):
        call(labels, tmp_path)
    if site == "write_volume":
        assert not (tmp_path / "seg.vol").exists()
