from dataclasses import dataclass

import pytest

from mixnet.errors import ConfigError, DataError
from mixnet.records import check_record, conforms, kind_of, read_record


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
