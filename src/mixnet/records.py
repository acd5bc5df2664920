"""The package's rules for what it is given, each written once.

* :func:`check_record` and :func:`read_record` read its settings records:
  config files, checkpoint headers, volume sidecars and dataset manifests.
* :func:`check_count` is the one rule for a count: an integer (never a
  bool) of at least its least value.  ``ops`` (dilations, bins, resize
  sizes), ``tensor.he_init``, ``volume`` (classes, synthesis settings,
  ``predict_volume``'s batch size), ``arch.NetConfig``,
  ``trainer.TrainConfig`` and ``lr_at``, and ``cli`` (batch size, trials,
  max slices) call it.
* :func:`check_labels` is the one rule for label ids: integers in
  [0, classes).  ``ops.softmax_cross_entropy``, ``volume`` (writing and
  reading label volumes), ``metrics.evaluate_segmentation`` and the
  ``Trainer``'s validation pair call it.

Each checks and never coerces: an epoch count of 1.5 or a label of 1.7
is rejected, not truncated; a count with the caller's error class, a
label volume with ``DataError``.
"""

from __future__ import annotations

from dataclasses import MISSING, fields
from typing import get_type_hints

import numpy as np

from .errors import ConfigError, DataError, ParameterError


def check_count(v, what: str, error=ParameterError, least: int = 1, most=None) -> int:
    """``v`` as an ``int``, if it is an ``int`` or numpy integer (never a
    ``bool``) of at least ``least`` and, if ``most`` is given, at most
    ``most``; else raise ``error``, the caller's class, naming ``what``."""
    if (isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < least
            or (most is not None and v > most)):
        bound = f">= {least}" if most is None else f"in [{least}, {most}]"
        raise error(f"{what} must be an integer {bound}, got {v!r}")
    return int(v)


def check_labels(vol: np.ndarray, classes: int, what: str) -> None:
    """Raise ``DataError``, naming ``what``, unless ``vol`` holds integer
    class ids in [0, classes).  An unsigned volume is read once (its
    maximum)."""
    if vol.dtype.kind not in "iu":
        raise DataError(f"{what} must be integers, got dtype {vol.dtype}")
    if vol.size and (vol.max() >= classes or (vol.dtype.kind == "i" and vol.min() < 0)):
        raise DataError(f"{what} {vol.min()}..{vol.max()} leave [0, {classes})")


def _element(kind):
    """T for ``tuple[T, ...]``, else None."""
    return kind.__args__[0] if getattr(kind, "__origin__", None) is tuple else None


def conforms(value, kind) -> bool:
    """Whether ``value`` is of ``kind`` under :func:`check_record`'s rule."""
    if _element(kind) is not None:
        return (isinstance(value, (list, tuple))
                and all(conforms(v, _element(kind)) for v in value))
    return type(value) in ((int, float) if kind is float else (kind,))


def kind_of(default):
    """The kind a default stands for: its type, or ``tuple[T, ...]``."""
    return tuple[type(default[0]), ...] if isinstance(default, tuple) else type(default)


def check_record(raw, kinds: dict, what: str, error, required=()) -> dict:
    """``raw``, with the lists of tuple kinds made tuples, once it is an
    object whose keys all name a kind in ``kinds``, that holds every key
    in ``required`` and whose values conform to their kinds by one rule:

    * ``int`` means an int and not a bool;
    * ``float`` also takes an int, so ``"lr0": 1`` is a learning rate;
    * ``tuple[T, ...]`` (``T`` an int, a float or a str) takes a JSON
      list, checked element by element, and comes back as a tuple;
    * any other kind (``bool``, ``str``, ``dict``, ``list``) is exact.

    Values are checked, never coerced: ``"epochs": 1.5`` is rejected, not
    truncated.  A bad record raises ``error``, the caller's class, with
    one line led by ``what`` that names every bad key: ``ConfigError``
    (exit 1) for a config file, ``DataError`` (exit 2) for a checkpoint,
    sidecar or manifest."""
    if not isinstance(raw, dict):
        raise error(f"{what} must be an object, got {type(raw).__name__}")
    problems = []
    unknown = sorted(set(raw) - set(kinds))
    if unknown:
        problems.append(f"unknown keys {unknown} (known: {sorted(kinds)})")
    missing = [k for k in required if k not in raw]
    if missing:
        problems.append(f"missing keys {missing}")
    wrong = [f"{k}={v!r} is not {kinds[k] if _element(kinds[k]) else kinds[k].__name__}"
             for k, v in raw.items() if k in kinds and not conforms(v, kinds[k])]
    if wrong:
        problems.append("wrongly typed " + ", ".join(wrong))
    if problems:
        raise error(f"{what}: " + "; ".join(problems))
    return {k: tuple(v) if _element(kinds[k]) else v for k, v in raw.items()}


def read_record(cls, raw, what: str, error):
    """The dataclass ``cls`` built from ``raw`` after :func:`check_record`
    against its field annotations (fields without a default are required),
    then checked by its ``validate()``.  A ``ConfigError`` or ``DataError``
    from ``validate`` comes back as ``error``, led by ``what``, so the
    one error line names where the record came from."""
    required = [f.name for f in fields(cls) if f.default is MISSING]
    record = cls(**check_record(raw, get_type_hints(cls), what, error, required))
    try:
        return record.validate()
    except (ConfigError, DataError) as e:
        raise error(f"{what}: {e}") from None
