"""The JSON decoder behind sysid.load_dataset, one trajectory at a time.

decode_dataset walks a dataset file's top-level object with json's own
pieces (JSONDecoder.raw_decode, scanstring, WHITESPACE) and hands each
element of its trajectories array to trajectory_arrays as soon as it is
decoded, so only one trajectory's Python objects exist at a time. Every
other value decodes through json's scanner, and every syntax error is the
JSONDecodeError json.loads would raise, at the same position.

load_dataset imports this module when it is called. Without cached
bytecode a fresh interpreter compiles every module it imports, and compiled
as part of sysid this code raised the peak resident memory, and added to
the start-up time, of runs that never read a dataset.
"""
from __future__ import annotations

import json

import numpy as np

from .errors import InvalidConfig

_DECODER = json.JSONDecoder()
_WS = json.decoder.WHITESPACE.match


def _open(text: str, idx: int, close: str) -> tuple[int, bool]:
    """(index of the first value, True) in the JSON object or array opened at text[idx], or
    (index past its close, False) when it is empty."""
    idx = _WS(text, idx + 1).end()
    return (idx + 1, False) if text.startswith(close, idx) else (idx, True)


def _after_value(text: str, idx: int, close: str) -> tuple[int, bool]:
    """(index of the next value, True) after a value ending at idx, or (index past close,
    False) when close follows; json's own error when neither a comma nor close does."""
    idx = _WS(text, idx).end()
    if text.startswith(close, idx):
        return idx + 1, False
    if not text.startswith(",", idx):
        raise json.JSONDecodeError("Expecting ',' delimiter", text, idx)
    return _WS(text, idx + 1).end(), True


def decode_dataset(text: str, path):
    """json.loads(text), except that the trajectories array of a top-level object is read
    by _decode_trajectories and a repeated top-level member name raises InvalidConfig.

    Every other value, and a top-level value that is not an object, decodes
    through json's own scanner, and every syntax error is json's own
    JSONDecodeError, at the same position.
    """
    idx = _WS(text, 0).end()
    if not text.startswith("{", idx):
        return json.loads(text)
    doc = {}
    idx, more = _open(text, idx, "}")
    while more:
        if not text.startswith('"', idx):
            raise json.JSONDecodeError("Expecting property name enclosed in double quotes",
                                       text, idx)
        key, idx = json.decoder.scanstring(text, idx + 1)
        if key in doc:   # json.loads would keep the last one silently
            raise InvalidConfig(f"dataset {path} repeats the top-level member {key!r}")
        idx = _WS(text, idx).end()
        if not text.startswith(":", idx):
            raise json.JSONDecodeError("Expecting ':' delimiter", text, idx)
        idx = _WS(text, idx + 1).end()
        if key == "trajectories" and text.startswith("[", idx):
            doc[key], idx = _decode_trajectories(text, idx, path)
        else:
            doc[key], idx = _DECODER.raw_decode(text, idx)
        idx, more = _after_value(text, idx, "}")
    idx = _WS(text, idx).end()
    if idx != len(text):
        raise json.JSONDecodeError("Extra data", text, idx)
    return doc


def _decode_trajectories(text: str, idx: int, path) -> tuple[list, int]:
    """The JSON array at text[idx] as a list of (X, U, X_next) triples, and the index past it.

    Each element is decoded and converted (trajectory_arrays), and its
    Python objects dropped, before the next is read. The first element that
    fails conversion ends the list as its InvalidConfig; the elements after
    it are decoded only, so that a JSON error later in the file comes first.
    """
    items = []
    idx, more = _open(text, idx, "]")
    while more:
        traj, end = _DECODER.raw_decode(text, idx)
        if not (items and isinstance(items[-1], InvalidConfig)):
            # true and false hold an r or an f; numbers and the keys x, u, x_next hold neither
            bools = text.find("r", idx, end) >= 0 or text.find("f", idx, end) >= 0
            try:
                items.append(trajectory_arrays(traj, len(items), path, bools))
            except InvalidConfig as exc:
                items.append(exc)
        del traj
        idx, more = _after_value(text, end, "]")
    return items, idx


def trajectory_arrays(traj, k: int, path, bools: bool = True) -> tuple:
    """(X, U, X_next) of trajectory k, decoded from JSON, before its shapes are checked.

    InvalidConfig unless it is a nonempty list of rows whose x, u and x_next
    entries are all numbers. numpy reads a bool beside numbers as 0 or 1, so
    a numeric array is searched for bools entry by entry unless bools is
    False (its text holds neither true nor false).
    """
    try:
        # no dtype: numpy then says whether every entry is a number
        triple = tuple(np.array([t[key] for t in traj]) for key in ("x", "u", "x_next"))
    except (KeyError, TypeError, ValueError) as exc:   # ValueError: ragged
        raise InvalidConfig(f"trajectory {k} in {path} is malformed: {exc}") from exc
    if len(traj) == 0:
        raise InvalidConfig(f"trajectory {k} in {path} has no transitions")
    for key, arr in zip(("x", "u", "x_next"), triple):
        if arr.dtype.kind not in "iuf" or bools and any(
                type(v) is bool for v in np.array([t[key] for t in traj], dtype=object).flat):
            raise InvalidConfig(
                f"trajectory {k} in {path} has {key} entries that are not all numbers")
    return triple
