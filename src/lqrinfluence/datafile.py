"""The JSON reader behind sysid.load_dataset: a bounded window of the file's text.

read_dataset reads a dataset file in _CHUNK-byte pieces, decoded as open()
decodes text (UTF-8, universal newlines), and keeps only a window of the
text: from the value being read onward, with a lookahead of twice the
largest trajectory yet, so that no trajectory up to that size is decoded
twice. It walks the top-level object with json's own pieces
(JSONDecoder.raw_decode, scanstring, WHITESPACE) and hands each element of
its trajectories array to trajectory_arrays as soon as it is decoded, so
only one trajectory's Python objects exist at a time. Every other value
decodes through json's scanner.

Every outcome is the one of the whole text read at once: a syntax error is
the JSONDecodeError json.loads would raise, at the same character, line and
column; a UTF-8 error anywhere in the file comes first and names its
offset in the file. The file is read once, front to back, so a pipe works.

load_dataset imports this module when it is called. Without cached
bytecode a fresh interpreter compiles every module it imports, and compiled
as part of sysid this code raised the peak resident memory, and added to
the start-up time, of runs that never read a dataset.
"""
from __future__ import annotations

import codecs
import io
import json
import math

import numpy as np

from .errors import InvalidConfig

_CHUNK = 1 << 20   # bytes per read
_GUARD = 3         # characters that must follow a value in the window: "1.5e+" may go on
_DECODER = json.JSONDecoder()
_WS = json.decoder.WHITESPACE.match


class _Window:
    """The text of a binary file from character base on, read _CHUNK bytes at a time.

    The text before base is passed and dropped; lines counts its newlines
    and nl is the index of its last one, so that count and rfind answer for
    the whole text when json.JSONDecodeError places an error in it.
    """

    def __init__(self, fh):
        self.fh, self.nbytes, self.eof = fh, 0, False
        self.decoder = io.IncrementalNewlineDecoder(codecs.getincrementaldecoder("utf-8")(),
                                                    translate=True)
        self.text, self.base, self.lines, self.nl = "", 0, 0, -1

    def read(self) -> str:
        """The file's next piece of text."""
        data = self.fh.read(_CHUNK)
        self.nbytes += len(data)
        self.eof = not data
        try:
            return self.decoder.decode(data, final=self.eof)
        except UnicodeDecodeError as exc:   # counted in the bytes it was given, not in the file
            skip = self.nbytes - len(exc.object)
            raise UnicodeDecodeError(exc.encoding, bytes(skip) + exc.object, exc.start + skip,
                                     exc.end + skip, exc.reason) from None

    def fill(self, idx: int, need: float) -> int:
        """Have need characters, or the rest of the file, follow text[idx]; idx's new index.

        When fewer follow, the text before idx is dropped (idx becomes 0) and
        the file read on.
        """
        if self.eof or len(self.text) - idx >= need:
            return idx
        nl = self.text.rfind("\n", 0, idx)
        if nl >= 0:   # a compact file has no newline to count
            self.lines += self.text.count("\n", 0, nl + 1)
            self.nl = self.base + nl
        pieces = [self.text[idx:]]
        have = len(pieces[0])
        while have < need and not self.eof:
            pieces.append(self.read())
            have += len(pieces[-1])
        self.text, self.base = "".join(pieces), self.base + idx
        return 0

    def scan(self, idx: int, step, *args, need: int = _GUARD):
        """step(text, idx, *args) -> (value, end) on a window of need characters past idx.

        A step that fails, or ends fewer than _GUARD characters before the
        window does, may have met the window's end and not the value's: it is
        run again on a window twice as long, until the file ends.
        """
        while True:
            idx = self.fill(idx, need)
            try:
                value, end = step(self.text, idx, *args)
            except json.JSONDecodeError as exc:
                if self.eof:
                    raise self.error(exc.msg, exc.pos) from None
            else:
                if self.eof or end + _GUARD <= len(self.text):
                    return value, end
            need = 2 * (len(self.text) - idx) + _GUARD

    def error(self, msg: str, idx: int) -> json.JSONDecodeError:
        """json's error at text[idx], placed in the whole text."""
        return json.JSONDecodeError(msg, self, self.base + idx)

    def count(self, sub: str, start: int, end: int) -> int:
        return self.lines + self.text.count(sub, 0, end - self.base)

    def rfind(self, sub: str, start: int, end: int) -> int:
        at = self.text.rfind(sub, 0, end - self.base)
        return self.base + at if at >= 0 else self.nl


def read_dataset(fh, path):
    """json.load of the binary file fh as UTF-8 text, except that the trajectories array of
    a top-level object is read by _trajectories and a repeated top-level member name raises
    InvalidConfig.

    Every other value, and a top-level value that is not an object, decodes
    through json's own scanner, and every syntax error is json's own
    JSONDecodeError, at the same position. A UTF-8 error anywhere in the file
    comes before every other error, as when the file is read whole.
    """
    window = _Window(fh)
    try:
        return _walk(window, path)
    except (json.JSONDecodeError, RecursionError, InvalidConfig):
        while not window.eof:   # a UTF-8 error further on comes first
            window.read()
        raise


def _walk(w: _Window, path):
    """read_dataset's document, read through the window w."""
    _, idx = w.scan(0, _skip)
    if not w.text.startswith("{", idx):
        w.fill(0, math.inf)   # the whole text: nothing was dropped yet
        return json.loads(w.text)
    doc = {}
    more, idx = w.scan(idx, _open, "}")
    while more:
        key, idx = w.scan(idx, _name)
        if key in doc:   # json.loads would keep the last one silently
            raise InvalidConfig(f"dataset {path} repeats the top-level member {key!r}")
        _, idx = w.scan(idx, _colon)
        if key == "trajectories" and w.text.startswith("[", idx):
            doc[key], idx = _trajectories(w, idx, path)
        else:
            doc[key], idx = w.scan(idx, _DECODER.raw_decode)
        more, idx = w.scan(idx, _after_value, "}")
    _, idx = w.scan(idx, _skip)
    if idx != len(w.text):
        raise w.error("Extra data", idx)
    return doc


def _skip(text: str, idx: int) -> tuple[None, int]:
    """(None, index of the first character at or after idx that is not whitespace)."""
    return None, _WS(text, idx).end()


def _open(text: str, idx: int, close: str) -> tuple[bool, int]:
    """(True, index of the first value) in the JSON object or array opened at text[idx], or
    (False, index past its close) when it is empty."""
    idx = _WS(text, idx + 1).end()
    return (False, idx + 1) if text.startswith(close, idx) else (True, idx)


def _name(text: str, idx: int) -> tuple[str, int]:
    """(the member name at text[idx], the index past it)."""
    if not text.startswith('"', idx):
        raise json.JSONDecodeError("Expecting property name enclosed in double quotes",
                                   text, idx)
    return json.decoder.scanstring(text, idx + 1)


def _colon(text: str, idx: int) -> tuple[None, int]:
    """(None, index of the value) after a member name ending at idx."""
    idx = _WS(text, idx).end()
    if not text.startswith(":", idx):
        raise json.JSONDecodeError("Expecting ':' delimiter", text, idx)
    return None, _WS(text, idx + 1).end()


def _after_value(text: str, idx: int, close: str) -> tuple[bool, int]:
    """(True, index of the next value) after a value ending at idx, or (False, index past
    close) when close follows; json's own error when neither a comma nor close does."""
    idx = _WS(text, idx).end()
    if text.startswith(close, idx):
        return False, idx + 1
    if not text.startswith(",", idx):
        raise json.JSONDecodeError("Expecting ',' delimiter", text, idx)
    return True, _WS(text, idx + 1).end()


def _trajectories(w: _Window, idx: int, path) -> tuple[list, int]:
    """The JSON array at the window's text[idx] as a list of (X, U, X_next) triples, and the
    index past it.

    Each element is decoded and converted (trajectory_arrays), and its
    Python objects dropped, before the next is read. The first element that
    fails conversion ends the list as its InvalidConfig; the elements after
    it are decoded only, so that a JSON error later in the file comes first.
    """
    items, largest = [], 0
    more, idx = w.scan(idx, _open, "]")
    while more:
        (traj, size, bools), idx = w.scan(idx, _trajectory, need=2 * largest + _GUARD)
        largest = max(largest, size)
        if not (items and isinstance(items[-1], InvalidConfig)):
            try:
                items.append(trajectory_arrays(traj, len(items), path, bools))
            except InvalidConfig as exc:
                items.append(exc)
        del traj
        more, idx = w.scan(idx, _after_value, "]")
    return items, idx


def _trajectory(text: str, idx: int) -> tuple[tuple, int]:
    """((the JSON value at text[idx], its length, whether it may hold a bool), index past it)."""
    traj, end = _DECODER.raw_decode(text, idx)
    # true and false hold an r or an f; numbers and the keys x, u, x_next hold neither
    bools = text.find("r", idx, end) >= 0 or text.find("f", idx, end) >= 0
    return (traj, end - idx, bools), end


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
