"""Composite (path, value) keys with order-preserving byte encodings.

Paths are printable-ASCII strings terminated by a NUL byte, which makes any
set of encoded paths prefix-free.  Values are fixed-width big-endian unsigned
integers, so byte-wise lexicographic order on the encoding equals numeric
order.  Both properties together allow a trie over the interleaved bytes to
answer prefix and range predicates without ever decoding a key.

A key set is held as columns (`KeySet`): its distinct encoded paths and
values, and per key their ids and its reference.  The builders read the
columns, as does the brute-force `query.scan`; a `CompositeKey` object is
made only for a caller that iterates or indexes the set.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Sequence

import numpy as np

PATH_TERMINATOR = 0x00
VALUE_WIDTHS = (4, 8)

PATH_BYTE_MIN = 0x20
PATH_BYTE_MAX = 0x7E
SLASH = 0x2F


class Dimension(enum.Enum):
    """Key dimension: path bytes, value bytes, or the leaf marker."""

    P = "P"
    V = "V"
    BOT = "bot"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.value


# The one byte code of each dimension, shared by the tagged static
# interleavings, the flat trie builder and the index file format.
_DIM_CODE = {Dimension.P: 0, Dimension.V: 1, Dimension.BOT: 2}


class PathSyntaxError(ValueError):
    """Raised for paths that violate the encoding rules."""


def encode_value(n: int, width: int = 4) -> bytes:
    """Encode an unsigned integer as big-endian bytes of the given width."""
    if width not in VALUE_WIDTHS:
        raise ValueError(f"unsupported value width {width}, expected one of {VALUE_WIDTHS}")
    if n < 0:
        raise OverflowError(f"value {n} is negative")
    if n >= 1 << (8 * width):
        raise OverflowError(f"value {n} does not fit in {width} bytes")
    return n.to_bytes(width, "big")


def decode_value(v: bytes) -> int:
    return int.from_bytes(v, "big")


_PRINTABLE = bytes(range(PATH_BYTE_MIN, PATH_BYTE_MAX + 1))
_TERMINATOR = bytes([PATH_TERMINATOR])


def encode_path(p: str) -> bytes:
    """Encode a textual path, appending the NUL terminator.

    The path must start with '/', consist of printable ASCII, and contain no
    empty labels.
    """
    if not p.startswith("/"):
        raise PathSyntaxError(f"path {p!r} does not start with '/'")
    try:
        raw = p.encode("ascii")
    except UnicodeEncodeError as exc:
        raise PathSyntaxError(f"path {p!r} contains non-ASCII characters") from exc
    unprintable = raw.translate(None, _PRINTABLE)
    if unprintable:
        raise PathSyntaxError(f"path {p!r} contains unprintable byte 0x{unprintable[0]:02X}")
    if "//" in p or p.endswith("/"):
        raise PathSyntaxError(f"path {p!r} contains an empty label")
    return raw + _TERMINATOR


def decode_path(b: bytes) -> str:
    if not b or b[-1] != PATH_TERMINATOR:
        raise PathSyntaxError("encoded path is missing its terminator")
    return b[:-1].decode("ascii")


@dataclass(frozen=True, slots=True)
class CompositeKey:
    """A (path, value) key plus an opaque reference into the source data.

    `path` and `value` hold the encoded byte forms.  The reference is never
    dereferenced by the index; it only travels to query answers.  Keys need
    not be unique: two records may carry the same (path, value) with distinct
    references.
    """

    path: bytes
    value: bytes
    ref: int

    @classmethod
    def make(cls, path: str, value: int, ref: int, width: int = 4) -> "CompositeKey":
        return cls(encode_path(path), encode_value(value, width), ref)

    @property
    def path_text(self) -> str:
        return decode_path(self.path)

    @property
    def value_int(self) -> int:
        return decode_value(self.value)


_PATH = attrgetter("path")
_VALUE = attrgetter("value")
_REF = attrgetter("ref")


def _number(items: Sequence) -> tuple[list, np.ndarray]:
    """The distinct items in order of first occurrence, and the number of
    each item among them."""
    ids = dict.fromkeys(items)
    for i, item in enumerate(ids):
        ids[item] = i
    return list(ids), np.fromiter(map(ids.__getitem__, items), np.int64, len(items))


class KeySet(Sequence[CompositeKey]):
    """A sequence of composite keys, held as columns.

    `paths` and `values` are the distinct encoded paths and values, each in
    order of first occurrence.  Key i is (paths[pid[i]], values[vid[i]],
    refs[i]); `pid` and `vid` are int64 arrays, and `refs` is a list that
    shares the callers' int objects.  Every value is `width` bytes long (0
    for an empty set).  Refs are checked to fit 64 bits where an index is
    built from the set.

    Nothing in the library iterates a key set: it reads the columns.  An
    index or an iteration (the inherited one, by index) makes its keys on
    demand, and they share the path, value and ref objects of the columns.
    """

    __slots__ = ("paths", "values", "pid", "vid", "refs", "width")

    def __init__(
        self,
        paths: list[bytes],
        values: list[bytes],
        pid: np.ndarray,
        vid: np.ndarray,
        refs: list[int],
        width: int,
    ):
        self.paths = paths
        self.values = values
        self.pid = pid
        self.vid = vid
        self.refs = refs
        self.width = width

    @classmethod
    def of(cls, keys: Iterable[CompositeKey]) -> "KeySet":
        """The keys as a key set: a key set itself, or any other keys
        numbered by path and by value.  ValueError when the values differ
        in width."""
        if isinstance(keys, KeySet):
            return keys
        if not isinstance(keys, Sequence):
            keys = list(keys)
        paths, pid = _number(list(map(_PATH, keys)))
        values, vid = _number(list(map(_VALUE, keys)))
        width = len(values[0]) if values else 0
        for v in values:
            if len(v) != width:
                raise ValueError(f"key value width {len(v)} does not match index width {width}")
        return cls(paths, values, pid, vid, list(map(_REF, keys)), width)

    def __len__(self) -> int:
        return len(self.refs)

    def __getitem__(self, i: int | slice) -> CompositeKey | KeySet:
        if isinstance(i, slice):  # a key set over the paths and values its keys use
            path_ids, pid = _number(self.pid[i].tolist())
            value_ids, vid = _number(self.vid[i].tolist())
            paths = list(map(self.paths.__getitem__, path_ids))
            values = list(map(self.values.__getitem__, value_ids))
            return KeySet(paths, values, pid, vid, self.refs[i], self.width)
        ref = self.refs[i]  # IndexError out of range
        return CompositeKey(self.paths[self.pid[i]], self.values[self.vid[i]], ref)
