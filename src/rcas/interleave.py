"""Static interleavings of composite keys, the baselines of the index.

Path-value and value-path concatenation, label-wise alternation, and the
z-order style merge over fixed-length surrogate paths.  Each scheme turns a
key into tagged symbols, dimension code * 256 + byte (`keys._DIM_CODE`:
0 = P, 1 = V), which the flat trie builder partitions (`trie.build_static`),
so a node's edges are ordered by dimension, path edges first, then by byte.
All keys are tagged at once by one array pass for every scheme (`_symbols`):
the path bytes keep their order, so the value bytes are scattered to the
scheme's positions and the path bytes fill the rest.  A zo key's path bytes
are its surrogate path, made once per distinct path (`ZoContext`).  The
dynamic interleaving is built directly into the trie (`trie.bulk_load`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .keys import _DIM_CODE, PATH_TERMINATOR, SLASH, CompositeKey, Dimension, KeySet, decode_path

STATIC_SCHEMES = ("pv", "vp", "lw", "zo")

_SURROGATE_WIDTH = 3
_MAX_SURROGATE = (1 << (8 * _SURROGATE_WIDTH)) - 1

_V = _DIM_CODE[Dimension.V]


class SurrogateOverflow(RuntimeError):
    """Raised when the z-order label dictionary runs out of codes."""


@dataclass
class ZoContext:
    """Label dictionary and padding geometry for the z-order scheme.

    Labels are assigned 3-byte codes in first-seen order starting at 1; code
    0 is reserved for the empty-label padding that stretches every surrogate
    path to the depth of the deepest path in the dataset.  The codes of n
    labels are 1 .. n and each label is a path label (printable ASCII, not
    empty, no '/'), or ValueError: an index file lists the labels joined by
    '/' in code order, so a loaded context numbers them as the saved one.
    """

    codes: dict[str, int]
    max_labels: int

    def __post_init__(self) -> None:
        if sorted(self.codes.values()) != list(range(1, len(self.codes) + 1)):
            raise ValueError("z-order label codes are not 1 .. n")
        for label in self.codes:
            if not label or "/" in label or not (label.isascii() and label.isprintable()):
                raise ValueError(f"z-order label {label!r} is not a path label")

    @classmethod
    def from_keys(cls, keys: Iterable[CompositeKey]) -> "ZoContext":
        """Number the labels of the keys' distinct paths in first-seen order."""
        labels = [decode_path(p).split("/")[1:] for p in KeySet.of(keys).paths]
        codes = dict.fromkeys(chain.from_iterable(labels))
        if len(codes) > _MAX_SURROGATE:
            raise SurrogateOverflow("more than 2^24 - 1 distinct labels")
        numbered = dict(zip(codes, range(1, len(codes) + 1)))
        return cls(codes=numbered, max_labels=max([1, *map(len, labels)]))

    @property
    def path_width(self) -> int:
        return _SURROGATE_WIDTH * self.max_labels

    def code_bytes(self, label: str) -> bytes | None:
        code = self.codes.get(label)
        if code is None:
            return None
        return code.to_bytes(_SURROGATE_WIDTH, "big")

    def _surrogates(self, path_texts: Sequence[str]) -> np.ndarray:
        """The surrogate path of each path, one row of `path_width` bytes:
        its label codes, then zero codes up to `max_labels`."""
        table = np.zeros((len(path_texts), self.max_labels), ">u4")
        for row, text in zip(table, path_texts):
            labels = text.split("/")[1:]
            if len(labels) > self.max_labels:
                raise ValueError(f"path {text!r} is deeper than the surrogate context")
            codes = list(map(self.codes.get, labels))
            if None in codes:
                lab = labels[codes.index(None)]
                raise KeyError(f"label {lab!r} missing from the surrogate dictionary")
            row[: len(codes)] = codes
        # a big-endian code's low bytes are the label's unit
        unit = table.view(np.uint8).reshape(len(table), -1, 4)[:, :, 4 - _SURROGATE_WIDTH :]
        return unit.reshape(len(table), -1)


def static_interleave(key: CompositeKey, scheme: str, ctx: ZoContext | None = None) -> bytes:
    """The tagged byte string of one static scheme: a (dimension code, key
    byte) pair per symbol, with the codes of `keys._DIM_CODE`.

    pv: all path bytes then all value bytes.  vp: the reverse.  lw: one value
    byte alternating with one whole path label ('/'-prefixed; the terminator
    is its own final unit).  zo: the value merged with the fixed-length
    surrogate path, ceil(l_V/l_P) value bytes then ceil(l_P/l_V) path bytes
    per round.
    """
    if scheme == "zo" and ctx is None:
        raise ValueError("the zo scheme needs a surrogate context")
    path = ctx._surrogates([key.path_text])[0] if scheme == "zo" else np.frombuffer(key.path, np.uint8)
    value = np.frombuffer(key.value, np.uint8)[None]
    return _symbols(path, np.array([len(path)], np.int32), value, scheme)[0].astype(">u2").tobytes()


def _symbols(path: np.ndarray, size: np.ndarray, value: np.ndarray, scheme: str) -> tuple[np.ndarray, np.ndarray]:
    """The tagged symbols (`<u2`, dimension code * 256 + byte) of n keys,
    one key after the other, and each key's symbol count (see
    `static_interleave`).  Key i's path is the next size[i] bytes of `path`
    (for zo, its surrogate path, so all have one size), and its value is
    row i of `value`, an (n, width) matrix."""
    n, width = value.shape
    itype = np.int32 if len(path) + n * width < 2**31 else np.int64
    start = np.cumsum(size, dtype=itype) - size  # of each path in `path`
    at = start + width * np.arange(n, dtype=itype)  # of each key in the output
    k = np.arange(width, dtype=itype)
    if scheme == "pv":
        pos = (at + size)[:, None] + k
    elif scheme == "vp":
        pos = at[:, None] + k
    elif scheme == "lw":  # value byte k goes ahead of path unit k, or after the path
        unit = np.flatnonzero((path == SLASH) | (path == PATH_TERMINATOR)).astype(itype)
        unit = np.append(unit, len(path))  # never empty, so `take` can clip
        j = np.searchsorted(unit, start).astype(itype)[:, None] + k
        # a unit past the key's last starts at or after the key's end
        pos = at[:, None] + k + np.minimum(unit.take(j, mode="clip") - start[:, None], size[:, None])
    elif scheme == "zo":  # round r: c_v = ceil(l_V/l_P) value bytes, then c_p = ceil(l_P/l_V) path bytes
        l_p = int(size[0])  # every surrogate path has one length
        c_v, c_p = -(-width // l_p), -(-l_p // width)
        pos = at[:, None] + k + np.minimum(k // c_v * c_p, l_p)  # after the path bytes of earlier rounds
    else:
        raise ValueError(f"unknown static scheme {scheme!r}")
    out = np.zeros(len(path) + n * width, "<u2")
    is_value = np.zeros(len(out), bool)
    is_value[pos] = True
    out[~is_value] = path  # P's code is 0
    out[pos] = value.astype("<u2") | _V << 8
    return out, size + width
