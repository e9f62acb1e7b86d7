"""Static interleavings of composite keys, the baselines of the index.

Path-value and value-path concatenation, label-wise alternation, and the
z-order style merge over fixed-length surrogate paths.  Each scheme turns a
key into tagged symbols, byte * 256 + dimension code (`keys._DIM_CODE`:
0 = P, 1 = V), which the flat trie builder partitions (`trie.build_static`).
All keys are tagged at once by array passes (`_symbols`).  In pv, vp and lw
the path bytes keep their order, so the value bytes are scattered to their
positions and the path bytes fill the rest in one masked assignment.  In zo
every key has one length, so the values and the surrogate paths (one per
distinct path) are joined as columns and put in round order by one column
permutation.  The dynamic interleaving is built directly into the trie
(`trie.bulk_load`).
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

_P = _DIM_CODE[Dimension.P]
_V = _DIM_CODE[Dimension.V]


class SurrogateOverflow(RuntimeError):
    """Raised when the z-order label dictionary runs out of codes."""


@dataclass
class ZoContext:
    """Label dictionary and padding geometry for the z-order scheme.

    Labels are assigned 3-byte codes in first-seen order starting at 1; code
    0 is reserved for the empty-label padding that stretches every surrogate
    path to the depth of the deepest path in the dataset.
    """

    codes: dict[str, int]
    max_labels: int

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
    return _symbols([key.path], [key.value], scheme, ctx)[0].tobytes()


def _symbols(
    paths: Sequence[bytes], values: Sequence[bytes], scheme: str, ctx: ZoContext | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The tagged symbols (`<u2`) of the keys (paths[i], values[i]), one key
    after the other, and each key's symbol count (see `static_interleave`).
    The values share one width."""
    n = len(paths)
    value = np.frombuffer(b"".join(values), np.uint8).reshape(n, -1)
    width = value.shape[1]
    if scheme == "zo":
        if ctx is None:
            raise ValueError("the zo scheme needs a surrogate context")
        ids = {p: i for i, p in enumerate(dict.fromkeys(paths))}
        spath = ctx._surrogates(list(map(decode_path, ids)))
        spath = spath[np.fromiter(map(ids.__getitem__, paths), np.int32, n)]
        order, code = _zo_order(width, ctx.path_width)
        out = np.concatenate([value, spath], axis=1)[:, order].astype("<u2") << 8 | code
        return out.reshape(-1), np.full(n, width + ctx.path_width, np.int32)
    if scheme not in STATIC_SCHEMES:
        raise ValueError(f"unknown static scheme {scheme!r}")
    path = np.frombuffer(b"".join(paths), np.uint8)
    size = np.fromiter(map(len, paths), np.int32, n)
    start = np.cumsum(size, dtype=np.int32) - size  # of each path in `path`
    at = start + width * np.arange(n, dtype=np.int32)  # of each key in the output
    k = np.arange(width, dtype=np.int32)
    if scheme == "pv":
        pos = (at + size)[:, None] + k
    elif scheme == "vp":
        pos = at[:, None] + k
    else:  # value byte k goes ahead of path unit k, or after the path
        unit = np.flatnonzero((path == SLASH) | (path == PATH_TERMINATOR)).astype(np.int32)
        unit = np.append(unit, len(path))  # never empty, so `take` can clip
        j = np.searchsorted(unit, start).astype(np.int32)[:, None] + k
        # a unit past the key's last starts at or after the key's end
        pos = at[:, None] + k + np.minimum(unit.take(j, mode="clip") - start[:, None], size[:, None])
    out = np.zeros(len(path) + n * width, "<u2")
    is_value = np.zeros(len(out), bool)
    is_value[pos] = True
    out[~is_value] = path
    out <<= 8
    out |= _P
    out[pos] = value.astype("<u2") << 8 | _V
    return out, size + width


def _zo_order(l_v: int, l_p: int) -> tuple[np.ndarray, np.ndarray]:
    """The z-order rounds as a permutation of the columns (value bytes, then
    surrogate path bytes), and the dimension code of each output column:
    round r takes c_v = ceil(l_V/l_P) value bytes, then c_p = ceil(l_P/l_V)
    path bytes."""
    c_v, c_p = -(-l_v // l_p), -(-l_p // l_v)
    rounds = np.concatenate([np.arange(l_v) // c_v * 2, np.arange(l_p) // c_p * 2 + 1])
    order = np.argsort(rounds, kind="stable")
    return order, np.where(order < l_v, _V, _P).astype("<u2")
