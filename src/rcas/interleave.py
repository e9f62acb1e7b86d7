"""Static interleavings of composite keys, the baselines of the index.

Path-value and value-path concatenation, label-wise alternation, and the
z-order style merge over fixed-length surrogate paths.  Each scheme turns a
key into one tagged byte string, two bytes per symbol: the dimension code
(`keys._DIM_CODE`: 0 = P, 1 = V), then the key byte.  That string is what
the flat trie builder partitions (`trie.build_static`).  The dynamic
interleaving is not materialized per key but built directly into the trie
(see `trie.bulk_load`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import Iterable

from .keys import _DIM_CODE, CompositeKey, Dimension

STATIC_SCHEMES = ("pv", "vp", "lw", "zo")

_SURROGATE_WIDTH = 3
_MAX_SURROGATE = (1 << (8 * _SURROGATE_WIDTH)) - 1

_P = bytes([_DIM_CODE[Dimension.P]])
_V = bytes([_DIM_CODE[Dimension.V]])


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
        codes: dict[str, int] = {}
        max_labels = 1
        for k in keys:
            labels = k.path_text.split("/")[1:]
            max_labels = max(max_labels, len(labels))
            for lab in labels:
                if lab not in codes:
                    code = len(codes) + 1
                    if code > _MAX_SURROGATE:
                        raise SurrogateOverflow("more than 2^24 - 1 distinct labels")
                    codes[lab] = code
        return cls(codes=codes, max_labels=max_labels)

    @property
    def path_width(self) -> int:
        return _SURROGATE_WIDTH * self.max_labels

    def code_bytes(self, label: str) -> bytes | None:
        code = self.codes.get(label)
        if code is None:
            return None
        return code.to_bytes(_SURROGATE_WIDTH, "big")

    def surrogate(self, path_text: str) -> bytes:
        labels = path_text.split("/")[1:]
        if len(labels) > self.max_labels:
            raise ValueError(f"path {path_text!r} is deeper than the surrogate context")
        out = bytearray()
        for lab in labels:
            code = self.codes.get(lab)
            if code is None:
                raise KeyError(f"label {lab!r} missing from the surrogate dictionary")
            out += code.to_bytes(_SURROGATE_WIDTH, "big")
        out += bytes(_SURROGATE_WIDTH * (self.max_labels - len(labels)))
        return bytes(out)


def _path_units(path: bytes) -> list[bytes]:
    """Split an encoded path into '/label' units plus the terminator unit."""
    return [b"/" + label for label in path[:-1].split(b"/")[1:]] + [path[-1:]]


def _chunks(data: bytes, n: int) -> list[bytes]:
    return [data[i : i + n] for i in range(0, len(data), n)]


def _tag(chunks: Iterable[tuple[bytes, bytes]]) -> bytes:
    """Pack (dimension code, bytes) chunks into the tagged form."""
    codes = bytearray()
    data = bytearray()
    for code, chunk in chunks:
        codes += code * len(chunk)
        data += chunk
    out = bytearray(2 * len(data))
    out[0::2] = codes
    out[1::2] = data
    return bytes(out)


def _rounds(value_chunks: list[bytes], path_chunks: list[bytes]) -> bytes:
    """One value chunk then one path chunk per round, until both run out."""
    return _tag(
        pair
        for v, p in zip_longest(value_chunks, path_chunks, fillvalue=b"")
        for pair in ((_V, v), (_P, p))
    )


def static_interleave(key: CompositeKey, scheme: str, ctx: ZoContext | None = None) -> bytes:
    """The tagged byte string of one static scheme: a (dimension code, key
    byte) pair per symbol, with the codes of `keys._DIM_CODE`.

    pv: all path bytes then all value bytes.  vp: the reverse.  lw: one value
    byte alternating with one whole path label ('/'-prefixed; the terminator
    is its own final unit).  zo: the value merged with the fixed-length
    surrogate path, ceil(l_V/l_P) value bytes then ceil(l_P/l_V) path bytes
    per round.
    """
    if scheme == "pv":
        return _tag([(_P, key.path), (_V, key.value)])
    if scheme == "vp":
        return _tag([(_V, key.value), (_P, key.path)])
    if scheme == "lw":
        return _rounds(_chunks(key.value, 1), _path_units(key.path))
    if scheme == "zo":
        if ctx is None:
            raise ValueError("the zo scheme needs a surrogate context")
        spath = ctx.surrogate(key.path_text)
        l_p, l_v = len(spath), len(key.value)
        return _rounds(_chunks(key.value, -(-l_v // l_p)), _chunks(spath, -(-l_p // l_v)))
    raise ValueError(f"unknown static scheme {scheme!r}")
