"""Static interleavings of composite keys, the baselines of the index.

Path-value and value-path concatenation, label-wise alternation, and the
z-order style merge over fixed-length surrogate paths.  Each scheme turns a
key into one flat sequence of dimension-tagged bytes; the dynamic
interleaving is not materialized per key but built directly into the trie
(see `trie.bulk_load`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .keys import CompositeKey, Dimension, PATH_TERMINATOR, SLASH

STATIC_SCHEMES = ("pv", "vp", "lw", "zo")

_SURROGATE_WIDTH = 3
_MAX_SURROGATE = (1 << (8 * _SURROGATE_WIDTH)) - 1


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
    text = path[:-1]
    units: list[bytes] = []
    start = 0
    for i in range(1, len(text)):
        if text[i] == SLASH:
            units.append(text[start:i])
            start = i
    units.append(text[start:])
    units.append(bytes([PATH_TERMINATOR]))
    return units


def _byte_merge(value: bytes, path: bytes, n_v: int, n_p: int) -> list[tuple[int, Dimension]]:
    """Emit n_v value bytes then n_p path bytes per round until both run out."""
    out: list[tuple[int, Dimension]] = []
    vi, pi = 0, 0
    while vi < len(value) or pi < len(path):
        for _ in range(n_v):
            if vi < len(value):
                out.append((value[vi], Dimension.V))
                vi += 1
        for _ in range(n_p):
            if pi < len(path):
                out.append((path[pi], Dimension.P))
                pi += 1
    return out


def static_interleave(
    key: CompositeKey, scheme: str, ctx: ZoContext | None = None
) -> list[tuple[int, Dimension]]:
    """Produce the flat dimension-tagged byte sequence of one static scheme.

    pv: all path bytes then all value bytes.  vp: the reverse.  lw: one value
    byte alternating with one whole path label ('/'-prefixed; the terminator
    is its own final unit).  zo: the value merged with the fixed-length
    surrogate path, ceil(l_V/l_P) value bytes then ceil(l_P/l_V) path bytes
    per round.
    """
    if scheme == "pv":
        return [(b, Dimension.P) for b in key.path] + [(b, Dimension.V) for b in key.value]
    if scheme == "vp":
        return [(b, Dimension.V) for b in key.value] + [(b, Dimension.P) for b in key.path]
    if scheme == "lw":
        out: list[tuple[int, Dimension]] = []
        units = _path_units(key.path)
        value = key.value
        n = max(len(value), len(units))
        for i in range(n):
            if i < len(value):
                out.append((value[i], Dimension.V))
            if i < len(units):
                out.extend((b, Dimension.P) for b in units[i])
        return out
    if scheme == "zo":
        if ctx is None:
            raise ValueError("the zo scheme needs a surrogate context")
        spath = ctx.surrogate(key.path_text)
        l_p, l_v = len(spath), len(key.value)
        n_v = -(-l_v // l_p)
        n_p = -(-l_p // l_v)
        return _byte_merge(key.value, spath, n_v, n_p)
    raise ValueError(f"unknown static scheme {scheme!r}")
