"""Composite (path, value) keys with order-preserving byte encodings.

Paths are printable-ASCII strings terminated by a NUL byte, which makes any
set of encoded paths prefix-free.  Values are fixed-width big-endian unsigned
integers, so byte-wise lexicographic order on the encoding equals numeric
order.  Both properties together allow a trie over the interleaved bytes to
answer prefix and range predicates without ever decoding a key.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

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
    for b in raw:
        if not PATH_BYTE_MIN <= b <= PATH_BYTE_MAX:
            raise PathSyntaxError(f"path {p!r} contains unprintable byte 0x{b:02X}")
    for label in p.split("/")[1:]:
        if not label:
            raise PathSyntaxError(f"path {p!r} contains an empty label")
    return raw + bytes([PATH_TERMINATOR])


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
