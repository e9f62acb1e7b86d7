"""Definitional oracle for the dynamic interleaving.

Discriminative bytes, partitioning, partitioning sequences and interleave
tuples, written straight from their definitions so that tests can check the
production bulk load (`rcas.trie.bulk_load`) against an independent
implementation.  Every function here favours the definition over speed:
discriminative bytes are found by comparing one position of all keys at a
time, and a partitioning is a dict from the byte at the split position to
the keys that carry it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from rcas.keys import CompositeKey, Dimension

Partition = Sequence[CompositeKey]


def byte_at(s: bytes, i: int) -> int | None:
    """The i-th byte of s (1-based), or None past the end.

    None plays the role of the empty-string marker for positions beyond the
    sequence; it differs from every real byte.
    """
    if i < 1:
        raise IndexError("byte positions are 1-based")
    return s[i - 1] if i <= len(s) else None


def dsc(keys: Partition, dim: Dimension) -> int:
    """Position (1-based) of the discriminative byte of `keys` in `dim`.

    The first position at which not all keys agree, or length+1 when all
    keys agree on the whole dimension.
    """
    if not keys:
        raise ValueError("empty key set has no discriminative byte")
    m = 1
    while True:
        vals = {byte_at(k.dim(dim), m) for k in keys}
        if len(vals) > 1:
            return m
        if vals == {None}:
            return len(keys[0].dim(dim)) + 1
        m += 1


def psi_partition(
    keys: Partition, dim: Dimension, g: int | None = None
) -> dict[int | None, list[CompositeKey]]:
    """Group keys by their byte at the discriminative position g of `dim`.

    Keys keep their input order inside each group.  When `dim` has no
    discriminative byte (g lies past the end), the partitioning is the
    identity, returned as the single group under the key None.
    """
    if not keys:
        raise ValueError("cannot partition an empty key set")
    if g is None:
        g = dsc(keys, dim)
    if g > len(keys[0].dim(dim)):
        return {None: list(keys)}
    groups: dict[int | None, list[CompositeKey]] = {}
    for k in keys:
        groups.setdefault(byte_at(k.dim(dim), g), []).append(k)
    return groups


def partitioning_sequence(
    key: CompositeKey, keys: Partition, dim: Dimension = Dimension.V
) -> list[tuple[list[CompositeKey], Dimension]]:
    """Chain of partitions containing `key`, alternating dimensions.

    Starts by partitioning in `dim` (the value dimension by default) and
    switches to the other dimension whenever the current one is exhausted.
    The final element carries the leaf marker.
    """
    part = list(keys)
    if key not in part:
        raise ValueError("key does not belong to the partition")
    out: list[tuple[list[CompositeKey], Dimension]] = []
    while True:
        g = dsc(part, dim)
        if g > len(key.dim(dim)):
            other = dim.complement()
            g2 = dsc(part, other)
            if g2 > len(key.dim(other)):
                out.append((part, Dimension.BOT))
                return out
            dim, g = other, g2
        out.append((part, dim))
        part = psi_partition(part, dim, g)[byte_at(key.dim(dim), g)]
        dim = dim.complement()


@dataclass(frozen=True)
class InterleaveTuple:
    """One segment of a dynamically interleaved key.

    `value_first` records which substring precedes the other in the
    interleaved order; it is set when the previous partitioning step used the
    value dimension.
    """

    s_p: bytes
    s_v: bytes
    dim: Dimension
    value_first: bool

    def ordered(self) -> tuple[bytes, bytes]:
        return (self.s_v, self.s_p) if self.value_first else (self.s_p, self.s_v)


def dynamic_interleave(key: CompositeKey, keys: Partition) -> list[InterleaveTuple]:
    """Interleave `key` at the discriminative bytes of its partitioning chain."""
    out: list[InterleaveTuple] = []
    prev_p, prev_v = 1, 1
    prev_dim = Dimension.V
    for part, dim in partitioning_sequence(key, keys):
        dp = dsc(part, Dimension.P)
        dv = dsc(part, Dimension.V)
        out.append(
            InterleaveTuple(
                s_p=key.path[prev_p - 1 : dp - 1],
                s_v=key.value[prev_v - 1 : dv - 1],
                dim=dim,
                value_first=prev_dim is Dimension.V,
            )
        )
        prev_p, prev_v, prev_dim = dp, dv, dim
    return out
