"""Dataset records, the line file format, and the synthetic generator.

A dataset file holds one record per line, three ';'-separated fields:
textual path, decimal unsigned value, and hexadecimal 64-bit reference.
Blank lines are skipped.  The file is parsed a chunk of lines at a time, in
a few passes over each chunk; a chunk that fails a check is parsed again
line by line, so that the error names the first bad line.

A dataset is held as columns (`Records`): the paths, the values and the
refs, three lists, with no object per record.  The parser and the generator
fill the columns directly, and a `DatasetRecord` is made only for a caller
that iterates or indexes the dataset.  Records become keys as columns
(`keys.KeySet`), each distinct path and value encoded once.

The generator produces reproducible hierarchies with Zipf-skewed values and
a configurable fraction of duplicate (path, value) pairs, standing in for
file-system style data whose sizes are heavily skewed towards small values.
It draws every record's depth, labels and value as arrays, then numbers the
distinct path prefixes one level at a time and spells each one once, as its
parent's text plus one label; records with equal paths share that string.
A duplicate takes its path and value from the original that its chain of
copies ends at.  Values are Zipf ranks scaled by an odd multiplier, so they
can pass `value_max` by less than 2**16 (see `_zipf_values`), but never
reach 2**32 when `value_max` is at most 2**32.
"""

from __future__ import annotations

import math
import os
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import filterfalse, repeat
from numbers import Integral, Real
from operator import eq
from typing import Iterable, Iterator, NamedTuple, Sequence, TextIO

import numpy as np

from .keys import _PATH, _REF, _VALUE, KeySet, PathSyntaxError, _number, encode_path, encode_value


class DataError(ValueError):
    """Raised for malformed dataset files or records."""


class DatasetRecord(NamedTuple):
    path: str
    value: int
    ref: int


_LINE = "{};{};{:x}".format  # the line of a path, a value and a ref


class Records(Sequence[DatasetRecord]):
    """A sequence of dataset records, held as columns.

    Record i is (paths[i], values[i], refs[i]).  The three columns are
    lists; a dataset file's records with equal paths share one path string.
    The records of an iteration or an index are made on demand, and a slice
    is a `Records`.  Records compare equal to any sequence of equal records.
    """

    __slots__ = ("paths", "values", "refs")

    def __init__(self, paths: list[str], values: list[int], refs: list[int]):
        self.paths = paths
        self.values = values
        self.refs = refs

    @classmethod
    def of(cls, records: Iterable[DatasetRecord]) -> "Records":
        """The records as columns: a `Records` itself, or any other records
        copied column by column."""
        if isinstance(records, Records):
            return records
        if not isinstance(records, Sequence):
            records = list(records)
        return cls(list(map(_PATH, records)), list(map(_VALUE, records)), list(map(_REF, records)))

    def __len__(self) -> int:
        return len(self.refs)

    def __getitem__(self, i: int | slice) -> DatasetRecord | Records:
        if isinstance(i, slice):
            return Records(self.paths[i], self.values[i], self.refs[i])
        return DatasetRecord(self.paths[i], self.values[i], self.refs[i])

    def __iter__(self) -> Iterator[DatasetRecord]:
        return map(DatasetRecord._make, zip(self.paths, self.values, self.refs))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Records):
            return self.refs == other.refs and self.values == other.values and self.paths == other.paths
        if isinstance(other, Sequence):
            return len(self) == len(other) and all(map(eq, self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"Records({list(self)!r})"


# The running example: a bill of materials with seven distinct keys, one of
# which (the cheapest battery) occurs on two physical nodes.
BOM_EXAMPLE: tuple[DatasetRecord, ...] = (
    DatasetRecord("/bom/item/canoe", 69200, 0x1),
    DatasetRecord("/bom/item/carabiner", 241, 0x2),
    DatasetRecord("/bom/item/car/battery", 250714, 0x3),
    DatasetRecord("/bom/item/car/battery", 250714, 0x8),
    DatasetRecord("/bom/item/car/battery", 250800, 0x4),
    DatasetRecord("/bom/item/car/belt", 2890, 0x5),
    DatasetRecord("/bom/item/car/brake", 3266, 0x6),
    DatasetRecord("/bom/item/car/bumper", 2700, 0x7),
)


def _fields(line: str, lineno: int) -> tuple[str, int, int]:
    """The path, value and reference of one dataset line."""
    parts = line.rstrip("\n").split(";")
    if len(parts) != 3:
        raise DataError(f"line {lineno}: expected 3 ';'-separated fields, got {len(parts)}")
    path, value_s, ref_s = parts
    try:
        value = int(value_s, 10)
        if value < 0:
            raise ValueError
    except ValueError:
        raise DataError(f"line {lineno}: bad value field {value_s!r}") from None
    try:
        ref = int(ref_s, 16)
        if not 0 <= ref < 1 << 64:
            raise ValueError
    except ValueError:
        raise DataError(f"line {lineno}: bad reference field {ref_s!r}") from None
    return path, value, ref


_CHUNK_BYTES = 1 << 20  # about this much of the file is parsed at a time


def load_records(path: str) -> Records:
    """The records of a dataset file, as columns.  Records with equal paths
    share one path string."""
    records = Records([], [], [])
    seen: dict[str, str] = {}
    lineno = 1
    try:
        with open(path, "r", encoding="ascii") as fh:
            while lines := fh.readlines(_CHUNK_BYTES):
                texts, values, refs = _parse(lines, lineno)
                records.paths += map(seen.setdefault, texts, texts)
                records.values += values
                records.refs += refs
                lineno += len(lines)
    except UnicodeDecodeError as exc:
        raise DataError(f"dataset {path!r} is not ASCII: {exc}") from exc
    if not records:
        raise DataError(f"dataset {path!r} is empty")
    return records


def _parse(lines: list[str], lineno: int) -> tuple[list[str], list[int], list[int]]:
    """The path, value and ref columns of consecutive lines, the first of
    which is line `lineno`.

    Each line's fields are counted, then all fields come from one split and
    each column is converted in one pass; if any of that fails, the lines
    are parsed one by one (`_fields`), which names the first bad line."""
    kept = list(filterfalse(str.isspace, lines))
    if not kept:
        return [], [], []
    try:
        if list(map(str.count, kept, repeat(";"))).count(2) != len(kept):
            raise ValueError
        fields = ";".join(kept).split(";")
        values = list(map(int, fields[1::3]))
        refs = list(map(int, fields[2::3], repeat(16)))
        if min(values) < 0 or min(refs) < 0 or max(refs) >= 1 << 64:
            raise ValueError
        return fields[0::3], values, refs
    except ValueError:
        parsed = [_fields(line, n) for n, line in enumerate(lines, lineno) if not line.isspace()]
        return tuple(map(list, zip(*parsed)))


_WRITE_CHUNK = 1 << 14  # lines joined per write


def write_records(records: Iterable[DatasetRecord], path: str | os.PathLike | TextIO) -> None:
    """Write the records one line each, a chunk of lines per write, to the
    file at `path` (a str or path-like object) or to an open text stream,
    which is left open.

    DataError names the first record that `load_records` could not read
    back; it is raised before the file is opened, so that it leaves no
    file."""
    records = Records.of(records)
    paths, values, refs = records.paths, records.values, records.refs
    _check_columns(paths, values, refs)
    out = open(path, "w", encoding="ascii") if isinstance(path, (str, os.PathLike)) else nullcontext(path)
    with out as fh:
        for at in range(0, len(refs), _WRITE_CHUNK):
            cut = slice(at, at + _WRITE_CHUNK)
            fh.write("\n".join(map(_LINE, paths[cut], values[cut], refs[cut])))
            fh.write("\n")


def _integers(column: list) -> bool:
    """Whether every item of `column` is an integer and none is a bool."""
    return all(issubclass(t, Integral) and t is not bool for t in set(map(type, column)))


def _check_columns(paths: list[str], values: list[int], refs: list[int]) -> None:
    """DataError naming the first record whose path holds ';', a line break
    or a non-ASCII character, whose value is not an integer or is negative,
    or whose ref is not an integer or lies outside 0 .. 2**64 - 1.  The
    columns are checked whole first, and only a failing check looks for its
    record."""
    text = "".join(paths)
    if (
        text.isascii()
        and not any(map(text.__contains__, ";\n\r"))
        and _integers(values)
        and _integers(refs)
        and min(values, default=0) >= 0
        and min(refs, default=0) >= 0
        and max(refs, default=0) < 1 << 64
    ):
        return
    for i, (path, value, ref) in enumerate(zip(paths, values, refs)):
        if not path.isascii() or any(map(path.__contains__, ";\n\r")):
            raise DataError(f"record {i}: path {path!r} holds ';', a line break or a non-ASCII character")
        if not _integers([value]):
            raise DataError(f"record {i}: value {value!r} is not an integer")
        if value < 0:
            raise DataError(f"record {i}: value {value} is negative")
        if not _integers([ref]):
            raise DataError(f"record {i}: ref {ref!r} is not an integer")
        if not 0 <= ref < 1 << 64:
            raise DataError(f"record {i}: ref {ref} lies outside 0 .. 2**64 - 1")


def records_to_keys(records: Iterable[DatasetRecord], width: int = 4) -> KeySet:
    """The composite keys of the records, as columns: the records' paths and
    values are numbered, and each distinct one is encoded once.  Records
    that are not a `Records` are first copied into columns.  DataError names
    the first record whose path or value cannot be encoded."""
    records = Records.of(records)
    path_texts, pid = _number(records.paths)
    value_ints, vid = _number(records.values)
    try:
        paths = list(map(encode_path, path_texts))
        values = list(map(encode_value, value_ints, repeat(width)))
    except (PathSyntaxError, OverflowError):
        for path, value in zip(records.paths, records.values):
            try:
                encode_path(path)
            except PathSyntaxError as exc:
                raise DataError(str(exc)) from exc
            try:
                encode_value(value, width)
            except OverflowError as exc:
                raise DataError(f"value {value} does not fit width {width}") from exc
        raise
    return KeySet(paths, values, pid, vid, list(records.refs), width)


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int = 0
    key_count: int = 1000
    label_alphabet_size: int = 8
    max_depth: int = 5
    value_skew: float = 1.1
    duplicate_fraction: float = 0.1
    value_max: int = 1 << 20

    def __post_init__(self):
        if not _integers([self.seed]) or self.seed < 0:
            raise DataError("seed must be a non-negative integer")
        for name in ("key_count", "label_alphabet_size", "max_depth"):
            count = getattr(self, name)
            if not _integers([count]):
                raise DataError(f"{name} must be a positive integer")
            if count < 1:
                raise DataError(f"{name} must be positive")
        for name in ("duplicate_fraction", "value_skew"):
            if not isinstance(getattr(self, name), Real):
                raise DataError(f"{name} must be a real number")
        if not 0.0 <= self.duplicate_fraction < 1.0:
            raise DataError("duplicate_fraction must lie in [0, 1)")
        if not (math.isfinite(self.value_skew) and self.value_skew >= 0.0):
            raise DataError("value_skew must be a non-negative number")
        if not _integers([self.value_max]) or not 1 <= self.value_max <= 1 << 64:
            raise DataError("value_max must be an integer in 1 .. 2**64")


def _zipf_values(rng: np.random.Generator, n: int, skew: float, value_max: int) -> np.ndarray:
    """Zipf-distributed values: skewed ranks spread over about [0, value_max).

    With n = min(value_max, 2**16) ranks and m = value_max // n, rank r
    becomes r * (m | 1) if m > 1, else r.  An even m is rounded up, so the
    largest value, (n - 1) * (m | 1), can pass value_max by less than n: at
    the default 2**20 it is 65,535 * 17 = 1,114,095.  At most 2**32 - 1 when
    value_max is at most 2**32.
    """
    n_ranks = int(min(value_max, 1 << 16))
    ranks = np.arange(1, n_ranks + 1, dtype=np.float64)
    weights = ranks ** (-skew) if skew > 0 else np.ones(n_ranks)
    cum = np.cumsum(weights)
    cum /= cum[-1]
    draws = rng.random(n)
    values = np.searchsorted(cum, draws, side="left").astype(np.uint64)
    # an odd multiplier keeps low-order bytes varied while preserving both
    # the ordering and the skew towards small values
    multiplier = value_max // n_ranks
    if multiplier > 1:
        values *= multiplier | 1
    return values


def generate(config: GeneratorConfig) -> Records:
    """Deterministically generate a dataset; same config, same records.

    A record copies the path and value of its original: itself, or for a
    duplicate the original of an earlier record.  Each distinct path prefix
    of the originals is numbered and spelled once, one level at a time."""
    n, alphabet, max_depth = config.key_count, config.label_alphabet_size, config.max_depth
    # a prefix is keyed by its parent's id times the alphabet size plus its
    # label; ids lie below n * max_depth + 1, so every key fits in int64
    if (n * max_depth + 1) * alphabet > 1 << 63:
        raise DataError("key_count * max_depth * label_alphabet_size is too large to generate")
    rng = np.random.default_rng(np.random.PCG64(config.seed))
    depths = rng.integers(1, max_depth + 1, size=n)
    picks = rng.integers(0, alphabet, size=(n, max_depth))
    values = _zipf_values(rng, n, config.value_skew, config.value_max)

    root = np.arange(n)
    if config.duplicate_fraction > 0 and n > 1:
        dup_mask = rng.random(n) < config.duplicate_fraction
        dup_mask[0] = False
        src = (rng.random(n) * np.arange(n)).astype(np.int64)
        # a duplicate copies an earlier record, so following the copies
        # ends at an original
        root[dup_mask] = src[dup_mask]
        while not np.array_equal(jumped := root[root], root):
            root = jumped

    labels = np.array([f"/n{i:02d}" for i in range(alphabet)], dtype=object)
    text = np.array([""], dtype=object)  # the path of each prefix id; 0 is the root
    prefix = np.zeros(n, dtype=np.int64)  # each original's deepest prefix so far
    live = np.flatnonzero(root == np.arange(n))
    for level in range(max_depth):
        live = live[depths[live] > level]
        keys, inverse = np.unique(prefix[live] * alphabet + picks[live, level], return_inverse=True)
        prefix[live] = len(text) + inverse
        text = np.concatenate((text, text[keys // alphabet] + labels[keys % alphabet]))

    return Records(text[prefix[root]].tolist(), values[root].tolist(), list(range(1, n + 1)))
