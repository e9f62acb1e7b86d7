"""Trie index over interleaved composite keys.

Bulk loading partitions the key set at its discriminative bytes, alternating
between the value and path dimensions; each partition becomes one node
carrying the path/value substrings consumed since the parent's
discriminative bytes.  The same node structure stores the keys produced by
the static interleavings, so one query evaluator serves all schemes.

One builder (`build_static`, which `bulk_load` calls) builds every scheme
through one partitioner (`_partition`): MSD radix partitioning over numpy
arrays, one trie level at a time, for all open partitions at once.  The
dynamic scheme hands it two sequences per key (path and value), a static
scheme one (its tagged string).  Every scheme cuts its node substrings from
the same two blobs, of the key set's distinct paths and values.

A built index is a flat trie: columns over node ids that run in pre-order
(`RcasIndex`), with no object per node or per key.  The builder and the
loader derive the columns from per-node child counts with array passes
(`_shape`) and hand each edge over as one (dimension, byte) symbol, which
`_index` alone splits into the edge columns; the file format (`RCAS3`)
stores them column by column.
Nothing recurses, so the depth of a trie is not bounded by the interpreter's
recursion limit.  Each distinct path or value substring is one object, held
in a table that the nodes point into by id (`_table`); each group of equal
substrings is cut from its blob once (`_slices`).

Indexes are immutable once built: there is no insert or delete path, and any
number of readers may traverse one concurrently.  An index keeps the DFAs of
the queries run on it (`RcasIndex.dfas`); saving and equality ignore them.
"""

from __future__ import annotations

import mmap
import struct
import zlib
from array import array
from collections import deque
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, Iterator, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .interleave import STATIC_SCHEMES, ZoContext, _symbols
from .keys import (
    _DIM_CODE,
    _TERMINATOR,
    PATH_TERMINATOR,
    VALUE_WIDTHS,
    CompositeKey,
    Dimension,
    KeySet,
    decode_path,
)

SCHEMES = ("rcas",) + STATIC_SCHEMES

NODE_KINDS = (4, 16, 48, 256)

MAGIC = b"RCAS3"

_P = _DIM_CODE[Dimension.P]
_V = _DIM_CODE[Dimension.V]
_BOT = _DIM_CODE[Dimension.BOT]
_V_SYMBOL = _V << 8  # the least value edge symbol: path edge symbols lie below it


@dataclass
class BuildStats:
    """Counters of the bulk load that built a trie, read off the finished
    trie (`RcasIndex.build_stats`), so a reopened index reports them too.

    `byte_scans` is the bytes of all node substrings: each byte position of
    each distinct key is consumed by exactly one node while locating
    discriminative bytes, so the total is bounded by the summed key lengths.
    `moves` is the (key, ref) pairs below each inner node, summed: each
    pair is moved into a partition slot once per inner node on its
    root-to-leaf path.
    """

    byte_scans: int
    moves: int


@dataclass
class RcasIndex:
    """A trie as columns over node ids, which run in pre-order.

    Node i's subtree is the id range [i, end[i]).  Its path substring is
    `p_tab[p_id[i]]` and its value substring `v_tab[v_id[i]]`: each table
    holds the distinct substrings of its dimension once, in order of first
    appearance in pre-order.  `s_p` and `s_v` are the same substrings as
    one column per dimension for the query loop; each entry is its table's
    object, so they add no substring.  Both are kept: reading
    `p_tab[p_id[i]]` in the loop cost about 5% of query time, and numbering
    `s_p`/`s_v` again at save took longer than the rest of `save_bytes`
    (11.7 against 9.0 ms for 100,000 keys).  Node i's edges are the range
    [estart[i], estart[i + 1]), sorted by (dimension, byte): its path edges
    [estart[i], esplit[i]), then its value edges [esplit[i], estart[i + 1]).
    A leaf has neither, and only the label-wise scheme builds nodes with
    both.  Edge e leads on byte `ebyte[e]` to node `echild[e]`, and that
    byte is the first byte of the child's substring in the edge's
    dimension.  The refs of the leaves of i's subtree, in pre-order and each
    leaf's in input order, are `refs[reflo[i] : reflo[end[i]]]`, an
    `array('Q')`.  `dfas` keeps the DFA of each query path run on the index
    (`query._matcher`).  Saving and equality read neither `s_p`/`s_v` nor
    `dfas`, and `repr` shows neither.

    The index holds only what it cannot derive: `key_count` and
    `build_stats` are read off the columns, so a reopened index equals the
    index it was saved from and reports the same counters.  `zo_ctx`, the
    z-order context, is set exactly when the scheme is zo; ValueError
    otherwise.
    """

    end: array
    p_tab: list[bytes]
    v_tab: list[bytes]
    p_id: array
    v_id: array
    estart: array
    esplit: array
    ebyte: bytes
    echild: array
    refs: array
    reflo: array
    value_width: int
    scheme: str = "rcas"
    zo_ctx: ZoContext | None = None
    s_p: list[bytes] = field(init=False, repr=False, compare=False)
    s_v: list[bytes] = field(init=False, repr=False, compare=False)
    dfas: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if (self.scheme == "zo") != (self.zo_ctx is not None):
            raise ValueError("a zo index needs a z-order context, and other schemes take none")
        self.s_p = _column(self.p_tab, self.p_id)
        self.s_v = _column(self.v_tab, self.v_id)

    @property
    def key_count(self) -> int:
        return len(self.refs)

    @property
    def build_stats(self) -> BuildStats:
        reflo = np.frombuffer(self.reflo, np.uint64)
        below = reflo[np.frombuffer(self.end, np.int32)] - reflo[:-1]  # the refs of each subtree
        inner = np.diff(np.frombuffer(self.estart, np.int32)) > 0
        return BuildStats(byte_scans=_substring_bytes(self), moves=int(below[inner].sum()))


def _column(tab: list[bytes], ids: array) -> list[bytes]:
    """tab[ids[i]] for each i: references to the table's objects."""
    objects = np.empty(len(tab), object)
    objects[:] = tab
    return objects[np.frombuffer(ids, np.int32)].tolist()


def _lengths(tab: list[bytes]) -> np.ndarray:
    return np.fromiter(map(len, tab), np.int64, len(tab))


def _substring_bytes(index: RcasIndex) -> int:
    """The bytes of all node substrings, of both dimensions."""
    return sum(
        int(_lengths(tab)[np.frombuffer(ids, np.int32)].sum())
        for tab, ids in ((index.p_tab, index.p_id), (index.v_tab, index.v_id))
    )


def _aggregate(keys: KeySet) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Collapse duplicate keys: the path id and the value id (into
    `keys.paths` and `keys.values`) of each distinct (path, value) pair,
    the refs of the keys as uint64, and the pair id of each key (int32).  A
    pair is one integer over the two ids, so no object is made per key.

    The distinct paths are checked to end in their only NUL byte, so that
    they are prefix-free, as the partitioner needs."""
    if not keys:
        raise ValueError("cannot build an index over an empty key set")
    try:
        refs = np.fromiter(keys.refs, np.uint64, len(keys))
    except OverflowError as exc:
        raise ValueError(f"refs must lie in 0 .. 2**64 - 1 ({exc})") from exc
    paths = keys.paths
    ends = all(map(bytes.endswith, paths, repeat(_TERMINATOR)))
    if not ends or b"".join(paths).count(_TERMINATOR) != len(paths):
        raise ValueError("key paths must end in their only NUL byte")
    n_values = len(keys.values)
    pair, group = np.unique(keys.pid * n_values + keys.vid, return_inverse=True)
    return pair // n_values, pair % n_values, refs, group.astype(np.int32)


# --- the partitioner --------------------------------------------------------

_WINDOW_MAX = 1024  # most symbols one row compares per round
_WINDOW_CELLS = 1 << 17  # most (row, symbol) cells one round compares


class _Seqs(NamedTuple):
    """One symbol sequence per distinct key, read from one blob.  Keys with
    an equal path (or value) read the same bytes of the blob (`take`).

    Sequences are read a window of symbols at a time at per-row offsets, so
    a long sequence costs only its own length, never a padded row for every
    key.  `_WINDOW_MAX` zero symbols after the last sequence keep every
    window inside the blob.  Node substrings are sliced from the blob once
    per distinct value, or per distinct span when long (`_table`); slicing
    the map gives bytes.

    The blob is an anonymous memory map: it comes zero-filled, so the
    padding costs nothing, and it goes back to the system when released,
    so a build leaves no blob-sized hole in the allocator's heap.
    """

    blob: mmap.mmap
    data: np.ndarray  # the blob's symbols
    start: np.ndarray  # offset of each sequence in `data`
    size: np.ndarray  # length of each sequence

    @classmethod
    def of(cls, parts: list[bytes]) -> "_Seqs":
        seqs = cls.empty(np.fromiter(map(len, parts), np.int32, len(parts)))
        deque(map(seqs.blob.write, parts), maxlen=0)  # writes every part, looping in C
        return seqs

    @classmethod
    def empty(cls, size: np.ndarray, dtype: str = "u1") -> "_Seqs":
        """Zero symbols in sequences of the given lengths, to be filled."""
        unit = np.dtype(dtype).itemsize
        blob = mmap.mmap(-1, unit * (int(size.sum(dtype=np.int64)) + _WINDOW_MAX))
        start = np.zeros(len(size), np.int32 if len(blob) < 2**31 else np.int64)
        np.cumsum(size[:-1], out=start[1:])
        return cls(blob, np.frombuffer(blob, dtype), start, size)

    def take(self, ids: np.ndarray) -> "_Seqs":
        """The sequences ids[0], ids[1], ..., read from this blob."""
        return self._replace(start=self.start[ids], size=self.size[ids])

    def joined(self) -> np.ndarray:
        """The symbols of all sequences, one sequence after the other,
        gathered with 32-bit indices where they fit."""
        total = int(self.size.sum(dtype=np.int64))
        itype = np.int32 if max(total, len(self.data)) < 2**31 else np.int64
        shift = np.cumsum(self.size, dtype=itype) - self.size - self.start  # output offset less blob offset
        return self.data[np.arange(total, dtype=itype) - np.repeat(shift, self.size)]


def _dsc(seqs: _Seqs, rows: np.ndarray, starts: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """The discriminative position of each partition in one sequence.

    Partition j holds the keys `rows[starts[j] : starts[j + 1]]` (the last
    one runs to the end of `rows`).  Its discriminative position is the
    first position >= lo[j] (0-based) at which some key differs from the
    partition's first key, or that key's length when none does.  Prefix-free
    sequences keep every read inside the row being read, up to the first
    difference; what a window reads past it is never used.

    All open partitions compare one window per round, and a partition closes
    at its first difference.  The window doubles each round, so a shared
    run of L symbols costs O(log L) rounds, and it is capped so that one
    round compares at most `_WINDOW_CELLS` cells.
    """
    sizes = np.diff(starts, append=len(rows))
    end = seqs.size[rows[starts]]
    out = end.copy()
    ids = np.arange(len(starts))
    pos = lo.astype(seqs.start.dtype)
    base = seqs.start[rows]
    keep = pos < end
    width = 1
    while True:
        if not keep.all():
            base = base[np.repeat(keep, sizes)]
            ids, pos, end, sizes = ids[keep], pos[keep], end[keep], sizes[keep]
            starts = np.cumsum(sizes) - sizes
        if not ids.size:
            return out
        win = sliding_window_view(seqs.data, width)[base + np.repeat(pos, sizes)]
        differs = np.logical_or.reduceat(win != np.repeat(win[starts], sizes, axis=0), starts)
        first = differs.argmax(axis=1)
        found = differs[np.arange(len(first)), first]
        out[ids[found]] = np.minimum(pos[found] + first[found], end[found])
        pos += width
        keep = ~found & (pos < end)
        width = min(2 * width, _WINDOW_MAX, max(1, _WINDOW_CELLS // len(base)))


class _Level(NamedTuple):
    """One trie level, one entry per node in edge order.

    `parent` indexes the previous level (-1 for the root) and `key` is the
    symbol on the edge from it.  `row` is the node's first key, whose
    sequence `s` holds the node's substring `lo[s]:hi[s]`.  `split` is the
    sequence the node branches on, or -1 for a leaf.
    """

    parent: np.ndarray
    key: np.ndarray
    row: np.ndarray
    lo: list[np.ndarray]
    hi: list[np.ndarray]
    split: np.ndarray


def _partition(seqs: list[_Seqs], first: int) -> Iterator[_Level]:
    """Build a trie over distinct keys by MSD radix partitioning, one level
    at a time (Kärkkäinen and Rantala, "Engineering Radix Sort for
    Strings").

    Each key is one symbol sequence per dimension (`seqs`).  A level finds
    the discriminative position of every open partition in every sequence
    (`_dsc`, resumed at the parent's), and branches each one on a sequence:
    the root on `first`, every other node on the sequence after its
    parent's, or the one after that when that sequence is used up.  A stable
    sort by (partition, symbol there) then yields the partitions of the next
    level; singletons become leaves.

    So each symbol of a key is consumed by one node, and each key moves once
    per inner node above its leaf: the build's counters are properties of
    the trie, which `RcasIndex.build_stats` reads off it, and nothing here
    counts them.
    """
    k = len(seqs)
    rows = np.arange(len(seqs[0].start), dtype=np.int32)
    starts = np.zeros(1, np.int32)
    parent = np.full(1, -1)
    key = np.zeros(1, seqs[0].data.dtype)
    lo = [np.zeros(1, np.int32) for _ in seqs]
    cut = np.full(1, -1, np.int8)  # the sequence the parent branched on
    want = np.full(1, first, np.int8)
    while True:
        sizes = np.diff(starts, append=len(rows))
        row = rows[starts]
        hi = [s.size[row] for s in seqs]
        split = np.full(len(starts), -1, np.int8)
        inner = np.flatnonzero(sizes > 1)
        if inner.size:
            rows = rows[np.repeat(sizes > 1, sizes)]
            sizes = sizes[inner]
            starts = np.cumsum(sizes, dtype=np.int32) - sizes
            for d, s in enumerate(seqs):
                # the parent's branch symbol is shared, so resume past it
                hi[d][inner] = _dsc(s, rows, starts, lo[d][inner] + (cut[inner] == d))
            want = want[inner]
            spent = np.choose(want, [h[inner] >= s.size[row[inner]] for h, s in zip(hi, seqs)])
            split[inner] = np.where(spent, (want + 1) % k, want)
        yield _Level(parent, key, row, lo, hi, split)
        if not inner.size:
            return
        pid = np.repeat(np.arange(len(inner), dtype=np.int32), sizes)
        at = split[inner]
        key = np.empty(len(rows), seqs[0].data.dtype)
        for d, s in enumerate(seqs):
            on = np.repeat(at == d, sizes)
            key[on] = s.data[s.start[rows[on]] + np.repeat(hi[d][inner], sizes)[on]]
        order = np.lexsort((key, pid))
        rows, key = rows[order], key[order]
        new = np.empty(len(rows), bool)
        np.not_equal(key[1:], key[:-1], out=new[1:])
        new[starts] = True
        starts = np.flatnonzero(new).astype(np.int32)
        parent = inner[pid[starts]]
        key = key[starts]
        lo = [h[parent] for h in hi]
        cut = split[parent]
        want = (cut + 1) % k


def _preorder(levels: Iterator[_Level]) -> tuple[np.ndarray, _Level]:
    """The nodes of all levels in pre-order: each one's child count, and
    its level fields in that order (`parent` is left out).

    Subtree sizes add up bottom-up; then, top-down, a node's id follows its
    parent's and the subtrees of its earlier siblings."""
    levels = list(levels)
    size = [np.ones(len(lv.row), np.int64) for lv in levels]
    arity = [np.zeros(len(lv.row), np.int64) for lv in levels]
    for d in range(len(levels) - 1, 0, -1):
        up, n = levels[d].parent, len(levels[d - 1].row)
        size[d - 1] += np.bincount(up, weights=size[d], minlength=n).astype(np.int64)
        arity[d - 1] = np.bincount(up, minlength=n)
    ids = [np.zeros(1, np.int64)]
    for d in range(1, len(levels)):
        up = levels[d].parent  # ascending: a level is grouped by parent
        before = np.cumsum(size[d]) - size[d]
        ids.append(ids[-1][up] + 1 + before - before[np.searchsorted(up, up)])
    order = np.empty(sum(map(len, ids)), np.int64)
    order[np.concatenate(ids)] = np.arange(len(order))

    def cat(arrays) -> np.ndarray:
        return np.concatenate(arrays)[order]

    nodes = _Level(
        None,
        cat([lv.key for lv in levels]),
        cat([lv.row for lv in levels]),
        [cat([lv.lo[s] for lv in levels]) for s in range(len(levels[0].lo))],
        [cat([lv.hi[s] for lv in levels]) for s in range(len(levels[0].hi))],
        cat([lv.split for lv in levels]),
    )
    return cat(arity), nodes


# --- the flat trie ----------------------------------------------------------


class _Shape(NamedTuple):
    """The structure of a pre-order tree (see `RcasIndex`)."""

    end: np.ndarray
    echild: np.ndarray
    estart: np.ndarray


def _shape(arity: np.ndarray) -> _Shape:
    """Subtree ends and edges of a tree given by its nodes' child counts in
    pre-order; ValueError when the counts do not describe one tree.

    Walking the nodes in order, each takes one open child slot and opens as
    many as it has children: `open_[k]` slots are open before node k, never
    fewer than one until the last node takes the last.  Node i's subtree
    ends where the slot it took is given back, at the first k > i with
    open_[k] == open_[i] - 1, found by a search over the positions sorted by
    (count, position); the needle of node i is its own key one count lower,
    so the needles, taken in key order, come sorted, which keeps the
    search's reads close together.

    A node's depth is the number of subtrees still open at it.  Sorted by
    (depth, position), the nodes of each depth fall into runs of siblings,
    in the pre-order of their parents, so a node's children are the run
    that starts at its first child, the node after it: every edge is one
    gather from that order, and no node's parent is needed.  Both sorts are
    stable sorts of counts (`_stable_order`).  For 95,567 nodes (100,000
    keys of width 8) this takes 6.8 ms, where finding each node's parent by
    a second search and grouping the children by parent took 12.5 ms (min
    of 30 calls each, interleaved, on a shared 2-core host).
    """
    n = len(arity)
    open_ = np.ones(n + 1, np.int64)
    np.cumsum(arity - 1, out=open_[1:])
    open_[1:] += 1
    if not n or open_[-1] != 0 or open_[:-1].min() < 1:
        raise ValueError("the child counts do not form a tree in index file")
    order = _stable_order(open_)  # order[0] is position n, the only one of count 0
    keys = open_[order] * (n + 1) + order
    end = np.empty(n, np.int64)
    end[order[1:]] = order[np.searchsorted(keys, keys[1:] - (n + 1))]
    del open_, keys
    depth = np.arange(n) - np.cumsum(np.bincount(end, minlength=n + 1)[:n])  # k less the subtrees ended by k
    order = _stable_order(depth)
    del depth
    at = np.zeros(n + 1, np.int64)  # each node's place in `order`
    at[order] = np.arange(n)
    estart = np.zeros(n + 1, np.int64)
    np.cumsum(arity, out=estart[1:])
    # edge e of node i leads to order[at[i + 1] + e - estart[i]]
    echild = order[np.repeat(at[1:] - estart[:-1], arity) + np.arange(n - 1)]
    return _Shape(end, echild, estart)


def _stable_order(counts: np.ndarray) -> np.ndarray:
    """The positions of non-negative `counts` sorted by (count, position).
    Held in the narrowest unsigned type, counts below 2**16 are radix
    sorted."""
    return np.argsort(counts.astype(np.min_scalar_type(counts.max())), kind="stable")


def _down(x: np.ndarray, end: np.ndarray) -> np.ndarray:
    """For each node, the sum of `x` over the node and its ancestors: node j
    adds x[j] to the ids [j, end[j])."""
    n = len(end)
    step = np.zeros(n + 1, np.int64)
    step[:n] = x
    step -= np.bincount(end, weights=x, minlength=n + 1).astype(np.int64)
    return np.cumsum(step[:n])


def _slices(blob, start: np.ndarray, stop: np.ndarray) -> list[bytes]:
    """blob[start[i]:stop[i]] for each i, as bytes."""
    return [blob[a:b] for a, b in zip(start.tolist(), stop.tolist())]


def _table(blob, start: np.ndarray, stop: np.ndarray) -> tuple[list[bytes], np.ndarray]:
    """The distinct substrings blob[start[i]:stop[i]] in order of first
    appearance, and the id of each i's substring among them.

    A substring of up to 7 bytes is keyed by its bytes (a 1, then the
    bytes, in one int64), a longer one by its span, so one sort groups the
    short substrings by content and the long ones by (offset, size); the
    first empty substring stands for all of them.  Each group is sliced once
    (`_slices`), and long spans that hold equal bytes then share one table
    entry, so each distinct substring is one object.  Most node substrings
    repeat, so a table holds a fraction of them: for 100,000 keys `bulk_load`
    slices about 23k substrings for 191k node substrings."""
    size = stop - start
    keep = size > 0
    empty = np.argmin(keep)  # the first empty substring, if there is one
    keep[empty] = True
    at = np.flatnonzero(keep)
    start, size = start[at].astype(np.int64), size[at].astype(np.int64)
    data = np.frombuffer(blob, np.uint8)
    key = np.ones(len(at), np.int64)
    on = np.flatnonzero((size > 0) & (size < 8))
    for k in range(7):
        key[on] = key[on] << 8 | data[start[on] + k]
        on = on[size[on] > k + 1]
    long = np.flatnonzero(size >= 8)
    key[long] = -1 - start[long] * (int(size.max()) + 1) - size[long]
    group, inverse = np.unique(key, return_inverse=True)
    first = np.full(len(group), len(at))
    np.minimum.at(first, inverse, np.arange(len(at)))  # the first of each group
    order = np.argsort(first)  # the groups in order of first appearance
    head = first[order]
    cut = _slices(blob, start[head], start[head] + size[head])
    seen: dict[bytes, int] = {}
    # the position in `cut` of each cut substring's first equal
    same = np.fromiter(map(seen.setdefault, cut, range(len(cut))), np.int64, len(cut))
    entry = np.empty(len(group), np.int32)
    entry[order] = (np.cumsum(same == np.arange(len(cut))) - 1)[same]
    ids = np.empty(len(keep), np.int32)
    ids[at] = entry[inverse]
    ids[~keep] = ids[empty]
    return list(seen), ids


def _index(
    shape: _Shape,
    p_table: tuple[list[bytes], np.ndarray],
    v_table: tuple[list[bytes], np.ndarray],
    symbol: np.ndarray,
    refcount: np.ndarray,
    refs: np.ndarray,
    **meta,
) -> RcasIndex:
    """The index of a tree whose edges are (dimension, byte) symbols,
    dimension code * 256 + byte, each node's ascending, as the builder and
    the loader both hand them over.  Only this turns them into columns: an
    edge's byte is its symbol's low byte, and a node's path edges, the
    symbols below `_V_SYMBOL`, come first, so one prefix count of them over
    all edges gives each node's split (`RcasIndex.esplit`)."""
    paths = np.zeros(len(symbol) + 1, np.int32)  # the path edges before each edge
    np.cumsum(symbol < _V_SYMBOL, out=paths[1:])
    reflo = np.zeros(len(refcount) + 1, np.uint64)
    np.cumsum(refcount, out=reflo[1:])
    return RcasIndex(
        end=_array("i", shape.end),
        p_tab=p_table[0],
        v_tab=v_table[0],
        p_id=_array("i", p_table[1]),
        v_id=_array("i", v_table[1]),
        estart=_array("i", shape.estart),
        esplit=_array("i", shape.estart[:-1] + np.diff(paths[shape.estart])),
        ebyte=symbol.astype(np.uint8).tobytes(),  # the low byte
        echild=_array("i", shape.echild),
        refs=_array("Q", refs),
        reflo=_array("Q", reflo),
        **meta,
    )


def _array(typecode: str, a: np.ndarray) -> array:
    """`a` as an `array` of `typecode` ("i" or "Q"), copied into it once."""
    out = array(typecode)
    out.frombytes(np.ascontiguousarray(a, np.dtype(typecode)).data.cast("B"))
    return out


# --- the builder ------------------------------------------------------------


def bulk_load(keys: Iterable[CompositeKey]) -> RcasIndex:
    """Build the dynamically interleaved index for a set of composite keys
    (`build_static` with the rcas scheme)."""
    return build_static(keys, "rcas")


def build_static(keys: Iterable[CompositeKey], scheme: str, ctx: ZoContext | None = None) -> RcasIndex:
    """Build the trie of any scheme, dynamic (rcas) or static (pv, vp, lw,
    zo).  The scheme decides only what the partitioner (`_partition`) reads
    and how its nodes become substrings.

    rcas reads two sequences per distinct key, its path and its value, from
    blobs of the key set's distinct paths and values (`keys.KeySet`), and
    starts in the value dimension; each node then branches in the dimension
    other than its parent's unless that one is used up, and its edges take
    that dimension.  A static scheme reads one sequence per distinct key,
    its tagged symbols (`interleave.static_interleave`, made for all keys at
    once), dimension code * 256 + byte, so edges are ordered by dimension,
    then by byte, and a label-wise node's edges may span both.  Every
    scheme hands its edges to `_index` in that form, one symbol each: the
    child's key under the code of the sequence its parent splits on, which
    for a static scheme's inner nodes is sequence 0, so its key stands
    alone.  `_index` alone turns them into edge bytes and each node's split
    into path and value edges.  Its path bytes are read from the blob of distinct paths (for zo, of their
    surrogate paths), so a running count of value symbols turns a node's
    symbol range into a range of each blob (`_untag`), and every scheme
    cuts its substrings from the same two blobs (`_table`).  Either way each
    pair is moved once per level of its root-to-leaf path, and one stable
    sort puts the refs in leaf order, each leaf's in input order."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    keys = KeySet.of(keys)
    pair_p, pair_v, refs, pair_of_key = _aggregate(keys)
    count = np.bincount(pair_of_key, minlength=len(pair_p))
    if scheme == "zo":
        if ctx is None:
            ctx = ZoContext.from_keys(keys)
        paths = _Seqs.of(list(ctx._surrogates(list(map(decode_path, keys.paths)))))
    else:
        paths = _Seqs.of(keys.paths)
    paths, values = paths.take(pair_p), _Seqs.of(keys.values).take(pair_v)
    if scheme == "rcas":
        seqs, first = [paths, values], _V
    else:
        symbols, size = _symbols(paths.joined(), paths.size, values.joined().reshape(len(count), -1), scheme)
        seqs, first = [_Seqs.empty(size, "<u2")], 0
        seqs[0].data[: len(symbols)] = symbols
        del symbols
    arity, nodes = _preorder(_partition(seqs, first))
    shape = _shape(arity)
    leaf = nodes.split < 0
    # dimension code * 256 + byte: for rcas the sequence its parent splits on, 0 for static schemes
    symbol = nodes.key[shape.echild] | np.repeat(nodes.split.astype(np.uint16) << 8, arity)
    lo, hi = (nodes.lo, nodes.hi) if scheme == "rcas" else _untag(seqs[0], nodes)  # of the path, of the value
    at = [s.start[nodes.row] for s in (paths, values)]  # where each node's first pair starts in each blob
    tables = [_table(s.blob, a + l, a + h) for s, a, l, h in zip((paths, values), at, lo, hi)]
    del seqs, paths, values, lo, hi, at  # before the index's columns are made
    leaf_rank = np.empty(len(count), np.int32)
    leaf_rank[nodes.row[leaf]] = np.arange(len(count), dtype=np.int32)
    return _index(
        shape,
        *tables,
        symbol,
        count[nodes.row] * leaf,
        refs[np.argsort(leaf_rank[pair_of_key], kind="stable")],
        value_width=keys.width,
        scheme=scheme,
        zo_ctx=ctx if scheme == "zo" else None,
    )


def _untag(tagged: _Seqs, nodes: _Level) -> tuple[list, list]:
    """The range [lo[0], hi[0]) of each node in the tagged sequence of its
    first pair, `row`, as a range of that pair's path and a range of its
    value: the value symbols before a position are the value bytes before
    it, and the others path bytes."""
    before = np.zeros(len(tagged.data) + 1, np.int32)  # the value symbols before each position
    before[1:] = tagged.data.view(np.uint8)[1::2]  # a symbol's high byte is its code, 1 for V
    np.cumsum(before, out=before)
    at, lo, hi = tagged.start[nodes.row], nodes.lo[0], nodes.hi[0]
    v_lo, v_hi, past = before[at + lo], before[at + hi], before[at]  # past: of the earlier pairs
    del before, at
    v_lo -= past
    v_hi -= past
    return [lo - v_lo, v_lo], [hi - v_hi, v_hi]


# --- structural statistics --------------------------------------------------

_HEADER_BYTES = 16
_POINTER_BYTES = 8


@dataclass
class IndexStats:
    """Structural statistics (`collect_stats`).  `size_estimate` is the
    paper's size model: the bytes of the adaptive node layout (4/16/48/256
    child slots; Leis et al., ICDE 2013), not those of the flat index, whose
    measured size is its saved file (`index_bytes_per_key`)."""

    node_count: int
    leaf_count: int
    depth_histogram: dict[int, int]
    avg_node_depth: float
    avg_leaf_depth: float
    kind_dim_counts: dict[tuple[str, str], int]
    size_estimate: int
    key_count: int
    unique_key_count: int


_KIND_NAMES = tuple(map(str, NODE_KINDS)) + ("leaf",)
_DIM_NAMES = tuple(d.value for d in (Dimension.P, Dimension.V, Dimension.BOT))


def collect_stats(index: RcasIndex) -> IndexStats:
    """Depth and node-type histograms plus the size model of the paper.

    An inner node's kind is the smallest capacity class of `NODE_KINDS`
    that holds its children (those of a label-wise node over 256 share the
    largest).  It counts under P when it has a path edge, under V
    otherwise, so a label-wise node whose edges span both dimensions counts
    under P.  The size estimate models these adaptive nodes, not the flat
    index, whose measured size is the bytes of its saved file."""
    estart = np.frombuffer(index.estart, np.int32)
    n = len(estart) - 1
    depth = _down(np.ones(n, np.int64), np.frombuffer(index.end, np.int32))
    depth -= 1
    arity = np.diff(estart)
    refcount = np.diff(np.frombuffer(index.reflo, np.uint64))
    leaf = arity == 0
    has_p = np.frombuffer(index.esplit, np.int32) > estart[:-1]  # has a path edge
    named = np.array([_V, _BOT, _P])[leaf + 2 * has_p]  # a leaf has no edge
    kind = np.searchsorted(NODE_KINDS, np.minimum(arity, 256)) + len(NODE_KINDS) * leaf  # a leaf's arity is 0
    capacity = np.array(NODE_KINDS + (0,))[kind]
    dims = len(_DIM_NAMES)
    kinds = np.bincount(kind * dims + named, minlength=len(_KIND_NAMES) * dims)
    kind_dim = {
        (_KIND_NAMES[k // dims], _DIM_NAMES[k % dims]): c for k, c in enumerate(kinds.tolist()) if c
    }
    leaves = int(leaf.sum())
    size = (
        _HEADER_BYTES * n
        + _substring_bytes(index)
        + _POINTER_BYTES * int(refcount.sum())
        + (_POINTER_BYTES + 1) * int(capacity.sum())
    )
    return IndexStats(
        node_count=n,
        leaf_count=leaves,
        depth_histogram={d: c for d, c in enumerate(np.bincount(depth).tolist()) if c},
        avg_node_depth=int(depth.sum()) / n,
        avg_leaf_depth=int(depth[leaf].sum()) / leaves,
        kind_dim_counts=dict(sorted(kind_dim.items())),
        size_estimate=size,
        key_count=index.key_count,
        unique_key_count=leaves,
    )


# --- serialization ----------------------------------------------------------
#
# An RCAS3 file is a header, the substring tables and the node and edge
# columns in pre-order, and a CRC-32 (zlib) of all that precedes it,
# big-endian:
#
#   header   magic "RCAS3", scheme code u8, value width u8, key count u64,
#            node count u64, path table count u64, value table count u64,
#            byte length of the varint table u64; for zo also max labels u64,
#            label count u64, byte length u64 and the labels in code order,
#            joined by '/'
#   dims     one dimension code per node: the code of the dimension all of
#            its edges share, the leaf code, or `_MIXED` when they span both
#   table    LEB128 varints: the length of each path table entry, the length
#            of each value table entry, then three per node: path substring
#            id, value substring id, and child count (inner) or ref count
#            (leaf)
#   edges    one byte per edge (node count - 1), grouped by parent, each
#            node's ascending by (dimension code, byte)
#   mixed    the dimension code of each edge of the `_MIXED` nodes
#   blobs    the path table's entries, then the value table's, concatenated
#   refs     one LEB128 varint per key
#
# Every length is a varint, so no substring is too long to save.  A table
# holds each distinct substring of its dimension once, in order of first
# appearance in pre-order (`RcasIndex`), and is written as the index holds it.
# The dimension codes are the file's alone: a save derives them from each
# node's split between its path and value edges (`RcasIndex.esplit`), and a
# load checks them and joins them with the edge bytes into the edge symbols
# that a build makes too, which `_index` alone splits again.

_MIXED = 3  # the dimension code of a node whose edges span both dimensions
_SCHEME_CODE = {s: i for i, s in enumerate(SCHEMES)}
_SCHEME_FROM_CODE = {i: s for s, i in _SCHEME_CODE.items()}
_HEADER = struct.Struct(">5sBBQQQQQ")
_ZO_HEADER = struct.Struct(">QQQ")
_CRC = struct.Struct(">I")


def _varints(values: np.ndarray) -> bytes:
    """Unsigned LEB128: seven bits a byte, low bits first, the high bit set
    on every byte but a value's last."""
    v = values.astype(np.uint64, copy=False)
    size = np.ones(len(v), np.uint8)
    for k in range(1, 10):
        more = v >= np.uint64(1 << (7 * k))
        if not more.any():
            break
        size += more
    start = size.astype(np.int64)  # summed in place, as a cast sum copies `size` first
    np.cumsum(start, out=start)
    start -= size
    out = np.empty(int(size.sum()), np.uint8)
    low = v.astype(np.uint8)  # the low byte
    low &= 0x7F
    on = np.flatnonzero(size > 1)  # the values with a byte k still to write
    low[on] |= 0x80
    out[start] = low
    for k in range(1, int(size.max(initial=0))):
        more = np.where(size[on] > k + 1, 0x80, 0).astype(np.uint8)
        out[start[on] + k] = ((v[on] >> np.uint64(7 * k)) & np.uint64(0x7F)).astype(np.uint8) | more
        on = on[size[on] > k + 1]
    return out.tobytes()


def _read_varints(column: bytes, count: int) -> np.ndarray:
    """Exactly `count` canonical LEB128 varints filling `column`, as uint64.

    A varint of one byte is its own value and cannot be spelled longer than
    it needs, so the canonical checks and the reads of further bytes run
    over the longer varints alone: most of the node table's are one byte."""
    col = np.frombuffer(column, np.uint8)
    last = np.flatnonzero(col < 0x80)
    if len(last) != count or (count and last[-1] != len(col) - 1) or (not count and len(col)):
        raise ValueError("varint column does not hold its count in index file")
    if len(col) == count:  # no varint longer than a byte
        return col.astype(np.uint64)
    out = col[last].astype(np.uint64)
    size = last.copy()  # np.diff with prepend= took seven times as long
    size[0] += 1
    np.subtract(last[1:], last[:-1], out=size[1:])
    on = np.flatnonzero(size > 1)  # the varints of more than one byte
    size, last = size[on], last[on]
    top = col[last]  # a zero top group spells the value longer than it needs
    if (size > 10).any() or not top.all() or ((size == 10) & (top > 1)).any():
        raise ValueError("bad varint in index file")
    first = last - size + 1
    value = (col[first] & 0x7F).astype(np.uint64)
    more = np.arange(len(on))  # the varints with a byte k still to read
    for k in range(1, int(size.max())):
        value[more] |= (col[first[more] + k] & 0x7F).astype(np.uint64) << np.uint64(7 * k)
        more = more[size[more] > k + 1]
    out[on] = value
    return out


def save_bytes(index: RcasIndex) -> bytes:
    """Serialize an index to the RCAS3 format.

    The varint table is encoded from one column of its values, filled in
    place, and the checksum is taken over the parts before their one join,
    so a save makes few temporaries: 6.8 MiB at its tracemalloc peak for
    100,000 keys of width 8.  Fresh pages are a large part of a save's cost
    once the allocator has given its heap back to the system, as it may
    between two saves."""
    estart = np.frombuffer(index.estart, np.int32)
    n = len(estart) - 1
    n_p, n_v = len(index.p_tab), len(index.v_tab)
    arity = np.diff(estart)
    column = np.empty(n_p + n_v + 3 * n, np.uint64)  # the values of the varint table
    column[:n_p] = _lengths(index.p_tab)
    column[n_p : n_p + n_v] = _lengths(index.v_tab)
    nodes = column[n_p + n_v :].reshape(n, 3)
    nodes[:, 0] = np.frombuffer(index.p_id, np.int32)
    nodes[:, 1] = np.frombuffer(index.v_id, np.int32)
    nodes[:, 2] = arity  # an inner node's child count, or a leaf's ref count
    nodes[:, 2] += np.diff(np.frombuffer(index.reflo, np.uint64))
    table = _varints(column)
    del column, nodes
    path_edges = np.frombuffer(index.esplit, np.int32) - estart[:-1]
    has_v = path_edges < arity
    dims = (has_v + 2 * ((path_edges > 0) == has_v)).astype(np.uint8)  # P 0, V 1, leaf 2, mixed 3
    mixed = b""
    on = np.flatnonzero(dims == _MIXED)
    if on.size:  # each mixed node's path codes, then its value codes
        runs = np.column_stack((path_edges[on], arity[on] - path_edges[on])).ravel()
        mixed = np.repeat(np.tile(np.array([_P, _V], np.uint8), on.size), runs).tobytes()
    scheme = _SCHEME_CODE[index.scheme]
    counts = (index.key_count, n, n_p, n_v, len(table))
    parts = [_HEADER.pack(MAGIC, scheme, index.value_width, *counts)]
    ctx = index.zo_ctx
    if ctx is not None:
        labels = "/".join(sorted(ctx.codes, key=ctx.codes.__getitem__)).encode("ascii")
        parts.append(_ZO_HEADER.pack(ctx.max_labels, len(ctx.codes), len(labels)) + labels)
    parts += [
        dims.tobytes(),
        table,
        index.ebyte,
        mixed,
        b"".join(index.p_tab),
        b"".join(index.v_tab),
        _varints(np.frombuffer(index.refs, np.uint64)),
    ]
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    parts.append(_CRC.pack(crc))
    return b"".join(parts)


def load_bytes(data: bytes) -> RcasIndex:
    """Read an RCAS3 file, checking that it holds one well-formed index.

    Every check raises ValueError: the checksum, the header, the varint
    column, each substring id against its table, the tree shape the child
    counts give, the edges (their order, their dimension codes, and each
    edge byte against the child's first byte in that dimension), that every
    root-to-leaf path spells a whole key, and that the refs add up to the
    key count.

    The tree comes from the child counts alone (`_shape`).  Each edge
    becomes one (dimension, byte) symbol, its node's dimension code, or
    for a `_MIXED` node its own, over its byte; the checks and `_index`
    read these symbols, as they read a build's.  Each check runs over the
    part of the file where it can fail: only the edges of `_MIXED` nodes
    carry their own dimension codes, so only they are checked to span both
    dimensions (`_check_mixed`); the edge order is one comparison of the
    symbols, set aside at each node's first edge (`_check_order`), and a
    file whose edges follow another order is rejected; and only varints
    longer than a byte are checked for a canonical spelling
    (`_read_varints`).
    The node table and the table offsets are 32-bit when the file is under
    2 GiB, the table is dropped once split into its columns, and the
    root-to-leaf and edge byte checks run in a helper (`_check_keys`) whose
    arrays are gone before the index is built.  For 100,000 keys of width 8 (a 0.86 MiB
    file, 95,567 nodes) opening takes 32.7 ms (min of 40 calls, on a shared
    2-core x86 host), and its tracemalloc peak is 12.7 MiB, against the
    6.0 MiB the index holds."""
    data = bytes(data)
    if data[: len(MAGIC)] != MAGIC:
        raise ValueError("not an index file (bad magic)")
    limit = len(data) - _CRC.size
    if limit < _HEADER.size or _CRC.unpack_from(data, limit)[0] != zlib.crc32(data[:limit]):
        raise ValueError("index file is truncated or corrupted (checksum mismatch)")
    pos = _HEADER.size

    def take(size: int) -> bytes:
        nonlocal pos
        if size > limit - pos:
            raise ValueError("truncated index file")
        pos += size
        return data[pos - size : pos]

    _, scheme_code, width, key_count, n, n_p, n_v, table_bytes = _HEADER.unpack_from(data)
    scheme = _SCHEME_FROM_CODE.get(scheme_code)
    if scheme is None:
        raise ValueError("unknown scheme code in index file")
    if width not in VALUE_WIDTHS:
        raise ValueError(f"unsupported value width {width} in index file")
    ctx = None
    if scheme == "zo":
        max_labels, n_labels, label_bytes = _ZO_HEADER.unpack(take(_ZO_HEADER.size))
        labels = take(label_bytes).decode("ascii").split("/") if n_labels else []
        codes = {label: i + 1 for i, label in enumerate(labels)}
        if len(codes) != n_labels or (not n_labels and label_bytes):
            raise ValueError("bad z-order label dictionary in index file")
        ctx = ZoContext(codes=codes, max_labels=max_labels)
    if not n:
        raise ValueError("index file holds no nodes")
    dims = np.frombuffer(take(n), np.uint8)
    table = _read_varints(take(table_bytes), n_p + n_v + 3 * n)
    if table.max() > len(data):
        raise ValueError("node table out of range in index file")
    table = table.astype(np.int32 if len(data) < 2**31 else np.int64)
    p_size, v_size = table[:n_p].copy(), table[n_p : n_p + n_v].copy()  # of each table entry
    p_id, v_id, count = map(np.ascontiguousarray, table[n_p + n_v :].reshape(n, 3).T)
    del table
    if (p_id >= n_p).any() or (v_id >= n_v).any():
        raise ValueError("substring id past the end of its table in index file")
    if dims.max() > _MIXED:
        raise ValueError("bad dimension code in index file")
    leaf = dims == _BOT
    if not count[~leaf].all():
        raise ValueError("inner node without children")
    arity = count * ~leaf  # products of masks: np.where took ten times as long
    refcount = count * leaf
    del count
    shape = _shape(arity)
    ebyte = np.frombuffer(take(n - 1), np.uint8)  # read before the mixed section, which follows it
    edim = np.repeat(dims, arity)
    mixed = dims == _MIXED
    if mixed.any():  # only these nodes' edges carry their own dimension codes
        on = np.repeat(mixed, arity)
        edim[on] = np.frombuffer(take(int(on.sum())), np.uint8)
        _check_mixed(edim[on], arity[mixed])
    del arity
    symbol = edim.astype(np.uint16) << 8
    symbol |= ebyte
    _check_order(symbol, shape.estart)
    p_at = pos + np.cumsum(p_size, dtype=p_size.dtype) - p_size  # the offset of each table entry
    take(int(p_size.sum()))
    v_at = pos + np.cumsum(v_size, dtype=v_size.dtype) - v_size
    take(int(v_size.sum()))
    if int(refcount.sum()) != key_count:
        raise ValueError("leaf ref counts do not add up to the key count in index file")
    refs = _read_varints(take(limit - pos), key_count)
    tables = (p_at, p_size, p_id), (v_at, v_size, v_id)
    _check_keys(np.frombuffer(data, np.uint8), tables, shape, leaf, symbol, width, ctx)
    return _index(
        shape,
        (_slices(data, p_at, p_at + p_size), p_id),
        (_slices(data, v_at, v_at + v_size), v_id),
        symbol,
        refcount,
        refs,
        value_width=width,
        scheme=scheme,
        zo_ctx=ctx,
    )


def _check_mixed(codes: np.ndarray, arity: np.ndarray) -> None:
    """The edges of the `_MIXED` nodes, whose child counts are `arity` and
    whose edges' dimension codes are `codes`, carry codes of P or V, and
    each node's span both: its least code is not its greatest."""
    start = np.cumsum(arity) - arity
    if codes.max() > _V or (np.minimum.reduceat(codes, start) == np.maximum.reduceat(codes, start)).any():
        raise ValueError("bad child edge in index file")


def _check_order(symbol: np.ndarray, estart: np.ndarray) -> None:
    """Each node's edge symbols strictly ascend, by dimension code, then
    byte: the order the builder gives them, which `_index` needs."""
    n = len(estart) - 1
    later = np.empty(n, bool)  # edge e sorts after edge e - 1, or is its node's first
    np.greater(symbol[1:], symbol[:-1], out=later[1:-1])
    later[estart[:-1]] = True  # a leaf's start is the next node's, or n - 1
    if not later[:-1].all():
        raise ValueError("child edges out of order in index file")


def _check_keys(raw, tables, shape: _Shape, leaf, symbol, width: int, ctx) -> None:
    """Each root-to-leaf path spells one whole key, and each edge symbol's
    byte is the first byte of the child's substring in the symbol's
    dimension.  `tables` holds the (offset, size, node ids) of the path
    table and of the value table."""
    (p_at, p_size, p_id), (v_at, v_size, v_id) = tables
    len_p, len_v = p_size[p_id], v_size[v_id]
    v_down = _down(len_v, shape.end)
    if ctx is None:
        ends = ((p_size > 0) & (raw[p_at + p_size - 1] == PATH_TERMINATOR))[p_id]
        ended = _down(ends, shape.end)
        if ((len_p > 0) & (ended > ends)).any():
            raise ValueError("path bytes after the terminator in index file")
        path_done = ended > 0
        too_long = v_down > width
    else:
        p_down = _down(len_p, shape.end)
        path_done = p_down == ctx.path_width
        too_long = (v_down > width) | (p_down > ctx.path_width)
    if too_long.any():
        raise ValueError("key longer than the index width in index file")
    if (leaf & ((v_down != width) | ~path_done)).any():
        raise ValueError("leaf does not end its key in index file")
    child = shape.echild
    p_head, v_head = _heads(raw, p_at, p_size)[p_id[child]], _heads(raw, v_at, v_size)[v_id[child]]
    if (np.where(symbol < _V_SYMBOL, p_head, v_head) != symbol & 0xFF).any():
        raise ValueError("edge byte is not the child's first byte in index file")


def _heads(raw: np.ndarray, at: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The first byte of each table entry, -1 for an empty one."""
    head = np.full(len(at), -1, np.int16)
    some = size > 0
    head[some] = raw[at[some]]
    return head


def save(index: RcasIndex, path: str) -> None:
    data = save_bytes(index)  # before opening, so that a failure leaves no file
    with open(path, "wb") as fh:
        fh.write(data)


def load(path: str) -> RcasIndex:
    with open(path, "rb") as fh:
        return load_bytes(fh.read())
