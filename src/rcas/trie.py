"""Trie index over interleaved composite keys.

Bulk loading partitions the key set at its discriminative bytes, alternating
between the value and path dimensions; each partition becomes one node
carrying the path/value substrings consumed since the parent's
discriminative bytes.  The same node structure stores the keys produced by
the static interleavings, so one query evaluator serves all schemes.

One partitioner (`_partition`) builds every scheme: MSD radix partitioning
over numpy arrays, one trie level at a time, for all open partitions at
once.  The dynamic scheme hands it two sequences per key (path and value),
a static scheme one (its tagged string).  Builds, saves and loads keep no
recursion, so the depth of a trie is not bounded by the interpreter's
recursion limit.

Indexes are immutable once built: there is no insert or delete path, and any
number of readers may traverse a built index concurrently.
"""

from __future__ import annotations

import mmap
import struct
from collections import deque
from dataclasses import dataclass, field
from itertools import compress
from operator import not_
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .interleave import STATIC_SCHEMES, ZoContext, static_interleave
from .keys import _DIM_CODE, _DIM_FROM_CODE, PATH_TERMINATOR, VALUE_WIDTHS, CompositeKey, Dimension

SCHEMES = ("rcas",) + STATIC_SCHEMES

NODE_KINDS = (4, 16, 48, 256)

MAGIC = b"RCAS1"


class Node:
    """One trie node: substrings, split dimension, and children or refs.

    Children are edges keyed by (dimension, byte), sorted by byte; the edge
    byte is also the first byte of the child's substring in that dimension.
    Nodes built from the dynamic interleaving always branch in a single
    dimension, but the label-wise static scheme can legally produce sibling
    edges from both dimensions after a shared prefix.  `mixed` is True when
    some edge branches in a dimension other than `dim`; it is set where the
    edges are made, and tells the query evaluator to test every edge.
    """

    __slots__ = ("s_p", "s_v", "dim", "children", "refs", "mixed")

    def __init__(
        self,
        s_p: bytes,
        s_v: bytes,
        dim: Dimension,
        children: list[tuple[Dimension, int, "Node"]],
        refs: list[int] | None,
        mixed: bool = False,
    ):
        self.s_p = s_p
        self.s_v = s_v
        self.dim = dim
        self.children = children
        self.refs = refs
        self.mixed = mixed

    @property
    def is_leaf(self) -> bool:
        return self.dim is Dimension.BOT

    def child(self, dim: Dimension, byte: int) -> "Node | None":
        for d, b, node in self.children:
            if d is dim and b == byte:
                return node
        return None

    def walk(self, depth: int = 0) -> Iterator[tuple[int, "Node"]]:
        """(depth, node) pairs of this subtree in pre-order.

        Iterative, so the cost is linear in the node count and the depth is
        not bounded by the interpreter's recursion limit.
        """
        stack = [(depth, self)]
        while stack:
            depth, node = stack.pop()
            yield depth, node
            depth += 1
            for _, _, c in reversed(node.children):
                stack.append((depth, c))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "leaf" if self.is_leaf else f"inner/{self.dim.value}"
        return f"<Node {kind} s_p={self.s_p!r} s_v={self.s_v!r} children={len(self.children)}>"


@dataclass
class BuildStats:
    """Instrumentation counters for one bulk load.

    `byte_scans` counts the byte positions consumed while locating
    discriminative bytes (each position of each distinct key is consumed by
    exactly one node, so the total is bounded by the summed key lengths).
    `moves` counts physical (key, ref) moves into partition slots, one per
    ingested pair per inner node on its root-to-leaf path.
    """

    byte_scans: int = 0
    moves: int = 0


@dataclass
class RcasIndex:
    root: Node
    value_width: int
    key_count: int
    scheme: str = "rcas"
    zo_ctx: ZoContext | None = None
    build_stats: BuildStats = field(default_factory=BuildStats)

    def nodes(self) -> Iterator[tuple[int, Node]]:
        return self.root.walk()


def node_kind_for(child_count: int) -> int:
    """Smallest physical node capacity holding the given number of children."""
    if child_count < 1:
        raise ValueError("nodes hold at least one child")
    for kind in NODE_KINDS:
        if child_count <= kind:
            return kind
    raise ValueError("more than 256 children cannot be stored")


def _aggregate(
    keys: Sequence[CompositeKey], value_width: int | None
) -> tuple[list[tuple[bytes, bytes]], list[list[int]], int, _Seqs]:
    """Collapse duplicate keys: the distinct (path, value) pairs in order of
    first occurrence, the refs of each in input order, and the value width.
    The pairs' paths also come back as sequences, checked to end in their
    only NUL byte, so that they are prefix-free, as the partitioner needs."""
    if not keys:
        raise ValueError("cannot build an index over an empty key set")
    width = value_width if value_width is not None else len(keys[0].value)
    agg: dict[tuple[bytes, bytes], list[int]] = {}
    for k in keys:
        pair = (k.path, k.value)
        refs = agg.get(pair)
        if refs is None:
            agg[pair] = [k.ref]
        else:
            refs.append(k.ref)
    for _, v in agg:
        if len(v) != width:
            raise ValueError(f"key value width {len(v)} does not match index width {width}")
    paths = _Seqs.of([p for p, _ in agg])
    nuls = len(paths.blob) - np.count_nonzero(paths.data)  # the padding is NUL too
    last = paths.data[paths.start + paths.size - 1]
    if nuls != len(agg) + _WINDOW_MAX or not paths.size.all() or last.any():
        raise ValueError("key paths must end in their only NUL byte")
    return list(agg), list(agg.values()), width, paths


# --- the partitioner --------------------------------------------------------

_WINDOW_MAX = 1024  # most symbols one row compares per round
_WINDOW_CELLS = 1 << 17  # most (row, symbol) cells one round compares


class _Seqs(NamedTuple):
    """One symbol sequence per distinct key, joined into one blob.

    Sequences are read a window of symbols at a time at per-row offsets, so
    a long sequence costs only its own length, never a padded row for every
    key.  `_WINDOW_MAX` zero symbols after the last sequence keep every
    window inside the blob.  Node substrings are sliced from the blob.

    The blob is an anonymous memory map: it comes zero-filled, so the
    padding costs nothing, and it goes back to the system when released,
    so a build leaves no blob-sized hole in the allocator's heap.
    """

    blob: mmap.mmap
    data: np.ndarray  # the blob's symbols
    start: np.ndarray  # offset of each sequence in `data`
    size: np.ndarray  # length of each sequence

    @classmethod
    def of(cls, parts: list[bytes], dtype: str = "u1") -> "_Seqs":
        unit = np.dtype(dtype).itemsize
        size = np.fromiter(map(len, parts), np.int32, len(parts))
        blob = mmap.mmap(-1, int(size.sum(dtype=np.int64)) + unit * _WINDOW_MAX)
        deque(map(blob.write, parts), maxlen=0)  # writes every part, looping in C
        if unit > 1:
            size //= unit
        start = np.zeros(len(parts), np.int32 if len(blob) < 2**31 else np.int64)
        np.cumsum(size[:-1], out=start[1:])
        return cls(blob, np.frombuffer(blob, dtype), start, size)


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


def _partition(
    seqs: list[_Seqs], refs: list[list[int]], first: int, stats: BuildStats
) -> Iterator[_Level]:
    """Build a trie over distinct keys by MSD radix partitioning, one level
    at a time (Kärkkäinen and Rantala, "Engineering Radix Sort for
    Strings").

    Each key is one symbol sequence per dimension (`seqs`); its `refs`
    count towards `stats.moves`.  A level finds the discriminative position
    of every open partition in every sequence (`_dsc`, resumed at the
    parent's), and branches each one on a sequence: the root on `first`,
    every other node on the sequence after its parent's, or the one after
    that when that sequence is used up.  A stable sort by (partition, symbol
    there) then yields the partitions of the next level; singletons become
    leaves.  The levels are yielded one at a time, so that the caller makes
    a level's nodes before the next level is computed.
    """
    k = len(seqs)
    weight = np.fromiter(map(len, refs), np.int32, len(refs))
    rows = np.arange(len(refs), dtype=np.int32)
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
            stats.moves += int(weight[rows].sum())
        stats.byte_scans += sum(int((h - l).sum()) for h, l in zip(hi, lo))
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


_NODE_DIM = (Dimension.P, Dimension.V, Dimension.BOT)  # by split sequence; -1 is a leaf


def bulk_load(keys: Sequence[CompositeKey], value_width: int | None = None) -> RcasIndex:
    """Build the dynamically interleaved index for a set of composite keys.

    The partitioner (`_partition`) runs over two sequences per distinct
    key, its path and its value, and starts in the value dimension; each
    node then branches in the dimension other than its parent's unless that
    one is used up.  Nodes are made level by level and appended to their
    parent's edges, which arrive in byte order.  Discriminative byte scans
    resume at the parent's positions, and each pair is moved once per level
    of its root-to-leaf path.
    """
    pairs, refs, width, paths = _aggregate(keys, value_width)
    values = _Seqs.of([v for _, v in pairs])
    del pairs
    stats = BuildStats()
    top = Node(b"", b"", Dimension.BOT, [], None)  # collects the root
    prev = [top]
    for level in _partition([paths, values], refs, _DIM_CODE[Dimension.V], stats):
        p0 = paths.start[level.row]
        v0 = values.start[level.row]
        nodes = []
        for par, b, r, pa, pz, va, vz, s in zip(
            level.parent.tolist(),
            level.key.tolist(),
            level.row.tolist(),
            (p0 + level.lo[0]).tolist(),
            (p0 + level.hi[0]).tolist(),
            (v0 + level.lo[1]).tolist(),
            (v0 + level.hi[1]).tolist(),
            level.split.tolist(),
        ):
            leaf_refs = refs[r] if s < 0 else None
            node = Node(paths.blob[pa:pz], values.blob[va:vz], _NODE_DIM[s], [], leaf_refs)
            up = prev[par]
            up.children.append((up.dim, b, node))
            nodes.append(node)
        prev = nodes
    return RcasIndex(
        root=top.children[0][2],
        value_width=width,
        key_count=len(keys),
        scheme="rcas",
        build_stats=stats,
    )


def build_static(
    keys: Sequence[CompositeKey],
    scheme: str,
    ctx: ZoContext | None = None,
    value_width: int | None = None,
) -> RcasIndex:
    """Build a trie over one of the static interleavings (pv, vp, lw, zo).

    The partitioner runs over one sequence per distinct key: its tagged
    string (`interleave.static_interleave`) read as 16-bit little-endian
    symbols, byte * 256 + dimension code, so edges are ordered by byte,
    then by dimension.  A node's first edge sets its dimension, and `mixed`
    marks a node whose edges span both.
    """
    if scheme == "rcas":
        return bulk_load(keys, value_width)
    if scheme not in STATIC_SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    pairs, refs, width, _ = _aggregate(keys, value_width)
    if scheme == "zo" and ctx is None:
        ctx = ZoContext.from_keys(keys)
    tagged = _Seqs.of(
        [static_interleave(CompositeKey(p, v, 0), scheme, ctx) for p, v in pairs], "<u2"
    )
    del pairs
    stats = BuildStats()
    top = Node(b"", b"", Dimension.BOT, [], None)  # collects the root
    prev = [top]
    for level in _partition([tagged], refs, 0, stats):
        t0 = 2 * tagged.start[level.row]
        nodes = []
        for par, code, b, r, ta, tz, s in zip(
            level.parent.tolist(),
            (level.key & 0xFF).tolist(),
            (level.key >> 8).tolist(),
            level.row.tolist(),
            (t0 + 2 * level.lo[0]).tolist(),
            (t0 + 2 * level.hi[0]).tolist(),
            level.split.tolist(),
        ):
            s_p, s_v = _untag(tagged.blob[ta:tz])
            # an inner node's dimension is set by its first edge, below
            node = Node(s_p, s_v, Dimension.BOT, [], refs[r] if s < 0 else None)
            up = prev[par]
            dim = _NODE_DIM[code]
            if not up.children:
                up.dim = dim
            elif dim is not up.dim:
                up.mixed = True
            up.children.append((dim, b, node))
            nodes.append(node)
        prev = nodes
    return RcasIndex(
        root=top.children[0][2],
        value_width=width,
        key_count=len(keys),
        scheme=scheme,
        zo_ctx=ctx if scheme == "zo" else None,
        build_stats=stats,
    )


_P_TAG = _DIM_CODE[Dimension.P]
_V_TAG = _DIM_CODE[Dimension.V]


def _untag(seg: bytes) -> tuple[bytes, bytes]:
    """The path and the value bytes of a tagged segment."""
    codes = seg[0::2]
    # a plain slice returns the interpreter's shared object for one byte
    data = seg[1::2] if len(seg) > 2 else seg[1:]
    if _V_TAG not in codes:
        return data, b""
    if _P_TAG not in codes:
        return b"", data
    # the codes are 0 for P and 1 for V, so a code selects a value byte
    return bytes(compress(data, map(not_, codes))), bytes(compress(data, codes))


# --- structural statistics --------------------------------------------------

_HEADER_BYTES = 16
_POINTER_BYTES = 8


@dataclass
class IndexStats:
    node_count: int
    leaf_count: int
    depth_histogram: dict[int, int]
    avg_node_depth: float
    avg_leaf_depth: float
    kind_dim_counts: dict[tuple[str, str], int]
    size_estimate: int
    key_count: int
    unique_key_count: int


def collect_stats(index: RcasIndex) -> IndexStats:
    """Depth and node-type histograms plus a byte-size estimate."""
    depth_hist: dict[int, int] = {}
    kind_dim: dict[tuple[str, str], int] = {}
    nodes = 0
    leaves = 0
    depth_sum = 0
    leaf_depth_sum = 0
    size = 0
    for depth, node in index.nodes():
        nodes += 1
        depth_sum += depth
        depth_hist[depth] = depth_hist.get(depth, 0) + 1
        size += _HEADER_BYTES + len(node.s_p) + len(node.s_v)
        if node.refs is not None:
            leaves += 1
            leaf_depth_sum += depth
            kind = "leaf"
            size += _POINTER_BYTES * len(node.refs)
        else:
            capacity = node_kind_for(min(len(node.children), 256))
            kind = str(capacity)
            size += capacity * (_POINTER_BYTES + 1)
        key = (kind, node.dim.value)
        kind_dim[key] = kind_dim.get(key, 0) + 1
    return IndexStats(
        node_count=nodes,
        leaf_count=leaves,
        depth_histogram=dict(sorted(depth_hist.items())),
        avg_node_depth=depth_sum / nodes,
        avg_leaf_depth=leaf_depth_sum / leaves,
        kind_dim_counts=dict(sorted(kind_dim.items())),
        size_estimate=size,
        key_count=index.key_count,
        unique_key_count=leaves,
    )


# --- serialization ----------------------------------------------------------

_SCHEME_CODE = {s: i for i, s in enumerate(SCHEMES)}
_SCHEME_FROM_CODE = {i: s for s, i in _SCHEME_CODE.items()}


def _kind_code(child_count: int) -> int:
    """Kind byte of an inner record: 1..4 for the capacity class 4/16/48/256
    of its child count (a leaf's kind byte is 0).  A label-wise node can
    hold up to 512 edges, one per byte in each dimension; those over 256
    share the largest class."""
    return NODE_KINDS.index(node_kind_for(min(child_count, 256))) + 1


def save_bytes(index: RcasIndex) -> bytes:
    """Serialize an index to the versioned binary format."""
    try:
        return _save_bytes(index)
    except struct.error as exc:
        raise ValueError(
            f"the index does not fit the {MAGIC.decode()} format, which holds substrings and "
            f"labels of at most 65,535 bytes and refs from 0 to 2**64 - 1 ({exc})"
        ) from exc


def _save_bytes(index: RcasIndex) -> bytes:
    out = bytearray()
    out += MAGIC
    out.append(_SCHEME_CODE[index.scheme])
    out.append(index.value_width)
    out += struct.pack(">Q", index.key_count)
    if index.scheme == "zo":
        ctx = index.zo_ctx
        assert ctx is not None
        out += struct.pack(">HI", ctx.max_labels, len(ctx.codes))
        for label in ctx.codes:  # insertion order == code order
            raw = label.encode("ascii")
            out += struct.pack(">H", len(raw))
            out += raw
    # node records in pre-order, from a stack of (dim, byte, node) edges
    stack = [(None, None, index.root)]
    while stack:
        node = stack.pop()[2]
        refs = node.refs
        out.append(0 if refs is not None else _kind_code(len(node.children)))
        out.append(_DIM_CODE[node.dim])
        out += struct.pack(">H", len(node.s_p))
        out += node.s_p
        out += struct.pack(">H", len(node.s_v))
        out += node.s_v
        if refs is not None:
            out += struct.pack(">H", 0)
            out += struct.pack(">I", len(refs))
            for r in refs:
                out += struct.pack(">Q", r)
        else:
            out += struct.pack(">H", len(node.children))
            for d, b, _ in node.children:
                out.append(_DIM_CODE[d])
                out.append(b)
            stack += node.children[::-1]
    return bytes(out)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ValueError("truncated index file")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def unpack(self, fmt: str):
        size = struct.calcsize(fmt)
        return struct.unpack(fmt, self.take(size))


def _grow(task, expand: Callable) -> Node:
    """Build a tree top-down, in pre-order, over an explicit stack.

    `expand(task)` returns a node whose children list is still empty, and
    its edges as (dim, byte, task) triples in edge order.  The node built
    from each edge's task becomes that edge's child.
    """
    top: list = []
    stack = [(top, None, None, task)]
    while stack:
        siblings, dim, b, task = stack.pop()
        node, edges = expand(task)
        siblings.append((dim, b, node))
        # pushed last to first, so that children are built in edge order
        stack += [(node.children, *edge) for edge in reversed(edges)]
    return top[0][2]


def load_bytes(data: bytes) -> RcasIndex:
    r = _Reader(data)
    if r.take(len(MAGIC)) != MAGIC:
        raise ValueError("not an index file (bad magic)")
    scheme = _SCHEME_FROM_CODE.get(r.u8())
    if scheme is None:
        raise ValueError("unknown scheme code in index file")
    width = r.u8()
    if width not in VALUE_WIDTHS:
        raise ValueError(f"unsupported value width {width} in index file")
    (key_count,) = r.unpack(">Q")
    ctx = None
    if scheme == "zo":
        max_labels, n_codes = r.unpack(">HI")
        codes: dict[str, int] = {}
        for i in range(n_codes):
            (n,) = r.unpack(">H")
            codes[r.take(n).decode("ascii")] = i + 1
        ctx = ZoContext(codes=codes, max_labels=max_labels)
    path_width = ctx.path_width if ctx is not None else None
    root = _grow((0, 0, None), lambda consumed: _read_node(r, consumed, width, path_width))
    if r.pos != len(data):
        raise ValueError("trailing bytes after index payload")
    return RcasIndex(root=root, value_width=width, key_count=key_count, scheme=scheme, zo_ctx=ctx)


def _read_node(
    r: _Reader, consumed: tuple, width: int, path_width: int | None
) -> tuple[Node, list]:
    """The next node record; the records of its children follow it.

    `consumed` is what the ancestors spelled: value bytes, path bytes and
    the last path byte (None before the first).  A key ends at a leaf after
    exactly `width` value bytes, and after its path's NUL terminator, or
    after `path_width` bytes of a z-order surrogate path.
    """
    kind_code = r.u8()
    dim = _DIM_FROM_CODE.get(r.u8())
    if dim is None or (kind_code == 0) != (dim is Dimension.BOT):
        raise ValueError("bad dimension code in index file")
    (n_p,) = r.unpack(">H")
    s_p = r.take(n_p)
    (n_v,) = r.unpack(">H")
    s_v = r.take(n_v)
    (n_children,) = r.unpack(">H")
    v_len, p_len, p_end = consumed
    v_len += n_v
    if n_p:
        if p_end == PATH_TERMINATOR and path_width is None:
            raise ValueError("path bytes after the terminator in index file")
        p_len += n_p
        p_end = s_p[-1]
    if v_len > width or (path_width is not None and p_len > path_width):
        raise ValueError("key longer than the index width in index file")
    if kind_code == 0:
        if n_children:
            raise ValueError("leaf node with children")
        path_done = p_end == PATH_TERMINATOR if path_width is None else p_len == path_width
        if v_len != width or not path_done:
            raise ValueError("leaf does not end its key in index file")
        (n_refs,) = r.unpack(">I")
        refs = [r.unpack(">Q")[0] for _ in range(n_refs)]
        return Node(s_p, s_v, dim, [], refs), []
    if not n_children:
        raise ValueError("inner node without children")
    if kind_code != _kind_code(n_children):
        raise ValueError("kind byte does not match the child count in index file")
    consumed = (v_len, p_len, p_end)
    edges = []
    mixed = False
    last = -1  # edges ascend by (byte, dim code), which query windows rely on
    for _ in range(n_children):
        code = r.u8()
        d = _DIM_FROM_CODE.get(code)
        b = r.u8()
        if d is None or d is Dimension.BOT:
            raise ValueError("bad child edge in index file")
        if 2 * b + code <= last:
            raise ValueError("child edges out of order in index file")
        last = 2 * b + code
        mixed = mixed or d is not dim
        edges.append((d, b, consumed))
    return Node(s_p, s_v, dim, [], None, mixed), edges


def save(index: RcasIndex, path: str) -> None:
    data = save_bytes(index)  # before opening, so that a failure leaves no file
    with open(path, "wb") as fh:
        fh.write(data)


def load(path: str) -> RcasIndex:
    with open(path, "rb") as fh:
        return load_bytes(fh.read())
