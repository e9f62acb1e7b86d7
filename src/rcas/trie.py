"""Trie index over interleaved composite keys.

Bulk loading partitions the key set at its discriminative bytes, alternating
between the value and path dimensions; each partition becomes one node
carrying the path/value substrings consumed since the parent's
discriminative bytes.  The same node structure stores the keys produced by
the static interleavings, so one query evaluator serves all schemes.  Builds,
saves and loads run over explicit stacks, so the depth of a trie is not
bounded by the interpreter's recursion limit.

Indexes are immutable once built: there is no insert or delete path, and any
number of readers may traverse a built index concurrently.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from .interleave import STATIC_SCHEMES, ZoContext, static_interleave
from .keys import _DIM_CODE, _DIM_FROM_CODE, CompositeKey, Dimension

SCHEMES = ("rcas",) + STATIC_SCHEMES

NODE_KINDS = (4, 16, 48, 256)

MAGIC = b"RCAS1"

_P_CODE = _DIM_CODE[Dimension.P]


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


def _aggregate(keys: Sequence[CompositeKey], value_width: int | None) -> tuple[list, int]:
    """Collapse duplicate (path, value) pairs, keeping refs in input order."""
    if not keys:
        raise ValueError("cannot build an index over an empty key set")
    width = value_width if value_width is not None else len(keys[0].value)
    agg: dict[tuple[bytes, bytes], list[int]] = {}
    for k in keys:
        if len(k.value) != width:
            raise ValueError(
                f"key value width {len(k.value)} does not match index width {width}"
            )
        agg.setdefault((k.path, k.value), []).append(k.ref)
    items = [(p, v, refs) for (p, v), refs in agg.items()]
    return items, width


def bulk_load(keys: Sequence[CompositeKey], value_width: int | None = None) -> RcasIndex:
    """Build the dynamically interleaved index for a set of composite keys.

    Runs in time linear in the total number of key bytes: discriminative
    byte scans resume at the parent's positions, and each pair is moved once
    per level of its root-to-leaf path.
    """
    items, width = _aggregate(keys, value_width)
    stats = BuildStats()
    root = _grow((items, Dimension.V, 1, 1), lambda task: _split_dynamic(task, stats))
    return RcasIndex(
        root=root,
        value_width=width,
        key_count=len(keys),
        scheme="rcas",
        build_stats=stats,
    )


def _first_mismatch(a: bytes, b: bytes) -> int:
    """0-based index of the first differing byte; min length if one is a prefix."""
    n = min(len(a), len(b))
    if a[:n] == b[:n]:
        return n
    for i in range(n):
        if a[i] != b[i]:
            return i
    return n


def _dsc_bytes(seqs: Iterable[bytes], ref: bytes, g: int) -> int:
    """First position >= g (1-based) where not all sequences equal `ref`.

    This is the discriminative byte of the set `seqs` + `ref`, resumed at a
    known lower bound g.  Returns len(ref)+1 when the sequences agree on
    every position of `ref`.  Prefix-free inputs guarantee that a shorter
    sequence differs from `ref` within ref's extent, so scanning ref's
    positions is sufficient.
    """
    limit = len(ref) + 1
    if g >= limit:
        return g
    best = limit
    lo = g - 1
    for s in seqs:
        if s is ref:
            continue
        window = best - g
        a = ref[lo : lo + window]
        b = s[lo : lo + window]
        if a == b:
            continue
        best = g + _first_mismatch(a, b)
        if best == g:
            break
    return best


def _dsc_items(items: list, fi: int, g: int) -> int:
    ref = items[0][fi]
    return _dsc_bytes((it[fi] for it in items[1:]), ref, g)


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


def _split_dynamic(task: tuple, stats: BuildStats) -> tuple[Node, list]:
    items, dim, g_p, g_v = task
    p0, v0, refs0 = items[0]
    gp2 = _dsc_items(items, 0, g_p)
    gv2 = _dsc_items(items, 1, g_v)
    stats.byte_scans += (gp2 - g_p) + (gv2 - g_v)
    s_p = p0[g_p - 1 : gp2 - 1]
    s_v = v0[g_v - 1 : gv2 - 1]

    if gp2 > len(p0) and gv2 > len(v0):
        assert len(items) == 1, "leaf partitions hold exactly one distinct key"
        return Node(s_p, s_v, Dimension.BOT, [], list(refs0)), []

    if dim is Dimension.P:
        if gp2 > len(p0):
            dim = Dimension.V
    else:
        if gv2 > len(v0):
            dim = Dimension.P
    g = gp2 if dim is Dimension.P else gv2
    fi = 0 if dim is Dimension.P else 1

    groups: dict[int, list] = {}
    for it in items:
        b = it[fi][g - 1]
        grp = groups.get(b)
        if grp is None:
            groups[b] = [it]
        else:
            grp.append(it)
    stats.moves += sum(len(it[2]) for it in items)

    other = dim.complement()
    edges = [(dim, b, (groups[b], other, gp2, gv2)) for b in sorted(groups)]
    return Node(s_p, s_v, dim, [], None), edges


def build_static(
    keys: Sequence[CompositeKey],
    scheme: str,
    ctx: ZoContext | None = None,
    value_width: int | None = None,
) -> RcasIndex:
    """Build a trie over one of the static interleavings (pv, vp, lw, zo)."""
    if scheme == "rcas":
        return bulk_load(keys, value_width)
    if scheme not in STATIC_SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    items, width = _aggregate(keys, value_width)
    if scheme == "zo" and ctx is None:
        ctx = ZoContext.from_keys(keys)
    tagged = [(static_interleave(CompositeKey(p, v, 0), scheme, ctx), refs) for p, v, refs in items]
    stats = BuildStats()
    root = _grow((tagged, 0), lambda task: _split_flat(task, stats))
    return RcasIndex(
        root=root,
        value_width=width,
        key_count=len(keys),
        scheme=scheme,
        zo_ctx=ctx if scheme == "zo" else None,
        build_stats=stats,
    )


def _split_flat(task: tuple, stats: BuildStats) -> tuple[Node, list]:
    """Split tagged strings (see `interleave.static_interleave`) at their
    first differing symbol; edges are ordered by byte, then by dimension."""
    items, start_sym = task
    tagged0 = items[0][0]
    m = _dsc_bytes((it[0] for it in items[1:]), tagged0, 2 * start_sym + 1)
    end_sym = (m - 1) // 2
    stats.byte_scans += end_sym - start_sym

    seg = tagged0[2 * start_sym : 2 * end_sym]
    syms = list(zip(seg[0::2], seg[1::2]))
    s_p = bytes(b for code, b in syms if code == _P_CODE)
    s_v = bytes(b for code, b in syms if code != _P_CODE)

    if m > len(tagged0):
        assert len(items) == 1
        return Node(s_p, s_v, Dimension.BOT, [], list(items[0][1])), []

    groups: dict[tuple[int, int], list] = {}
    for it in items:
        sym = (it[0][2 * end_sym + 1], it[0][2 * end_sym])
        groups.setdefault(sym, []).append(it)
    stats.moves += sum(len(it[1]) for it in items)

    edges = [(_DIM_FROM_CODE[code], b, (groups[(b, code)], end_sym)) for b, code in sorted(groups)]
    dim = edges[0][0]
    return Node(s_p, s_v, dim, [], None, any(d is not dim for d, _, _ in edges)), edges


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


def load_bytes(data: bytes) -> RcasIndex:
    r = _Reader(data)
    if r.take(len(MAGIC)) != MAGIC:
        raise ValueError("not an index file (bad magic)")
    scheme = _SCHEME_FROM_CODE.get(r.u8())
    if scheme is None:
        raise ValueError("unknown scheme code in index file")
    width = r.u8()
    (key_count,) = r.unpack(">Q")
    ctx = None
    if scheme == "zo":
        max_labels, n_codes = r.unpack(">HI")
        codes: dict[str, int] = {}
        for i in range(n_codes):
            (n,) = r.unpack(">H")
            codes[r.take(n).decode("ascii")] = i + 1
        ctx = ZoContext(codes=codes, max_labels=max_labels)
    root = _grow(r, _read_node)
    if r.pos != len(data):
        raise ValueError("trailing bytes after index payload")
    return RcasIndex(root=root, value_width=width, key_count=key_count, scheme=scheme, zo_ctx=ctx)


def _read_node(r: _Reader) -> tuple[Node, list]:
    """The next node record; the records of its children follow it."""
    kind_code = r.u8()
    dim = _DIM_FROM_CODE.get(r.u8())
    if dim is None or (kind_code == 0) != (dim is Dimension.BOT):
        raise ValueError("bad dimension code in index file")
    (n_p,) = r.unpack(">H")
    s_p = r.take(n_p)
    (n_v,) = r.unpack(">H")
    s_v = r.take(n_v)
    (n_children,) = r.unpack(">H")
    if kind_code == 0:
        if n_children:
            raise ValueError("leaf node with children")
        (n_refs,) = r.unpack(">I")
        refs = [r.unpack(">Q")[0] for _ in range(n_refs)]
        return Node(s_p, s_v, dim, [], refs), []
    if not n_children:
        raise ValueError("inner node without children")
    if kind_code != _kind_code(n_children):
        raise ValueError("kind byte does not match the child count in index file")
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
        edges.append((d, b, r))
    return Node(s_p, s_v, dim, [], None, mixed), edges


def save(index: RcasIndex, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(save_bytes(index))


def load(path: str) -> RcasIndex:
    with open(path, "rb") as fh:
        return load_bytes(fh.read())
