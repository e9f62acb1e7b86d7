"""Definitional oracles for the interleavings.

Discriminative bytes, partitioning, partitioning sequences and interleave
tuples, written straight from their definitions so that tests can check the
production bulk load (`rcas.trie.bulk_load`) against an independent
implementation.  Every function here favours the definition over speed:
discriminative bytes are found by comparing one position of all keys at a
time, and a partitioning is a dict from the byte at the split position to
the keys that carry it.  The static interleavings are built one key at a
time, chunk by chunk (`static_tagged`), to check the batch tagger of
`rcas.interleave`.  The query loop is restated over NFA state sets and a
(pos, lopen, hopen) range state (`run_query_sets`), to check the integer
states of `rcas.query.run_query`.  Records become keys one at a time
(`record_keys`), to check the columnar `rcas.dataset.records_to_keys`, and
a query is answered one key at a time (`scan_keys`), to check the columnar
`rcas.query.scan`.  A tree's subtree ends and child lists are read off its
child counts by a stack walk (`tree_shape`), to check the array passes of
`rcas.trie._shape`.  The cost formula is a plain loop over the dimension
vector (`estimate_cost_loop`), to check `rcas.costmodel.estimate_cost`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import Iterable, Sequence

from rcas import query
from rcas.costmodel import CostModelParams
from rcas.dataset import DataError, DatasetRecord
from rcas.interleave import ZoContext
from rcas.keys import _DIM_CODE, CompositeKey, Dimension, decode_value, encode_path, encode_value
from rcas.query import QueryPath, QueryResult, ValueRange
from rcas.trie import NODE_KINDS, RcasIndex

Partition = Sequence[CompositeKey]


def complement(dim: Dimension) -> Dimension:
    """The other key dimension."""
    if dim is Dimension.P:
        return Dimension.V
    if dim is Dimension.V:
        return Dimension.P
    raise ValueError("the leaf marker has no complement")


def dim_bytes(key: CompositeKey, dim: Dimension) -> bytes:
    """The bytes of `key` in dimension `dim`."""
    if dim is Dimension.P:
        return key.path
    if dim is Dimension.V:
        return key.value
    raise ValueError("keys have no leaf dimension")


def node_kind_for(child_count: int) -> int:
    """Smallest physical node capacity holding the given number of children."""
    if child_count < 1:
        raise ValueError("nodes hold at least one child")
    for kind in NODE_KINDS:
        if child_count <= kind:
            return kind
    raise ValueError("more than 256 children cannot be stored")


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
        vals = {byte_at(dim_bytes(k, dim), m) for k in keys}
        if len(vals) > 1:
            return m
        if vals == {None}:
            return len(dim_bytes(keys[0], dim)) + 1
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
    if g > len(dim_bytes(keys[0], dim)):
        return {None: list(keys)}
    groups: dict[int | None, list[CompositeKey]] = {}
    for k in keys:
        groups.setdefault(byte_at(dim_bytes(k, dim), g), []).append(k)
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
        if g > len(dim_bytes(key, dim)):
            other = complement(dim)
            g2 = dsc(part, other)
            if g2 > len(dim_bytes(key, other)):
                out.append((part, Dimension.BOT))
                return out
            dim, g = other, g2
        out.append((part, dim))
        part = psi_partition(part, dim, g)[byte_at(dim_bytes(key, dim), g)]
        dim = complement(dim)


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


# --- static interleavings ----------------------------------------------------

_P = bytes([_DIM_CODE[Dimension.P]])
_V = bytes([_DIM_CODE[Dimension.V]])


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


def surrogate(ctx: ZoContext, path_text: str) -> bytes:
    """The z-order surrogate of a path: its 3-byte label codes, then zero
    codes up to the context's depth."""
    labels = path_text.split("/")[1:]
    if len(labels) > ctx.max_labels:
        raise ValueError(f"path {path_text!r} is deeper than the surrogate context")
    out = bytearray()
    for lab in labels:
        code = ctx.codes.get(lab)
        if code is None:
            raise KeyError(f"label {lab!r} missing from the surrogate dictionary")
        out += code.to_bytes(3, "big")
    out += bytes(3 * (ctx.max_labels - len(labels)))
    return bytes(out)


def static_tagged(key: CompositeKey, scheme: str, ctx: ZoContext | None = None) -> bytes:
    """The tagged byte string of one static scheme, two bytes per symbol:
    the dimension code, then the key byte.

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
        spath = surrogate(ctx, key.path_text)
        l_p, l_v = len(spath), len(key.value)
        return _rounds(_chunks(key.value, -(-l_v // l_p)), _chunks(spath, -(-l_p // l_v)))
    raise ValueError(f"unknown static scheme {scheme!r}")


# --- the query loop over NFA state sets --------------------------------------


def feed_range(
    low: bytes, high: bytes, pos: int, lopen: bool, hopen: bool, data: bytes
) -> tuple[int, bool, bool, bool] | None:
    """Advance the closed-range check [low, high] over the value bytes
    `data` from byte position `pos`; None once the prefix leaves the range,
    otherwise (pos, lopen, hopen, matched).  While `lopen` is False the
    bytes so far equal the low bound's prefix; `hopen` mirrors it for the
    high bound.  Matched means both bounds are open or the width is used up.
    """
    for b in data:
        if not lopen:
            if b < low[pos]:
                return None
            lopen = b > low[pos]
        if not hopen:
            if b > high[pos]:
                return None
            hopen = b < high[pos]
        pos += 1
    return pos, lopen, hopen, pos == len(low) or (lopen and hopen)


def _step(nfa, states: frozenset, b: int) -> frozenset:
    return frozenset(t for s in states for cls, t in nfa.edges[s] if b in cls)


def _feed_path(nfa, states: frozenset, consumed: int, data: bytes):
    """The NFA's states after `data`, which follows the first `consumed`
    path bytes: None on a dead end, otherwise (states, consumed, matched)."""
    for b in data:
        states = _step(nfa, states, b)
        if not states:
            return None
    consumed += len(data)
    if nfa.width and consumed >= nfa.width:
        return (states, consumed, True) if states & nfa.accepts else None
    return states, consumed, bool(states & nfa.universal)


def run_query_sets(
    index: RcasIndex, qpath: QueryPath, vrange: ValueRange, trace: list | None = None
) -> QueryResult:
    """`run_query` with the state of each check spelled out: the node, then
    (pos, lopen, hopen, matched) of the range and (NFA state set, consumed,
    matched) of the path.  Every query shape runs on the NFA, whose state
    sets are stepped a byte at a time, with no DFA, memo or literal.  An
    inner node's edges are tested one by one, each by its own dimension:
    those before `index.esplit[i]` are path edges, stepped in the NFA, and
    the others value edges, kept in the byte window the range admits.
    """
    ctx = index.zo_ctx if index.scheme == "zo" else None
    nfa = query._automaton(qpath, ctx)
    low, high = vrange.low, vrange.high
    P, V = _DIM_CODE[Dimension.P], _DIM_CODE[Dimension.V]
    refs: list[int] = []
    visited = 0
    stack = [(0, (0, False, False, False), (frozenset({0}), 0, False))]
    while stack:
        i, vstate, pstate = stack.pop()
        visited += 1
        if trace is not None:
            trace.append(i)
        if not vstate[3]:
            vstate = feed_range(low, high, *vstate[:3], index.s_v[i])
            if vstate is None:
                continue
        if not pstate[2]:
            pstate = _feed_path(nfa, *pstate[:2], index.s_p[i])
            if pstate is None:
                continue
        if vstate[3] and pstate[2]:
            e = index.end[i]
            refs += index.refs[index.reflo[i] : index.reflo[e]]
            visited += e - i - 1
            if trace is not None:
                trace += range(i + 1, e)
            continue
        pos, lopen, hopen, vmatched = vstate
        admitted = []
        for e in range(index.estart[i], index.estart[i + 1]):
            b = index.ebyte[e]
            d = P if e < index.esplit[i] else V
            if d == V and not vmatched:
                if (not lopen and b < low[pos]) or (not hopen and b > high[pos]):
                    continue
            elif d == P and not pstate[2] and not _step(nfa, pstate[0], b):
                continue
            admitted.append(index.echild[e])
        stack += [(c, vstate, pstate) for c in reversed(admitted)]
    return QueryResult(refs=refs, visited=visited)


def record_keys(records: Sequence[DatasetRecord], width: int = 4) -> list[CompositeKey]:
    """One key per record, in order, each encoded on its own; DataError for
    the first record whose path or value cannot be encoded."""
    keys = []
    for rec in records:
        try:
            path = encode_path(rec.path)
        except ValueError as exc:
            raise DataError(str(exc)) from exc
        try:
            value = encode_value(rec.value, width)
        except OverflowError as exc:
            raise DataError(f"value {rec.value} does not fit width {width}") from exc
        keys.append(CompositeKey(path, value, rec.ref))
    return keys


def scan_keys(keys: Iterable[CompositeKey], qpath: QueryPath, vrange: ValueRange) -> list[int]:
    """The refs of the keys whose value lies in `vrange` and whose path
    `query.path_matches` accepts, one key at a time, in key order."""
    low = decode_value(vrange.low)
    high = decode_value(vrange.high)
    return [
        k.ref for k in keys if low <= k.value_int <= high and query.path_matches(qpath, k.path_text)
    ]


def tree_shape(arity: Sequence[int]) -> tuple[list[int], list[int], list[int]]:
    """The subtree ends, the children (grouped by parent, parents in
    pre-order) and each node's first edge, of the tree whose nodes have the
    child counts `arity` in pre-order, by walking the nodes with a stack of
    (node, children still to come); ValueError, with `_shape`'s message,
    when the counts do not form one tree."""
    end = [0] * len(arity)
    children: list[list[int]] = [[] for _ in arity]
    stack: list[list[int]] = []
    for i, count in enumerate(arity):
        if i and not stack:  # the tree ended before this node
            raise ValueError("the child counts do not form a tree in index file")
        if stack:
            children[stack[-1][0]].append(i)
            stack[-1][1] -= 1
        stack.append([i, count])
        while stack and not stack[-1][1]:
            end[stack.pop()[0]] = i + 1
    if stack or not arity:  # children still to come, or no root
        raise ValueError("the child counts do not form a tree in index file")
    estart = [0]
    for count in arity:
        estart.append(estart[-1] + count)
    return end, [c for kids in children for c in kids], estart


def estimate_cost_loop(params: CostModelParams, include_root: bool = True) -> float:
    """C = 1 + sum_l prod_{i<=l} o * sigma_{phi_i}, one level at a time."""
    total = 1.0 if include_root else 0.0
    level = 1.0
    for d in params.dims:
        sel = params.sel_value if d is Dimension.V else params.sel_path
        level *= params.fanout * sel
        total += level
    return total
