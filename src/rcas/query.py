"""Evaluation of combined path/value queries over a built index.

A query pairs a path predicate (child steps, single-label wildcards, and
descendant-or-self axes) with a closed value range.  Evaluation walks the
trie once, feeding each node's path and value substrings into incremental
matchers.  Either matcher can settle early: a subtree whose value prefix
strictly diverges inside the range matches wholly, a prefix outside the
range prunes the subtree, and likewise for paths.  When both predicates have
matched, the subtree is collected without further checks.

The path check has two matchers behind one interface, chosen by the shape
of the query alone.  An exact query, whose steps are all named child steps
with no trailing ``//``, accepts one path, and compiles to that path as a
literal: its state is the offset reached, and feeding a node substring is
one ``startswith``.  Every other query compiles to one byte-level NFA class,
which generalizes mark-and-backtrack handling of descendant axes to any
number of axes.  Each matcher has two encodings: the ASCII paths of the
rcas, pv, vp and lw indexes, which end at a terminator, and the z-order
index's fixed-width label surrogates, which end by position.  The
evaluation is one loop over an explicit stack, so trie depth is not bounded
by the interpreter's recursion limit.

Per-query work follows what the predicates admit.  A node's children are
sorted by edge byte, so the children that can pass are found by bisecting
to a byte window: the value bounds still closed at a value node, and the
byte hull of the matcher's out-edges at a path node (one byte for a
literal).  A node whose edges span both dimensions (the label-wise scheme
can build one) is scanned whole.  The automaton memoizes the state set each
(state set, node substring) pair reaches, and its step, hull and feed
caches each hold a bounded number of entries, emptied when full.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .keys import (
    _DIM_CODE,
    PATH_TERMINATOR,
    SLASH,
    CompositeKey,
    Dimension,
    decode_value,
    encode_value,
)
from .trie import RcasIndex
from .interleave import ZoContext


class Axis(enum.Enum):
    CHILD = "child"
    DESCENDANT = "descendant"


class Trailing(enum.Enum):
    NONE = "none"
    CHILD = "child"
    DESCENDANT = "descendant"


WILDCARD = "*"


@dataclass(frozen=True)
class Step:
    axis: Axis
    label: str | None  # None is the wildcard

    def matches(self, label: str) -> bool:
        return self.label is None or self.label == label


@dataclass(frozen=True)
class QueryPath:
    steps: tuple[Step, ...]
    trailing: Trailing
    text: str

    def __str__(self) -> str:
        return self.text


class QuerySyntaxError(ValueError):
    pass


def parse_query_path(text: str) -> QueryPath:
    """Tokenize a query path such as ``/bom/item//battery`` or ``/bom/*/car``.

    ``//`` puts the descendant axis on the following step, or stands as a
    trailing descendant-or-self marker.  ``/`` alone is invalid; ``//`` alone
    matches everything.
    """
    if not text:
        raise QuerySyntaxError("empty query path")
    try:
        text.encode("ascii")
    except UnicodeEncodeError as exc:
        raise QuerySyntaxError(f"query path {text!r} is not ASCII") from exc
    if text[0] != "/":
        raise QuerySyntaxError(f"query path {text!r} does not start with '/'")

    # Split at every '/': a run of k slashes before a label leaves k - 1
    # empty parts ahead of it, and a run of k at the end leaves k.
    steps: list[Step] = []
    run = 1
    for label in text.split("/")[1:]:
        if not label:
            run += 1
            continue
        if run > 2:
            raise QuerySyntaxError(f"query path {text!r} contains a '/'-run longer than 2")
        # on ASCII text, exactly the bytes outside PATH_BYTE_MIN..PATH_BYTE_MAX
        if not label.isprintable():
            ch = next(ch for ch in label if not ch.isprintable())
            raise QuerySyntaxError(f"bad character {ch!r} in query label {label!r}")
        axis = Axis.DESCENDANT if run == 2 else Axis.CHILD
        steps.append(Step(axis, None if label == WILDCARD else label))
        run = 1
    if run > 3:
        raise QuerySyntaxError(f"query path {text!r} contains a '/'-run longer than 2")
    trailing = (Trailing.NONE, Trailing.CHILD, Trailing.DESCENDANT)[run - 1]
    if not steps and trailing is not Trailing.DESCENDANT:
        raise QuerySyntaxError("'/' alone is not a valid query path")
    return QueryPath(steps=tuple(steps), trailing=trailing, text=text)


@dataclass(frozen=True)
class ValueRange:
    """Closed interval over encoded values; bounds share the index width."""

    low: bytes
    high: bytes

    def __post_init__(self):
        if len(self.low) != len(self.high):
            raise ValueError("range bounds have different widths")
        if self.low > self.high:
            raise ValueError(
                f"empty range: {decode_value(self.low)} > {decode_value(self.high)}"
            )

    @classmethod
    def closed(cls, low: int, high: int, width: int = 4) -> "ValueRange":
        return cls(encode_value(low, width), encode_value(high, width))

    @property
    def width(self) -> int:
        return len(self.low)


def feed_range(
    low: bytes, high: bytes, pos: int, lopen: bool, hopen: bool, data: bytes
) -> tuple[int, bool, bool, bool] | None:
    """Advance the closed-range check [low, high] over the value bytes `data`.

    The check resumes at byte position `pos` of the bounds.  While `lopen`
    is False the bytes consumed so far equal the low bound's prefix; once a
    byte strictly above the low bound is seen, no completion can fall below
    it.  `hopen` mirrors this for the high bound.  Returns None as soon as
    the prefix leaves the range, otherwise (pos, lopen, hopen, matched),
    where matched means every completion lies in the range: both bounds are
    open, or the full width has been consumed.
    """
    for b in data:
        if not lopen:
            lb = low[pos]
            if b < lb:
                return None
            if b > lb:
                lopen = True
        if not hopen:
            hb = high[pos]
            if b > hb:
                return None
            if b < hb:
                hopen = True
        pos += 1
    return pos, lopen, hopen, pos == len(low) or (lopen and hopen)


# --- declarative path semantics (reference oracle) ---------------------------


def path_matches(qpath: QueryPath, path_text: str) -> bool:
    """Reference matcher over complete paths, by label-level NFA simulation.

    Child steps consume exactly one label; a descendant step consumes zero or
    more labels and then one matching label; trailing descendant allows any
    suffix, otherwise the path must end with the final step.
    """
    labels = path_text.split("/")[1:]
    steps = qpath.steps
    m = len(steps)
    states = {0}
    if qpath.trailing is Trailing.DESCENDANT and m == 0:
        return True
    for label in labels:
        nxt = set()
        for i in states:
            if i == m:
                continue
            step = steps[i]
            if step.matches(label):
                nxt.add(i + 1)
            if step.axis is Axis.DESCENDANT:
                nxt.add(i)
        if qpath.trailing is Trailing.DESCENDANT and m in nxt:
            return True
        states = nxt
        if not states:
            return False
    return m in states


def scan(
    keys: Iterable[CompositeKey], qpath: QueryPath, vrange: ValueRange
) -> list[int]:
    """Brute-force evaluation: check every key against both predicates."""
    low = decode_value(vrange.low)
    high = decode_value(vrange.high)
    out = []
    match_cache: dict[bytes, bool] = {}
    for k in keys:
        if not low <= k.value_int <= high:
            continue
        hit = match_cache.get(k.path)
        if hit is None:
            hit = path_matches(qpath, k.path_text)
            match_cache[k.path] = hit
        if hit:
            out.append(k.ref)
    return out


# --- byte-level path automaton -----------------------------------------------

# The byte classes an automaton edge can admit, each spelled as the bytes in it.
_ANY = bytes(range(256))
_NONZERO = _ANY[1:]
_LABEL = bytes(b for b in _NONZERO if b != SLASH)  # neither '/' nor the terminator
_SINGLE = [bytes((b,)) for b in range(256)]  # the class of exactly one byte
_ZERO = _SINGLE[0]
_SLASH = _SINGLE[SLASH]
_TERMINATOR = _SINGLE[PATH_TERMINATOR]


# Entries each cache of one automaton holds at most.  A full cache is
# emptied before it takes the next entry, so an automaton kept in the
# compiled-query cache stays bounded however many nodes it has been fed.
_STEP_CACHE_MAX = 4096
_HULL_CACHE_MAX = 1024
_FEED_CACHE_MAX = 4096


class _PathAutomaton:
    """NFA over the path bytes of an index, compiled from a query path.

    Every edge admits one byte class: a single byte, a label byte, any byte
    or any non-zero byte.  `step` follows the edges of a state set on one
    byte, and `feed` over a node's whole path substring; both cache their
    results, since siblings share path prefixes and sibling subtrees repeat
    substrings.  `hull` gives the lowest and highest byte any edge out of a
    state set admits.

    `universal` holds the states from which every completion of the path is
    accepted; reaching one matches a whole subtree before its paths end.
    A path completes once `width` bytes have been consumed, and then its
    states must meet `accepts`.
    """

    def __init__(self, width: float):
        self.width = width
        self.start = frozenset({0})
        self.accepts: frozenset[int] = frozenset()
        self.universal: frozenset[int] = frozenset()
        self._edges: list[list[tuple[bytes, int]]] = [[]]
        self._step_cache: dict[tuple[frozenset, int], frozenset] = {}
        self._hull_cache: dict[frozenset, tuple[int, int]] = {}
        self._feed_cache: dict[tuple[frozenset, bytes], frozenset] = {}

    def edge(self, s: int, byte_class: bytes, t: int | None = None) -> int:
        """Add an edge from state `s` to `t`, or to a new state; returns
        the edge's target."""
        if t is None:
            t = len(self._edges)
            self._edges.append([])
        self._edges[s].append((byte_class, t))
        return t

    def chain(self, s: int, classes: list[bytes], end: int | None = None) -> int:
        """Add edges admitting `classes` in turn, from state `s` through new
        states to `end`, or to a new state; returns the last state."""
        for cls in classes[:-1]:
            s = self.edge(s, cls)
        return self.edge(s, classes[-1], end)

    def step(self, states: frozenset, b: int) -> frozenset:
        key = (states, b)
        nxt = self._step_cache.get(key)
        if nxt is None:
            found = []
            for s in states:
                for cls, t in self._edges[s]:
                    if b in cls:
                        found.append(t)
            nxt = frozenset(found)
            _put(self._step_cache, key, nxt, _STEP_CACHE_MAX)
        return nxt

    def hull(self, states: frozenset) -> tuple[int, int]:
        """(lowest, highest) byte that `step` can follow from `states`;
        (256, -1) when no edge leaves them."""
        h = self._hull_cache.get(states)
        if h is None:
            classes = [cls for s in states for cls, _ in self._edges[s]]
            h = (min(map(min, classes)), max(map(max, classes))) if classes else (256, -1)
            _put(self._hull_cache, states, h, _HULL_CACHE_MAX)
        return h

    def feed(self, states: frozenset, consumed: int, data: bytes):
        """Advance over `data`, the path bytes that follow the first
        `consumed` ones.  Returns None on a dead end, otherwise
        (states, consumed, matched).

        Only the state set reached is cached, keyed by (states, data), with
        the empty set for a dead end; completion depends on `consumed` and
        is tested on every call."""
        key = (states, data)
        reached = self._feed_cache.get(key)
        if reached is None:
            reached = states
            for b in data:
                reached = self.step(reached, b)
                if not reached:
                    break
            _put(self._feed_cache, key, reached, _FEED_CACHE_MAX)
        if not reached:
            return None
        states = reached
        consumed += len(data)
        if consumed >= self.width:
            if not states & self.accepts:
                return None
            return states, consumed, True
        return states, consumed, bool(states & self.universal)


def _put(cache: dict, key, value, limit: int) -> None:
    if len(cache) >= limit:
        cache.clear()
    cache[key] = value


@lru_cache(maxsize=256)
def _compile_ascii(qpath: QueryPath) -> _PathAutomaton:
    """Automaton over ASCII paths: '/'-prefixed labels, then the terminator.

    ASCII paths have no fixed width; they end at the terminator.  Only the
    terminator leads into the accept state, and the accept state has no
    out-edges, so after the terminator the state set is the accept state
    alone.  It is universal: the one completion left, the empty one, matches.
    """
    a = _PathAutomaton(width=math.inf)
    cur = 0
    for step in qpath.steps:
        after_slash = a.edge(cur, _SLASH)
        if step.axis is Axis.DESCENDANT:
            skip = a.edge(cur, _SLASH)
            a.edge(skip, _NONZERO, skip)  # labels and slashes
            a.edge(skip, _SLASH, after_slash)
        if step.label is None:
            cur = a.edge(after_slash, _LABEL)
            a.edge(cur, _LABEL, cur)
        else:
            cur = a.chain(after_slash, [_SINGLE[c] for c in step.label.encode("ascii")])
    accept = a.edge(cur, _TERMINATOR)
    universal = {accept}
    if qpath.trailing is Trailing.DESCENDANT:
        # one or more further labels; paths hold no empty label, so the
        # labels and their slashes need not be told apart
        below = a.edge(cur, _SLASH)
        a.edge(below, _NONZERO, below)
        a.edge(below, _TERMINATOR, accept)
        universal.add(below)
    a.accepts = a.universal = frozenset(universal)
    return a


def _compile_zo(qpath: QueryPath, ctx: ZoContext) -> _PathAutomaton:
    """Automaton over z-order surrogate paths.

    Labels are 3-byte codes, and shorter paths are padded with all-zero
    units up to the context's fixed path width.  There is no terminator, so
    a path completes by position, once all of its surrogate bytes are fed.
    """
    a = _PathAutomaton(width=ctx.path_width)
    cur = 0
    for step in qpath.steps:
        if step.axis is Axis.DESCENDANT:
            a.chain(cur, [_ANY, _ANY, _ANY], cur)  # skip any one unit
        if step.label is None:
            # any unit except the all-zero padding
            boundary = a.chain(cur, [_NONZERO, _ANY, _ANY])
            a.chain(cur, [_ZERO, _NONZERO, _ANY], boundary)
            a.chain(cur, [_ZERO, _ZERO, _NONZERO], boundary)
            cur = boundary
        else:
            code = ctx.code_bytes(step.label)
            if code is None:
                return a  # the label is absent from the data: nothing matches
            cur = a.chain(cur, [_SINGLE[c] for c in code])
    if qpath.trailing is Trailing.DESCENDANT:
        u = a.edge(cur, _ANY)
        a.edge(u, _ANY, u)
        a.accepts = a.universal = frozenset({cur, u})
    else:
        pad = a.edge(cur, _ZERO)
        a.edge(pad, _ZERO, pad)
        a.accepts = frozenset({cur, pad})
    return a


class _PathLiteral:
    """Matcher for the one path an exact query accepts: the literal `lit`.

    It keeps the automaton's interface, but a state is the offset into
    `lit` reached so far, so `feed` is one `startswith`, `hull` is the byte
    at the offset and `step` compares with it.  The path matches once the
    offset reaches `final`, which is `len(lit)` unless nothing can match
    (-1).  As in the automaton, a path that completes at `width` bytes
    without matching is a dead end.
    """

    start = 0

    def __init__(self, lit: bytes, width: float, final: int):
        self.lit = lit
        self.width = width
        self.final = final

    def step(self, offset: int, b: int) -> int | None:
        lit = self.lit
        return offset + 1 if offset < len(lit) and lit[offset] == b else None

    def hull(self, offset: int) -> tuple[int, int]:
        if offset < len(self.lit):
            b = self.lit[offset]
            return b, b
        return 256, -1

    def feed(self, offset: int, consumed: int, data: bytes):
        if not self.lit.startswith(data, offset):
            return None
        offset += len(data)
        if offset == self.final:
            return offset, offset, True
        if offset >= self.width:
            return None
        return offset, offset, False


def _compile_literal(qpath: QueryPath, ctx: ZoContext | None) -> _PathLiteral:
    """The literal of an exact query: its encoded path and terminator, or
    with a z-order context `ctx`, its label codes padded with zero units to
    the context's path width.  A label absent from the context leaves the
    codes before it, which no path completes."""
    if ctx is None:
        lit = "".join("/" + step.label for step in qpath.steps).encode("ascii") + _TERMINATOR
        return _PathLiteral(lit, math.inf, len(lit))
    codes = []
    for step in qpath.steps:
        code = ctx.code_bytes(step.label)
        if code is None:
            return _PathLiteral(b"".join(codes), ctx.path_width, -1)
        codes.append(code)
    lit = b"".join(codes).ljust(ctx.path_width, _ZERO)
    return _PathLiteral(lit, ctx.path_width, len(lit))


def _matcher(qpath: QueryPath, ctx: ZoContext | None):
    """The path matcher for `qpath`, chosen by its shape: a literal when
    every step is a named child step and there is no trailing ``//``, the
    automaton otherwise; `ctx` is the z-order context, None for ASCII paths."""
    if qpath.trailing is not Trailing.DESCENDANT and all(
        step.axis is Axis.CHILD and step.label is not None for step in qpath.steps
    ):
        return _compile_literal(qpath, ctx)
    return _compile_ascii(qpath) if ctx is None else _compile_zo(qpath, ctx)


# --- query evaluation over an index ------------------------------------------


@dataclass
class QueryResult:
    refs: list[int]
    visited: int


def run_query(
    index: RcasIndex,
    qpath: QueryPath | str,
    vrange: ValueRange,
    trace: list | None = None,
) -> QueryResult:
    """Evaluate a path+range query; returns matching refs and nodes visited.

    The trie is walked once in pre-order; `trace`, if given, receives the id
    of every visited node in that order.  At an inner node whose predicates
    are not both settled, only the edges in the byte window of the node's
    branching dimension are tested: between the value bounds still closed at
    a value node, which every edge in that window passes, and within the
    byte hull of the path states at a path node, where each edge is stepped.
    A node whose edges span both dimensions has all of its edges tested.
    Path substrings go through the path matcher's feed.  A subtree
    whose predicates have both settled is collected whole: its refs are one
    slice of `index.refs`.
    """
    if isinstance(qpath, str):
        qpath = parse_query_path(qpath)
    if vrange.width != index.value_width:
        raise ValueError(
            f"range width {vrange.width} does not match index width {index.value_width}"
        )
    ctx = None
    if index.scheme == "zo":
        ctx = index.zo_ctx
        assert ctx is not None
    matcher = _matcher(qpath, ctx)
    step = matcher.step
    feed = matcher.feed
    hull = matcher.hull
    low = vrange.low
    high = vrange.high
    dim, end, s_p, s_v = index.dim, index.end, index.s_p, index.s_v
    estart, ebyte, edim, echild = index.estart, index.ebyte, index.edim, index.echild
    all_refs, reflo = index.refs, index.reflo
    P = _DIM_CODE[Dimension.P]
    V = _DIM_CODE[Dimension.V]
    refs: list[int] = []
    visited = 0

    # A node id with the state of both checks on entering it.
    stack = [(0, 0, False, False, False, matcher.start, 0, False)]
    while stack:
        i, vpos, lopen, hopen, vmatched, pstates, consumed, pmatched = stack.pop()
        visited += 1
        if trace is not None:
            trace.append(i)

        if not vmatched:
            fed = feed_range(low, high, vpos, lopen, hopen, s_v[i])
            if fed is None:
                continue
            vpos, lopen, hopen, vmatched = fed

        if not pmatched:
            fed = feed(pstates, consumed, s_p[i])
            if fed is None:
                continue
            pstates, consumed, pmatched = fed

        if vmatched and pmatched:
            # collect the whole subtree, without further checks
            e = end[i]
            refs += all_refs[reflo[i] : reflo[e]]
            visited += e - i - 1
            if trace is not None:
                trace += range(i + 1, e)
            continue

        # Leaf outcomes are always final, so node i is inner.  Its edges
        # are sorted by byte; they are pushed last to first, so that the
        # children are visited in edge order.
        e0 = estart[i]
        e1 = estart[i + 1]
        d = dim[i]
        if d == V:
            if not vmatched:
                if not lopen:
                    e0 = bisect_left(ebyte, low[vpos], e0, e1)
                if not hopen:
                    e1 = bisect_right(ebyte, high[vpos], e0, e1)
        elif d == P:
            if not pmatched:
                lo, hi = hull(pstates)
                e0 = bisect_left(ebyte, lo, e0, e1)
                e1 = bisect_right(ebyte, hi, e0, e1)
                for e in range(e1 - 1, e0 - 1, -1):
                    if step(pstates, ebyte[e]):
                        c = echild[e]
                        stack.append((c, vpos, lopen, hopen, vmatched, pstates, consumed, pmatched))
                continue
        else:
            for e in range(e1 - 1, e0 - 1, -1):
                b = ebyte[e]
                if edim[e] == V:
                    if not vmatched:
                        if not lopen and b < low[vpos]:
                            continue
                        if not hopen and b > high[vpos]:
                            continue
                elif not pmatched and not step(pstates, b):
                    continue
                c = echild[e]
                stack.append((c, vpos, lopen, hopen, vmatched, pstates, consumed, pmatched))
            continue
        for c in reversed(echild[e0:e1]):
            stack.append((c, vpos, lopen, hopen, vmatched, pstates, consumed, pmatched))
    return QueryResult(refs=refs, visited=visited)


def cas_query(index: RcasIndex, qpath: QueryPath | str, vrange: ValueRange) -> list[int]:
    """References of all keys whose path satisfies the query path and whose
    value lies in the closed range."""
    return run_query(index, qpath, vrange).refs
