"""Evaluation of combined path/value queries over a built index.

A query pairs a path predicate (child steps, single-label wildcards, and
descendant-or-self axes) with a closed value range.  Evaluation walks the
trie once, in one loop over an explicit stack of (node, value state, path
state), so trie depth is not bounded by the interpreter's recursion limit.
Each node's value and path substrings advance their check's state, one
small int.  Either check can settle early: a value prefix that strictly
diverges inside the range matches a whole subtree, a prefix outside the
range prunes it, and likewise for paths.  A subtree where both checks have
matched is collected without further checks.

The range state codes the bound position reached and whether each bound
has opened.  The path check has two matchers with the same per-state
tables.  On the ASCII paths of the rcas, pv, vp and lw indexes, which end
at a terminator, an exact query (named child steps only, no trailing
``//``) accepts one path and compiles to it as a literal: the query text,
less a trailing ``/``, and the terminator.  Its state is the offset
reached, so feeding it a node substring is one ``startswith``.  Every
other query, and every query on the z-order index's fixed-width label
surrogates, which end by position, compiles to a byte-level NFA, which
generalizes mark-and-backtrack handling of descendant axes to any number
of axes, and runs as a DFA made lazily by subset construction: a state set
gets an id when first reached, with a row of byte targets filled on
demand, its byte hull, whether it matched, and a memo from node substring
to the id reached.

A node's children are sorted by (dimension, edge byte): a run of path edges,
then a run of value edges, either of which may be empty, and the index holds
where the value run starts (`RcasIndex.esplit`).  The children that can pass
are found by bisecting each run to a byte window: the value bounds still
closed, and the hull of the path state.  So every node is served by one
rule, a label-wise node whose edges span both dimensions among them.  Each
index keeps the DFAs of its queries (`RcasIndex.dfas`), and a query starts
on an empty DFA once the kept one passes its state bound, which grows with
the query's NFA.  A DFA's memo holds at most one entry per node of its
index: the DFA is deterministic and a node is entered in the state its
parent's substring led to.  Literals are built per query.

Before its walk, a query pays a fixed cost for its path, its range and its
matcher, so each is made in few steps: the parser makes its `Step` and
`QueryPath` tuples without calling their classes, and `ValueRange.closed`
orders its encoded bounds itself instead of validating them again.
"""

from __future__ import annotations

import enum
import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .keys import (
    PATH_TERMINATOR,
    SLASH,
    VALUE_WIDTHS,
    CompositeKey,
    KeySet,
    decode_path,
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
# Members read on every query, bound once.
_DESC_AXIS = Axis.DESCENDANT
_DESC_TAIL, _CHILD_TAIL = Trailing.DESCENDANT, Trailing.CHILD


class Step(NamedTuple):
    axis: Axis
    label: str | None  # None is the wildcard

    def matches(self, label: str) -> bool:
        return self.label is None or self.label == label


class QueryPath(NamedTuple):
    """A parsed query path.  `text` is the text its steps were parsed from;
    an exact query matches the path spelled by it."""

    steps: tuple[Step, ...]
    trailing: Trailing
    text: str

    def __str__(self) -> str:
        return self.text


class QuerySyntaxError(ValueError):
    pass


_AXES = (None, Axis.CHILD, Axis.DESCENDANT)  # the axis after a run of 1 or 2 slashes
_TRAILINGS = (Trailing.NONE, Trailing.CHILD, Trailing.DESCENDANT)
_new = tuple.__new__  # builds a Step or QueryPath without a Python-level call


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

    # On ASCII text, isprintable admits exactly PATH_BYTE_MIN..PATH_BYTE_MAX,
    # '/' among them; the labels are searched only when the whole text fails.
    printable = text.isprintable()
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
        if not printable and not label.isprintable():
            ch = next(ch for ch in label if not ch.isprintable())
            raise QuerySyntaxError(f"bad character {ch!r} in query label {label!r}")
        steps.append(_new(Step, (_AXES[run], None if label == WILDCARD else label)))
        run = 1
    if run > 3:
        raise QuerySyntaxError(f"query path {text!r} contains a '/'-run longer than 2")
    trailing = _TRAILINGS[run - 1]
    if not steps and trailing is not _DESC_TAIL:
        raise QuerySyntaxError("'/' alone is not a valid query path")
    return _new(QueryPath, (tuple(steps), trailing, text))


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
        """The range [low, high] at `width` bytes: the bounds are encoded and
        ordered here, so the instance is made without `__post_init__`."""
        lo = encode_value(low, width)
        hi = encode_value(high, width)
        if lo > hi:
            raise ValueError(f"empty range: {decode_value(lo)} > {decode_value(hi)}")
        self = object.__new__(cls)
        fields = self.__dict__
        fields["low"] = lo
        fields["high"] = hi
        return self

    @property
    def width(self) -> int:
        return len(self.low)


_DEAD = -1  # the state of a check that has failed

# A range state code is pos * 4 + lopen * 2 + hopen; per value width, whether
# each code has matched: both bounds open, or the whole width consumed.
_RANGE_MATCHED = {
    width: tuple(code >> 2 == width or code & 3 == 3 for code in range(4 * width + 4))
    for width in VALUE_WIDTHS
}


def _feed_range(low: bytes, high: bytes, vs: int, data: bytes) -> int:
    """Advance the closed-range check [low, high] from state code `vs` over
    the value bytes `data`; returns the next code, or _DEAD if the prefix
    leaves the range.  `pos` is the byte position reached in the bounds.
    While `lopen` is 0 the bytes so far equal the low bound's prefix; once
    they exceed it, no completion can fall below it.  `hopen` mirrors this
    for the high bound.  Each bound still closed is compared with `data` at
    `pos` as bytes, whose order is the byte order of the encoded values."""
    pos = vs >> 2
    lopen = vs & 2
    hopen = vs & 1
    end = pos + len(data)
    if not lopen:
        bound = low[pos:end]
        if data < bound:
            return _DEAD
        if data != bound:
            lopen = 2
    if not hopen:
        bound = high[pos:end]
        if data > bound:
            return _DEAD
        if data != bound:
            hopen = 1
    return end * 4 + lopen + hopen


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
    if qpath.trailing is _DESC_TAIL and m == 0:
        return True
    for label in labels:
        nxt = set()
        for i in states:
            if i == m:
                continue
            step = steps[i]
            if step.matches(label):
                nxt.add(i + 1)
            if step.axis is _DESC_AXIS:
                nxt.add(i)
        if qpath.trailing is _DESC_TAIL and m in nxt:
            return True
        states = nxt
        if not states:
            return False
    return m in states


def scan(
    keys: Iterable[CompositeKey], qpath: QueryPath, vrange: ValueRange
) -> list[int]:
    """Brute-force evaluation over the keys as columns (`KeySet.of`).

    The path predicate is decided once per distinct path, by
    `path_matches`, and the range once per distinct value.  One mask over
    the keys' path and value ids then gives the refs of the keys that pass
    both, in key order.  ValueError when the keys' values differ in width.
    """
    keys = KeySet.of(keys)
    low = decode_value(vrange.low)
    high = decode_value(vrange.high)
    path_ok = np.fromiter(
        (path_matches(qpath, decode_path(p)) for p in keys.paths), bool, len(keys.paths)
    )
    value_ok = np.fromiter(
        (low <= decode_value(v) <= high for v in keys.values), bool, len(keys.values)
    )
    hits = np.flatnonzero(path_ok[keys.pid] & value_ok[keys.vid])
    return list(map(keys.refs.__getitem__, hits.tolist()))


# --- byte-level path automaton -----------------------------------------------

# The byte classes an automaton edge can admit, each spelled as the bytes in
# it in ascending order, so its ends are its least and greatest byte.
_ANY = bytes(range(256))
_NONZERO = _ANY[1:]
_LABEL = bytes(b for b in _NONZERO if b != SLASH)  # neither '/' nor the terminator
_SINGLE = [bytes((b,)) for b in range(256)]  # the class of exactly one byte
_ZERO = _SINGLE[0]
_SLASH = _SINGLE[SLASH]
_TERMINATOR = _SINGLE[PATH_TERMINATOR]

_PAIRS = [(b, b) for b in range(256)]  # the hull of exactly one byte
_NO_HULL = (256, -1)  # the hull of a state that no edge leaves
_LIVE_ROW = (0,) * 256  # a row that follows every byte
_NO_MEMO: dict[bytes, int] = {}  # a memo that stays empty

# The most states a lazy DFA holds when a query starts, past its NFA's state
# count.  A DFA past the bound is replaced by an empty one, so a DFA kept by
# an index stays bounded however many nodes it has been fed, and keeps the
# states of a long label.
_STATE_CACHE_MAX = 1024
# The most DFAs one index keeps; a new query path on a full index empties it.
_DFAS_MAX = 256


class _PathAutomaton:
    """NFA over the path bytes of an index, compiled from a query path.

    Every edge admits one byte class: a single byte, a label byte, any byte
    or any non-zero byte.  `universal` holds the states from which every
    completion of the path is accepted; reaching one matches a whole subtree
    before its paths end.  Paths that end at a terminator have `width` 0;
    the others complete once `width` bytes have been consumed, and then
    their states must meet `accepts`.  Queries run the NFA as a `_LazyDfa`.
    """

    def __init__(self, width: int):
        self.width = width
        self.accepts = self.universal = frozenset()
        self.edges: list[list[tuple[bytes, int]]] = [[]]

    def edge(self, s: int, byte_class: bytes, t: int | None = None) -> int:
        """Add an edge from state `s` to `t`, or to a new state; returns
        the edge's target."""
        if t is None:
            t = len(self.edges)
            self.edges.append([])
        self.edges[s].append((byte_class, t))
        return t

    def chain(self, s: int, classes: list[bytes], end: int | None = None) -> int:
        """Add edges admitting `classes` in turn, from state `s` through new
        states to `end`, or to a new state; returns the last state."""
        for cls in classes[:-1]:
            s = self.edge(s, cls)
        return self.edge(s, classes[-1], end)


class _LazyDfa:
    """The DFA of a `_PathAutomaton`, made by subset construction as it is
    used.  A state is an NFA state set and, for paths that complete by
    position, the bytes consumed.  Per state id, `rows` holds each byte's
    target (None until asked for, _DEAD where no edge admits the byte),
    `hulls` the lowest and highest byte an edge admits, read off the ends
    of the edges' classes, `matched` whether every completion is accepted,
    and `memo` the outcome of each node substring fed.  A state that
    completes unaccepted is a live row target, as the NFA has edges for
    that byte, but a dead end as a feed's outcome.
    """

    def __init__(self, nfa: _PathAutomaton):
        self.nfa = nfa
        self.rows, self.hulls, self.matched, self.memo = [], [], [], []
        self._keys: list[tuple[frozenset, int]] = []
        self._ids: dict[tuple[frozenset, int], int] = {}
        self._new_state = threading.Lock()  # concurrent queries never give a state two ids
        self.start = self._id(frozenset({0}), 0)

    def _id(self, states: frozenset, consumed: int) -> int:
        key = (states, consumed)
        with self._new_state:
            t = self._ids.get(key)
            if t is None:
                nfa = self.nfa
                classes = [cls for s in states for cls, _ in nfa.edges[s]]
                hull = (min(c[0] for c in classes), max(c[-1] for c in classes)) if classes else _NO_HULL
                done = 0 < nfa.width == consumed
                self.rows.append([None] * 256)
                self.hulls.append(hull)
                self.matched.append(bool(states & (nfa.accepts if done else nfa.universal)))
                self.memo.append({})
                self._keys.append(key)
                t = self._ids[key] = len(self._keys) - 1
        return t

    def target(self, ps: int, b: int) -> int:
        """The id byte `b` leads to from state `ps`, or _DEAD; fills the
        row entry."""
        states, consumed = self._keys[ps]
        edges = self.nfa.edges
        nxt = frozenset(t for s in states for cls, t in edges[s] if b in cls)
        t = self._id(nxt, min(consumed + 1, self.nfa.width)) if nxt else _DEAD
        self.rows[ps][b] = t
        return t

    def feed(self, ps: int, data: bytes) -> int:
        """The id the node substring `data` leads to from state `ps`, or
        _DEAD; the outcome goes into the memo."""
        rows = self.rows
        t = ps
        for b in data:
            nxt = rows[t][b]
            t = self.target(t, b) if nxt is None else nxt
            if t < 0:
                break
        else:
            if not self.matched[t] and 0 < self.nfa.width == self._keys[t][1]:
                t = _DEAD  # complete, not accepted
        self.memo[ps][data] = t
        return t


def _compile_ascii(qpath: QueryPath) -> _PathAutomaton:
    """Automaton over ASCII paths: '/'-prefixed labels, then the terminator.

    ASCII paths have no fixed width; they end at the terminator.  Only the
    terminator leads into the accept state, and the accept state has no
    out-edges, so after the terminator the state set is the accept state
    alone.  It is universal: the one completion left, the empty one, matches.
    """
    a = _PathAutomaton(width=0)
    cur = 0
    for step in qpath.steps:
        after_slash = a.edge(cur, _SLASH)
        if step.axis is _DESC_AXIS:
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
    if qpath.trailing is _DESC_TAIL:
        # one or more further labels; paths hold no empty label, so the
        # labels and their slashes need not be told apart
        below = a.edge(cur, _SLASH)
        a.edge(below, _NONZERO, below)
        a.edge(below, _TERMINATOR, accept)
        universal.add(below)
    a.accepts = a.universal = frozenset(universal)
    return a


def _compile_zo(qpath: QueryPath, ctx: ZoContext) -> _PathAutomaton:
    """Automaton over the z-order surrogate paths of the context `ctx`,
    which are `ctx.path_width` bytes long.

    Labels are 3-byte codes, and shorter paths are padded with all-zero
    units up to the fixed path width.  There is no terminator, so a path
    completes by position, once all of its surrogate bytes are fed.
    """
    a = _PathAutomaton(width=ctx.path_width)
    cur = 0
    for step in qpath.steps:
        if step.axis is _DESC_AXIS:
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
    if qpath.trailing is _DESC_TAIL:
        u = a.edge(cur, _ANY)
        a.edge(u, _ANY, u)
        a.accepts = a.universal = frozenset({cur, u})
    else:
        pad = a.edge(cur, _ZERO)
        a.edge(pad, _ZERO, pad)
        a.accepts = frozenset({cur, pad})
    return a


class _PathLiteral:
    """Matcher for the one ASCII path an exact query accepts: the literal
    `lit`.

    It has the tables of the DFA, but a state is the offset into `lit`
    reached so far.  The hull of an offset is the byte there, so the hull
    alone selects the edges to follow: every row follows every byte, the
    memo is shared, empty and never written, and `feed` is one
    `startswith`.  The path matches once the offset reaches `len(lit)`.
    """

    start = 0

    def __init__(self, lit: bytes):
        self.lit = lit
        self.rows = (_LIVE_ROW,) * (len(lit) + 1)
        self.memo = (_NO_MEMO,) * (len(lit) + 1)
        self.hulls = [_PAIRS[b] for b in lit]
        self.hulls.append(_NO_HULL)
        self.matched = bytes(len(lit)) + b"\x01"

    def feed(self, offset: int, data: bytes) -> int:
        if self.lit.startswith(data, offset):
            return offset + len(data)
        return _DEAD


def _automaton(qpath: QueryPath, ctx: ZoContext | None) -> _PathAutomaton:
    """The automaton of `qpath`; `ctx` is the z-order context, None for
    ASCII paths."""
    return _compile_ascii(qpath) if ctx is None else _compile_zo(qpath, ctx)


def _matcher(index: RcasIndex, qpath: QueryPath):
    """The path matcher for `qpath` on `index`.  On an index of ASCII
    paths, an exact query (every step a named child step, no trailing
    ``//``) gets a literal: its text, less a trailing '/', and the
    terminator.  Every other query, and every query on a z-order index,
    gets the DFA the index keeps for `qpath`, made anew once it holds over
    `_STATE_CACHE_MAX` states past its NFA's.  Its memo holds at most one
    entry per node of `index`, as each node is entered in one state.  A
    running query keeps its own, so its ids stay valid.  Each step on
    `index.dfas` is one dict call and needs no lock: a race can only drop
    a DFA or keep one more, never hand a query a wrong one."""
    ctx = index.zo_ctx
    if ctx is None and qpath.trailing is not _DESC_TAIL and qpath.steps:
        axes, labels = zip(*qpath.steps)
        if _DESC_AXIS not in axes and None not in labels:
            text = qpath.text[:-1] if qpath.trailing is _CHILD_TAIL else qpath.text
            return _PathLiteral(text.encode("ascii") + _TERMINATOR)
    dfas = index.dfas
    dfa = dfas.get(qpath)
    if dfa is None:
        if len(dfas) >= _DFAS_MAX:
            dfas.clear()
        dfa = dfas[qpath] = _LazyDfa(_automaton(qpath, ctx))
    elif len(dfa.rows) > _STATE_CACHE_MAX + len(dfa.nfa.edges):
        dfa = dfas[qpath] = _LazyDfa(dfa.nfa)
    return dfa


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
    of every visited node in that order.  An inner node's edges are its path
    edges, then its value edges, each run sorted by byte and either one
    possibly empty; `index.esplit` holds where the value run starts.  Of the
    value edges, those between the value bounds still closed are taken, and
    every one of them passes.  Of the path edges, all are taken once the
    path has matched; otherwise those within the hull of the path state are
    tested, each edge's byte looked up in the state's row.  Substrings are
    read from the index's `s_p` and `s_v` columns, whose entries are its
    tables' shared objects, so a bytes object's cached hash serves every
    node that holds it.  A path substring is looked up in the path state's
    memo before it is fed; an empty substring leaves its check's state as
    it is.  A subtree whose predicates have both settled is collected
    whole: its refs are one slice of `index.refs`, an `array('Q')`.
    """
    if isinstance(qpath, str):
        qpath = parse_query_path(qpath)
    if len(vrange.low) != index.value_width:
        raise ValueError(
            f"range width {vrange.width} does not match index width {index.value_width}"
        )
    matcher = _matcher(index, qpath)
    rows, hulls, pmatched, memo = matcher.rows, matcher.hulls, matcher.matched, matcher.memo
    feed = matcher.feed
    low, high = vrange.low, vrange.high
    vmatched = _RANGE_MATCHED[index.value_width]
    end, s_p, s_v = index.end, index.s_p, index.s_v
    estart, esplit, ebyte, echild = index.estart, index.esplit, index.ebyte, index.echild
    all_refs, reflo = index.refs, index.reflo
    refs: list[int] = []
    visited = 0

    # A node id with the state of both checks on entering it.
    stack = [(0, 0, matcher.start)]
    push, pop = stack.append, stack.pop
    while stack:
        i, vs, ps = pop()
        visited += 1
        if trace is not None:
            trace.append(i)

        vm = vmatched[vs]
        if not vm:
            data = s_v[i]
            if data:
                vs = _feed_range(low, high, vs, data)
                if vs < 0:
                    continue
                vm = vmatched[vs]

        pm = pmatched[ps]
        if not pm:
            data = s_p[i]
            if data:
                t = memo[ps].get(data)
                if t is None:
                    t = feed(ps, data)
                if t < 0:
                    continue
                ps = t
                pm = pmatched[t]

        if vm and pm:
            # collect the whole subtree, without further checks
            e = end[i]
            refs += all_refs[reflo[i] : reflo[e]]
            visited += e - i - 1
            if trace is not None:
                trace += range(i + 1, e)
            continue

        # Leaf outcomes are always final, so node i is inner.  Its edges
        # are sorted by (dimension, byte): its path edges [e0, m), then its
        # value edges [m, e1).  Each run is pushed last to first, the value
        # run first, so that the children are visited in edge order.
        e0, m, e1 = estart[i], esplit[i], estart[i + 1]
        if m < e1:  # the value edges between the bounds still closed
            a = m
            if not vm:
                if not vs & 2:
                    a = bisect_left(ebyte, low[vs >> 2], a, e1)
                if not vs & 1:
                    e1 = bisect_right(ebyte, high[vs >> 2], a, e1)
            for c in reversed(echild[a:e1]):
                push((c, vs, ps))
            if m == e0:
                continue
        if pm:  # the path edges: all of them, or those the path state admits
            for c in reversed(echild[e0:m]):
                push((c, vs, ps))
            continue
        lo, hi = hulls[ps]
        a = bisect_left(ebyte, lo, e0, m)
        b = bisect_right(ebyte, hi, a, m)
        row = rows[ps]
        for e in range(b - 1, a - 1, -1):
            t = row[ebyte[e]]
            if t is None:
                t = matcher.target(ps, ebyte[e])
            if t >= 0:
                push((echild[e], vs, ps))
    return QueryResult(refs=refs, visited=visited)


def cas_query(index: RcasIndex, qpath: QueryPath | str, vrange: ValueRange) -> list[int]:
    """References of all keys whose path satisfies the query path and whose
    value lies in the closed range."""
    return run_query(index, qpath, vrange).refs
