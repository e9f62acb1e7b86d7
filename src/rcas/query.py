"""Evaluation of combined path/value queries over a built index.

A query pairs a path predicate (child steps, single-label wildcards, and
descendant-or-self axes) with a closed value range.  Evaluation walks the
trie once, feeding each node's path and value substrings into incremental
matchers.  Either matcher can settle early: a subtree whose value prefix
strictly diverges inside the range matches wholly, a prefix outside the
range prunes the subtree, and likewise for paths.  When both predicates have
matched, the subtree is collected without further checks.

The path matcher is a small byte-level NFA compiled from the query, which
generalizes mark-and-backtrack handling of descendant axes to any number of
axes.  A separate compiler produces the matcher for z-order indexes, whose
path bytes are fixed-width label surrogates instead of ASCII.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .keys import (
    PATH_BYTE_MAX,
    PATH_BYTE_MIN,
    SLASH,
    CompositeKey,
    Dimension,
    decode_value,
    encode_value,
)
from .trie import Node, RcasIndex
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

    steps: list[Step] = []
    trailing = Trailing.NONE
    i = 0
    n = len(text)
    while i < n:
        assert text[i] == "/"
        run = 0
        while i < n and text[i] == "/":
            run += 1
            i += 1
        if run > 2:
            raise QuerySyntaxError(f"query path {text!r} contains a '/'-run longer than 2")
        axis = Axis.DESCENDANT if run == 2 else Axis.CHILD
        start = i
        while i < n and text[i] != "/":
            i += 1
        label = text[start:i]
        if not label:
            if i < n:
                raise QuerySyntaxError(f"query path {text!r} contains an empty label")
            trailing = Trailing.DESCENDANT if axis is Axis.DESCENDANT else Trailing.CHILD
            break
        for ch in label:
            b = ord(ch)
            if not PATH_BYTE_MIN <= b <= PATH_BYTE_MAX or ch == "/":
                raise QuerySyntaxError(f"bad character {ch!r} in query label {label!r}")
        steps.append(Step(axis, None if label == WILDCARD else label))
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


# --- byte-level matcher for ASCII paths --------------------------------------


class _AsciiPathMatcher:
    """NFA over path bytes compiled from a query path.

    States transition on exact bytes, or on any label byte (everything except
    '/' and the terminator).  `universal` marks states from which every valid
    completion of the path is accepted, enabling early subtree matches under
    a trailing descendant axis.
    """

    def __init__(self, qpath: QueryPath):
        self._eq: list[dict[int, list[int]]] = []
        self._lb: list[list[int]] = []
        self.accept = -1
        self.universal: frozenset[int] = frozenset()
        self._build(qpath)
        self.start = frozenset({0})
        self._step_cache: dict[tuple[frozenset, int], frozenset] = {}

    def _new(self) -> int:
        self._eq.append({})
        self._lb.append([])
        return len(self._eq) - 1

    def _add_eq(self, s: int, b: int, t: int) -> None:
        self._eq[s].setdefault(b, []).append(t)

    def _add_lb(self, s: int, t: int) -> None:
        self._lb[s].append(t)

    def _chain_label(self, after_slash: int, label: str) -> int:
        s = after_slash
        for ch in label.encode("ascii"):
            nxt = self._new()
            self._add_eq(s, ch, nxt)
            s = nxt
        return s

    def _build(self, qpath: QueryPath) -> None:
        cur = self._new()
        acc = self._new()
        self.accept = acc
        for step in qpath.steps:
            after_slash = self._new()
            self._add_eq(cur, SLASH, after_slash)
            if step.axis is Axis.DESCENDANT:
                skip = self._new()
                self._add_eq(cur, SLASH, skip)
                self._add_lb(skip, skip)
                self._add_eq(skip, SLASH, skip)
                self._add_eq(skip, SLASH, after_slash)
            if step.label is None:
                boundary = self._new()
                self._add_lb(after_slash, boundary)
                self._add_lb(boundary, boundary)
                cur = boundary
            else:
                cur = self._chain_label(after_slash, step.label)
        self._add_eq(cur, 0, acc)
        if qpath.trailing is Trailing.DESCENDANT:
            t = self._new()
            u = self._new()
            self._add_eq(cur, SLASH, t)
            self._add_lb(t, u)
            self._add_lb(u, u)
            self._add_eq(u, SLASH, t)
            self._add_eq(u, 0, acc)
            self.universal = frozenset({t, u})

    def step(self, states: frozenset, b: int) -> frozenset:
        key = (states, b)
        hit = self._step_cache.get(key)
        if hit is not None:
            return hit
        nxt: set[int] = set()
        is_label_byte = b != 0 and b != SLASH
        for s in states:
            targets = self._eq[s].get(b)
            if targets:
                nxt.update(targets)
            if is_label_byte:
                nxt.update(self._lb[s])
        out = frozenset(nxt)
        self._step_cache[key] = out
        return out

    def feed(self, states: frozenset, done: bool, data: bytes):
        """Advance over `data`; returns None on a dead end (mismatch)."""
        for b in data:
            states = self.step(states, b)
            if not states:
                return None
            if b == 0:
                done = True
        if done:
            if self.accept not in states:
                return None
            return states, True, True
        matched = bool(states & self.universal)
        return states, False, matched

    def admits(self, states: frozenset, b: int) -> bool:
        return bool(self.step(states, b))


# --- byte-level matcher for surrogate (z-order) paths -------------------------


class _ZoPathMatcher:
    """NFA over fixed-width surrogate path bytes.

    Labels are 3-byte codes; shorter paths are padded with zero units.  The
    path region has a fixed total width, so completeness is positional: the
    matcher decides once all surrogate bytes of a key have been consumed.
    """

    def __init__(self, qpath: QueryPath, ctx: ZoContext):
        self._eq: list[dict[int, list[int]]] = []
        self._any: list[list[int]] = []
        self._nz: list[list[int]] = []
        self.accepts: frozenset[int] = frozenset()
        self.universal: frozenset[int] = frozenset()
        self.total = ctx.path_width
        self._build(qpath, ctx)
        self.start = frozenset({0})
        self._step_cache: dict[tuple[frozenset, int], frozenset] = {}

    def _new(self) -> int:
        self._eq.append({})
        self._any.append([])
        self._nz.append([])
        return len(self._eq) - 1

    def _build(self, qpath: QueryPath, ctx: ZoContext) -> None:
        cur = self._new()
        for step in qpath.steps:
            if step.axis is Axis.DESCENDANT:
                k1 = self._new()
                k2 = self._new()
                self._any[cur].append(k1)
                self._any[k1].append(k2)
                self._any[k2].append(cur)
            if step.label is None:
                # any unit except the all-zero padding
                z1 = self._new()
                n1 = self._new()
                z2 = self._new()
                n2 = self._new()
                boundary = self._new()
                self._eq[cur].setdefault(0, []).append(z1)
                self._nz[cur].append(n1)
                self._eq[z1].setdefault(0, []).append(z2)
                self._nz[z1].append(n2)
                self._any[n1].append(n2)
                self._nz[z2].append(boundary)
                self._any[n2].append(boundary)
                cur = boundary
            else:
                code = ctx.code_bytes(step.label)
                if code is None:
                    cur = self._new()  # unreachable state: label absent from data
                    continue
                for b in code:
                    nxt = self._new()
                    self._eq[cur].setdefault(b, []).append(nxt)
                    cur = nxt
        if qpath.trailing is Trailing.DESCENDANT:
            u = self._new()
            self._any[cur].append(u)
            self._any[u].append(u)
            self.accepts = frozenset({cur, u})
            self.universal = frozenset({cur, u})
        else:
            pad = self._new()
            self._eq[cur].setdefault(0, []).append(pad)
            self._eq[pad].setdefault(0, []).append(pad)
            self.accepts = frozenset({cur, pad})

    def step(self, states: frozenset, b: int) -> frozenset:
        key = (states, b)
        hit = self._step_cache.get(key)
        if hit is not None:
            return hit
        nxt: set[int] = set()
        for s in states:
            targets = self._eq[s].get(b)
            if targets:
                nxt.update(targets)
            nxt.update(self._any[s])
            if b != 0:
                nxt.update(self._nz[s])
        out = frozenset(nxt)
        self._step_cache[key] = out
        return out

    def feed(self, states: frozenset, consumed: int, data: bytes):
        for b in data:
            states = self.step(states, b)
            if not states:
                return None
        consumed += len(data)
        if consumed >= self.total:
            if not states & self.accepts:
                return None
            return states, consumed, True
        matched = bool(states & self.universal)
        return states, consumed, matched

    def admits(self, states: frozenset, b: int) -> bool:
        return bool(self.step(states, b))


@lru_cache(maxsize=256)
def _compile_ascii(qpath: QueryPath) -> _AsciiPathMatcher:
    return _AsciiPathMatcher(qpath)


# --- query evaluation over an index ------------------------------------------


@dataclass
class QueryResult:
    refs: list[int]
    visited: int


class _Evaluator:
    def __init__(self, index: RcasIndex, qpath: QueryPath, vrange: ValueRange, trace):
        if vrange.width != index.value_width:
            raise ValueError(
                f"range width {vrange.width} does not match index width {index.value_width}"
            )
        self.low = vrange.low
        self.high = vrange.high
        if index.scheme == "zo":
            assert index.zo_ctx is not None
            self.matcher = _ZoPathMatcher(qpath, index.zo_ctx)
            self.positional = True
        else:
            self.matcher = _compile_ascii(qpath)
            self.positional = False
        self.refs: list[int] = []
        self.visited = 0
        self.trace = trace

    def run(self, root: Node) -> QueryResult:
        # pmark is the done flag for ASCII paths, the consumed-byte count for
        # positional (surrogate) paths.
        pmark = 0 if self.positional else False
        self._visit(root, 0, False, False, False, self.matcher.start, pmark, False)
        return QueryResult(refs=self.refs, visited=self.visited)

    def _visit(
        self,
        node: Node,
        vpos: int,
        lopen: bool,
        hopen: bool,
        vmatched: bool,
        pstates: frozenset,
        pmark,
        pmatched: bool,
    ) -> None:
        self.visited += 1
        if self.trace is not None:
            self.trace.append(node)

        if not vmatched:
            fed = feed_range(self.low, self.high, vpos, lopen, hopen, node.s_v)
            if fed is None:
                return
            vpos, lopen, hopen, vmatched = fed

        if not pmatched:
            fed = self.matcher.feed(pstates, pmark, node.s_p)
            if fed is None:
                return
            pstates, pmark, pmatched = fed

        if vmatched and pmatched:
            if node.is_leaf:
                assert node.refs is not None
                self.refs.extend(node.refs)
            else:
                self._collect_children(node)
            return
        assert not node.is_leaf, "leaf outcomes are always final"

        for dim, b, child in node.children:
            if dim is Dimension.V:
                if not vmatched:
                    if not lopen and b < self.low[vpos]:
                        continue
                    if not hopen and b > self.high[vpos]:
                        continue
            else:
                if not pmatched and not self.matcher.admits(pstates, b):
                    continue
            self._visit(child, vpos, lopen, hopen, vmatched, pstates, pmark, pmatched)

    def _collect_children(self, node: Node) -> None:
        for _, _, child in node.children:
            self.visited += 1
            if self.trace is not None:
                self.trace.append(child)
            if child.is_leaf:
                assert child.refs is not None
                self.refs.extend(child.refs)
            else:
                self._collect_children(child)


def run_query(
    index: RcasIndex,
    qpath: QueryPath | str,
    vrange: ValueRange,
    trace: list | None = None,
) -> QueryResult:
    """Evaluate a path+range query; returns matching refs and nodes visited."""
    if isinstance(qpath, str):
        qpath = parse_query_path(qpath)
    return _Evaluator(index, qpath, vrange, trace).run(index.root)


def cas_query(index: RcasIndex, qpath: QueryPath | str, vrange: ValueRange) -> list[int]:
    """References of all keys whose path satisfies the query path and whose
    value lies in the closed range."""
    return run_query(index, qpath, vrange).refs
