import gc
import hashlib
import random
import sys
import threading
import weakref
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from rcas import query
from rcas.dataset import GeneratorConfig, generate, records_to_keys
from rcas.interleave import ZoContext
from rcas.keys import PATH_BYTE_MAX, PATH_BYTE_MIN, CompositeKey, Dimension, KeySet, encode_value
from rcas.query import (
    Axis,
    QueryPath,
    QuerySyntaxError,
    Step,
    Trailing,
    ValueRange,
    WILDCARD,
    _DEAD,
    _RANGE_MATCHED,
    _STATE_CACHE_MAX,
    _LazyDfa,
    _PathLiteral,
    _automaton,
    _feed_range,
    cas_query,
    parse_query_path,
    path_matches,
    run_query,
    scan,
)
from rcas.trie import SCHEMES, build_static

from conftest import random_keys, random_query_text
from reference import feed_range, run_query_sets, scan_keys
from treeview import nodes, root


class TestParse:
    def test_child_steps_with_trailing_descendant(self):
        q = parse_query_path("/bom/item/car//")
        assert q.steps == (
            Step(Axis.CHILD, "bom"),
            Step(Axis.CHILD, "item"),
            Step(Axis.CHILD, "car"),
        )
        assert q.trailing is Trailing.DESCENDANT

    def test_wildcard_step(self):
        q = parse_query_path("/bom/*/car/battery")
        assert q.steps == (
            Step(Axis.CHILD, "bom"),
            Step(Axis.CHILD, None),
            Step(Axis.CHILD, "car"),
            Step(Axis.CHILD, "battery"),
        )
        assert q.trailing is Trailing.NONE

    def test_descendant_axis_step(self):
        q = parse_query_path("/bom/item//battery")
        assert q.steps == (
            Step(Axis.CHILD, "bom"),
            Step(Axis.CHILD, "item"),
            Step(Axis.DESCENDANT, "battery"),
        )

    def test_match_everything(self):
        q = parse_query_path("//")
        assert q.steps == ()
        assert q.trailing is Trailing.DESCENDANT

    def test_trailing_single_slash(self):
        q = parse_query_path("/bom/item/")
        assert q.trailing is Trailing.CHILD
        assert len(q.steps) == 2

    @pytest.mark.parametrize("bad", ["", "/", "///a", "/a///b", "bom/item", "/a b\x7f", "/café"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(QuerySyntaxError):
            parse_query_path(bad)

    def test_printable_is_the_label_byte_range(self):
        # the tokenizer checks labels with str.isprintable
        for b in range(128):
            assert chr(b).isprintable() == (PATH_BYTE_MIN <= b <= PATH_BYTE_MAX), b

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from(["/", "/", "a", "bc", "*", " ", "\x01", "\x7f", "é"]), max_size=12))
    def test_tokenizer_equals_scanning_reference(self, parts):
        text = "".join(parts)
        try:
            want = reference_parse(text)
        except QuerySyntaxError as exc:
            with pytest.raises(QuerySyntaxError) as got:
                parse_query_path(text)
            assert str(got.value) == str(exc)
        else:
            assert parse_query_path(text) == want

    @pytest.mark.parametrize("text", ["/n03/n05/n01/n07", "/bom/*/car/", "/a//b//", "//x*y", "//"])
    def test_parsed_tuples_equal_field_constructions(self, text):
        """The parser makes its tuples without calling their classes: they
        are still `Step`s and a `QueryPath`, equal to and hashing like
        tuples built field by field, with the same field values."""
        q = parse_query_path(text)
        want = reference_parse(text)
        built = QueryPath(
            steps=tuple(Step(axis=s.axis, label=s.label) for s in want.steps),
            trailing=want.trailing,
            text=want.text,
        )
        assert type(q) is QueryPath and all(type(s) is Step for s in q.steps)
        assert q == built and hash(q) == hash(built)
        assert (q.steps, q.trailing, q.text, str(q)) == (built.steps, built.trailing, text, text)
        for got, step in zip(q.steps, built.steps):
            assert (got.axis, got.label) == (step.axis, step.label)
            assert got.axis in Axis and got.matches("x*y") == step.matches("x*y")


def reference_parse(text: str) -> QueryPath:
    """The query path tokenizer as a character-by-character scan."""
    if not text:
        raise QuerySyntaxError("empty query path")
    if not text.isascii():
        raise QuerySyntaxError(f"query path {text!r} is not ASCII")
    if text[0] != "/":
        raise QuerySyntaxError(f"query path {text!r} does not start with '/'")
    steps = []
    trailing = Trailing.NONE
    i, n = 0, len(text)
    while i < n:
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
            trailing = Trailing.DESCENDANT if axis is Axis.DESCENDANT else Trailing.CHILD
            break
        for ch in label:
            if not PATH_BYTE_MIN <= ord(ch) <= PATH_BYTE_MAX:
                raise QuerySyntaxError(f"bad character {ch!r} in query label {label!r}")
        steps.append(Step(axis, None if label == WILDCARD else label))
    if not steps and trailing is not Trailing.DESCENDANT:
        raise QuerySyntaxError("'/' alone is not a valid query path")
    return QueryPath(steps=tuple(steps), trailing=trailing, text=text)


class TestDeclarativeSemantics:
    @pytest.mark.parametrize(
        "q,path,want",
        [
            ("/bom/item/car//", "/bom/item/car/battery", True),
            ("/bom/item/car//", "/bom/item/car", True),
            ("/bom/item/car//", "/bom/item/carabiner", False),
            ("/bom/item/car", "/bom/item/car/battery", False),
            ("/bom/item/car/", "/bom/item/car", True),
            ("/bom/item//battery", "/bom/item/car/battery", True),
            ("/bom/item//battery", "/bom/item/battery", True),
            ("/bom/item//battery", "/bom/item/car/brake", False),
            ("//battery", "/bom/item/car/battery", True),
            ("//battery", "/battery", True),
            ("//battery", "/bom/battery/item", False),
            ("//battery//", "/bom/battery/item", True),
            ("/bom/*/car/battery", "/bom/item/car/battery", True),
            ("/bom/*/car/battery", "/bom/car/battery", False),
            ("/*", "/bom", True),
            ("/*", "/bom/item", False),
            ("//", "/anything/at/all", True),
            ("/a//b//c", "/a/x/b/y/c", True),
            ("/a//b//c", "/a/x/c/y/b", False),
            ("/a//a", "/a/a", True),
            ("/a//a", "/a", False),
        ],
    )
    def test_cases(self, q, path, want):
        assert path_matches(parse_query_path(q), path) is want


class TestMatchValue:
    """The evaluator's range check, fed value bytes from the start state.

    `feed` decodes the state code the check returns into (pos, lopen,
    hopen, matched), or None for a dead end.
    """

    RANGE = ValueRange(bytes.fromhex("000186a0"), bytes.fromhex("0007a120"))

    @staticmethod
    def feed(data, vrange, state=(0, False, False)):
        pos, lopen, hopen = state
        code = _feed_range(vrange.low, vrange.high, pos * 4 + lopen * 2 + hopen, data)
        if code == _DEAD:
            return None
        return code >> 2, bool(code & 2), bool(code & 1), _RANGE_MATCHED[vrange.width][code]

    def test_leaf_below_lower_bound(self):
        assert self.feed(bytes.fromhex("00010e50"), self.RANGE) is None

    def test_inner_strict_divergence_matches(self):
        pos, lopen, hopen, matched = self.feed(bytes.fromhex("0003"), self.RANGE)
        assert matched
        assert lopen and hopen

    def test_point_query_at_leaf(self):
        rng = ValueRange.closed(3266, 3266)
        assert self.feed(bytes.fromhex("00000cc2"), rng) == (4, False, False, True)

    def test_incomplete_prefix(self):
        assert self.feed(b"\x00", self.RANGE) == (1, False, False, False)

    def test_above_upper_bound(self):
        assert self.feed(bytes.fromhex("0008"), self.RANGE) is None

    def test_resumes_from_state(self):
        pos, lopen, hopen, _ = self.feed(b"\x00", self.RANGE)
        *_, matched = self.feed(b"\x03", self.RANGE, (pos, lopen, hopen))
        assert matched

    def test_complete_value_decides_even_below_leaf(self):
        rng = ValueRange.closed(100, 100)
        *_, matched = self.feed(bytes.fromhex("00000064"), rng)
        assert matched

    @pytest.mark.parametrize("width", [4, 8])
    def test_equals_the_byte_loop(self, width):
        """`_feed_range` compares the substring with each bound still closed
        as bytes; the oracle walks it byte by byte.  The substrings' bytes
        are mostly a bound's, one above or below it, 0x00 or 0xFF."""
        rng = random.Random(2900 + width)
        outcomes = set()
        for _ in range(20_000):
            a = bytes(rng.choice((0, 0xFF, rng.randrange(256))) for _ in range(width))
            b = a[: rng.randrange(width + 1)] + bytes(rng.randrange(256) for _ in range(width))
            low, high = sorted((a, b[:width]))
            pos = rng.randrange(width + 1)
            data = []
            for p in range(pos, pos + rng.randrange(width - pos + 1)):
                near = rng.choice((low[p], high[p]))
                data.append(rng.choice((near, near, near, near - 1, near + 1, 0, 0xFF, rng.randrange(256))))
            data = bytes(min(max(x, 0), 0xFF) for x in data)
            lopen, hopen = rng.random() < 0.5, rng.random() < 0.5
            want = feed_range(low, high, pos, lopen, hopen, data)
            code = _feed_range(low, high, pos * 4 + lopen * 2 + hopen, data)
            if want is None:
                assert code == _DEAD, (low, high, pos, lopen, hopen, data)
            else:
                end, lopen, hopen, matched = want
                assert code == end * 4 + lopen * 2 + hopen, (low, high, pos, data)
                assert _RANGE_MATCHED[width][code] == matched
            outcomes.add(None if want is None else want[1:3])
        assert len(outcomes) == 5  # dead, and each pair of open flags


class TestMatchPath:
    """The lazy DFA of the compiled path automaton, which the evaluator
    feeds node substrings into.

    `feed` returns None on a dead end, else (DFA, state id, matched); the
    feed's outcome is in the memo of the state it started from.
    """

    @staticmethod
    def feed(q, data, fed=None):
        dfa, state, _ = fed if fed is not None else (_LazyDfa(_automaton(q, None)), None, False)
        if state is None:
            state = dfa.start
        t = dfa.feed(state, data)
        assert dfa.memo[state][data] == t
        return None if t == _DEAD else (dfa, t, dfa.matched[t])

    def test_partial_label_skipped_by_descendant(self):
        q = parse_query_path("/bom/item//battery")
        _, state, matched = self.feed(q, b"/bom/item/ca")
        assert state >= 0
        assert not matched

    def test_complete_path_match(self):
        q = parse_query_path("/bom/item//battery")
        fed = self.feed(q, b"/bom/item/ca")
        _, _, matched = self.feed(q, b"r/battery\x00", fed)
        assert matched

    def test_label_mismatch(self):
        q = parse_query_path("/bom/item/car//")
        assert self.feed(q, b"/bom/item/canoe\x00") is None

    def test_early_match_under_trailing_descendant(self):
        q = parse_query_path("/bom/item/car//")
        assert self.feed(q, b"/bom/item/car/")[2]
        assert not self.feed(q, b"/bom/item/car")[2]  # could still be /bom/item/carabiner

    def test_dead_prefix_is_mismatch(self):
        q = parse_query_path("/bom/item")
        assert self.feed(q, b"/bom/x") is None

    def test_incremental_equals_declarative(self):
        rng = random.Random(777)
        labels = ["a", "b", "ab", "car", "x"]
        for _ in range(400):
            depth = rng.randint(1, 4)
            path = "/" + "/".join(rng.choice(labels) for _ in range(depth))
            q = parse_query_path(random_query_text(rng, [path, "/a/b/ab", "/car/x"]))
            encoded = path.encode() + b"\x00"
            # feed in random chunks, stopping where the evaluator would: at a
            # dead end or once the path has matched
            fed = None
            pos = 0
            while pos < len(encoded):
                cut = rng.randint(pos + 1, len(encoded))
                fed = self.feed(q, encoded[pos:cut], fed)
                pos = cut
                if fed is None or fed[2]:
                    break
            want = path_matches(q, path)
            assert (fed is not None and fed[2]) == want, (q.text, path)

    def test_outcomes_never_regress(self):
        rng = random.Random(778)
        labels = ["a", "b", "c"]
        for _ in range(200):
            depth = rng.randint(1, 4)
            path = "/" + "/".join(rng.choice(labels) for _ in range(depth))
            q = parse_query_path(random_query_text(rng, [path]))
            encoded = path.encode() + b"\x00"
            fed = None
            seen_match = False
            for b in encoded:
                fed = self.feed(q, bytes([b]), fed)
                if fed is None:
                    assert not seen_match, (q.text, path)
                    break
                if seen_match:
                    assert fed[2], (q.text, path)
                seen_match = fed[2]


def _follows(matcher, state: int, b: int) -> bool:
    """Whether the evaluator follows an edge of byte `b` from `state`: the
    byte lies in the state's hull and its row entry is not dead."""
    lo, hi = matcher.hulls[state]
    t = matcher.rows[state][b]
    if t is None:
        t = matcher.target(state, b)
    return lo <= b <= hi and t != _DEAD


def _assert_same_outcomes(literal, dfa, data: bytes, cuts: list[int]) -> None:
    """Feed `data`, split at `cuts` into node substrings (some empty), to
    both matchers; before each feed their hulls and followed bytes must
    agree, and each feed must end alike, until a dead end or a match."""
    bounds = sorted(min(c, len(data)) for c in cuts)
    pieces = [data[a:b] for a, b in zip([0] + bounds, bounds + [len(data)])]
    lstate, astate = literal.start, dfa.start
    for piece in pieces:
        assert literal.hulls[lstate] == dfa.hulls[astate]
        for b in range(256):
            assert _follows(literal, lstate, b) == _follows(dfa, astate, b), b
        lfed = literal.feed(lstate, piece)
        afed = dfa.feed(astate, piece)
        assert (lfed == _DEAD) == (afed == _DEAD)
        if lfed == _DEAD:
            return
        assert literal.matched[lfed] == dfa.matched[afed]
        if literal.matched[lfed]:
            return
        lstate, astate = lfed, afed


def _automaton_matcher(index, qpath):
    return _LazyDfa(_automaton(qpath, index.zo_ctx))


def _literal_of(qpath) -> _PathLiteral:
    """The matcher of an exact query on an ASCII index, which is its literal."""
    index = SimpleNamespace(scheme="rcas", zo_ctx=None, dfas={})
    literal = query._matcher(index, qpath)
    assert isinstance(literal, _PathLiteral)
    return literal


class TestPathLiteral:
    """The literal that exact queries compile to, against the automata."""

    LABELS = ["a", "b", "ab", "car", "x1"]
    # keys over LABELS with paths of up to three labels
    ZO_KEYS = [CompositeKey.make(p, 0, i) for i, p in enumerate(["/a/b/ab", "/car/x1", "/b"])]

    exact = st.lists(st.sampled_from(LABELS + ["zz"]), min_size=1, max_size=5)
    stored = st.lists(st.sampled_from(LABELS), min_size=1, max_size=3)
    forms = st.sampled_from(["random", "hit", "deeper"])
    cuts = st.lists(st.integers(0, 24), max_size=6)

    @staticmethod
    def _query(labels, form, stored, trailing_slash):
        """A random exact query, the stored path, or the stored path with
        labels appended."""
        if form == "hit":
            labels = stored
        elif form == "deeper":
            labels = stored + labels
        return parse_query_path("/" + "/".join(labels) + ("/" if trailing_slash else ""))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(labels=exact, stored=stored, form=forms, trailing_slash=st.booleans(), cuts=cuts)
    def test_ascii_outcomes_equal_automaton(self, labels, stored, form, trailing_slash, cuts):
        qpath = self._query(labels, form, stored, trailing_slash)
        text = "/" + "/".join(stored)
        data = text.encode("ascii") + b"\x00"
        literal = _literal_of(qpath)
        _assert_same_outcomes(literal, _LazyDfa(_automaton(qpath, None)), data, cuts)
        fed = literal.feed(literal.start, data)
        assert (fed != _DEAD and literal.matched[fed]) == path_matches(qpath, text)

    # printable labels with '*' inside them; a label of '*' alone is the
    # wildcard and makes the query inexact
    label = st.text(st.sampled_from("ab* ~"), min_size=1, max_size=4).filter(lambda label: label != WILDCARD)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(labels=st.lists(label, min_size=1, max_size=5), trailing_slash=st.booleans())
    def test_ascii_literal_is_the_label_join(self, labels, trailing_slash):
        """The literal taken from the query text, less a trailing '/', is
        the labels joined by '/' and the terminator."""
        qpath = parse_query_path("/" + "/".join(labels) + ("/" if trailing_slash else ""))
        assert all(step.label == label for step, label in zip(qpath.steps, labels))
        literal = _literal_of(qpath)
        assert literal.lit == ("/" + "/".join(labels)).encode("ascii") + b"\x00"
        assert literal.matched == bytes(len(literal.lit)) + b"\x01"
        assert literal.hulls == [(b, b) for b in literal.lit] + [query._NO_HULL]

    def _run_zo_exact(self, text):
        """The refs of the exact query `text` on a z-order index over
        ZO_KEYS, after checking that they equal scan's and that the query
        ran on the DFA the index keeps for it."""
        index = build_static(self.ZO_KEYS, "zo")
        qpath = parse_query_path(text)
        everything = ValueRange.closed(0, 2**32 - 1)
        refs = run_query(index, qpath, everything).refs
        assert sorted(refs) == scan(self.ZO_KEYS, qpath, everything)
        assert query._matcher(index, qpath) is index.dfas[qpath]
        return refs

    @pytest.mark.parametrize("text", ["/a/zz", "/zz", "/a/b/ab/car", "/a/b/ab/car/x1", "/zz/", "/a/b/ab/car/"])
    def test_zo_absent_or_too_deep_matches_nothing(self, text):
        assert self._run_zo_exact(text) == []

    @pytest.mark.parametrize(
        "text,want", [("/a/b/ab", [0]), ("/car/x1", [1]), ("/b", [2]), ("/a/b/ab/", [0]), ("/b/", [2]), ("/a/b", [])]
    )
    def test_zo_exact_query_runs_on_the_kept_dfa(self, text, want):
        assert self._run_zo_exact(text) == want

    def test_empty_substring_is_never_a_match(self):
        literal = _literal_of(parse_query_path("/a"))
        assert literal.feed(literal.start, b"") == 0
        assert not literal.matched[0]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), width=st.sampled_from([4, 8]))
    def test_run_query_equals_automaton_and_scan(self, seed, width):
        """Exact queries (hits, misses, absent labels, too deep, trailing
        '/') on every scheme: the literal answers like scan, and with the
        refs in the same order and the same visited count as the automaton."""
        rng = random.Random(seed)
        keys = random_keys(rng, None, width)
        paths = sorted({k.path_text for k in keys})
        deepest = max(paths, key=lambda p: p.count("/"))
        texts = [deepest, deepest + "/a"]
        for _ in range(6):
            labels = rng.choice(paths).split("/")[1:]
            edit = rng.randrange(5)
            if edit == 1:
                labels = labels[: rng.randint(1, len(labels))]
            elif edit == 2:
                labels = labels + [rng.choice(["a", "b", "zz"])]
            elif edit == 3:
                labels[rng.randrange(len(labels))] = rng.choice(["a", "zz"])
            texts.append("/" + "/".join(labels) + rng.choice(["", "/"]))
        values = sorted(k.value_int for k in keys)
        for scheme in SCHEMES:
            index = build_static(keys, scheme)
            for text in texts:
                qpath = parse_query_path(text)
                lo = rng.choice(values)
                hi = rng.choice([v for v in values if v >= lo] + [2**32 - 1])
                vrange = ValueRange.closed(lo, hi, width)
                got = run_query(index, qpath, vrange)
                with mock.patch.object(query, "_matcher", _automaton_matcher):
                    want = run_query(index, qpath, vrange)
                assert (got.refs, got.visited) == (want.refs, want.visited), (scheme, text)
                assert sorted(got.refs) == sorted(scan(keys, qpath, vrange)), (scheme, text)

    def test_value_first_root_with_empty_path(self, bom_keys):
        # The vp root branches on value bytes and holds no path bytes; under
        # a range that every value passes, a root reported as a path match
        # would collect every ref.
        index = build_static(bom_keys, "vp")
        assert index.s_p[0] == b""
        vrange = ValueRange.closed(0, 2**32 - 1)
        for text in ("/bom/item/canoe", "/bom", "/bom/item/car/battery"):
            qpath = parse_query_path(text)
            got = run_query(index, qpath, vrange)
            assert sorted(got.refs) == sorted(scan(bom_keys, qpath, vrange))
            with mock.patch.object(query, "_matcher", _automaton_matcher):
                assert run_query(index, qpath, vrange).visited == got.visited


class TestWorkedQuery:
    def test_result_and_trace(self, bom_index):
        trace = []
        res = run_query(
            bom_index,
            "/bom/item//battery",
            ValueRange.closed(100_000, 500_000),
            trace=trace,
        )
        assert sorted(res.refs) == [0x3, 0x4, 0x8]
        assert res.visited == 5
        visited = {(bom_index.s_v[i], bom_index.s_p[i]) for i in trace}
        assert visited == {
            (b"\x00", b"/bom/item/ca"),      # root
            (b"\x01\x0e\x50", b"noe\x00"),   # canoe leaf, value mismatch
            (b"\x03\xd3", b"r/battery\x00"),  # battery subtree, both match
            (b"\x5a", b""),
            (b"\xb0", b""),
        }
        # the carabiner/car subtree is pruned by the value byte window
        assert (b"\x00", b"r") not in visited

    def test_heavy_car_parts(self, bom_index):
        refs = cas_query(bom_index, "/bom/item/car//", ValueRange.closed(50_000, 2**32 - 1))
        assert sorted(refs) == [0x3, 0x4, 0x8]

    def test_wildcard_point_query(self, bom_index):
        refs = cas_query(bom_index, "/bom/*/car/battery", ValueRange.closed(250714, 250714))
        assert sorted(refs) == [0x3, 0x8]

    def test_universal_query(self, bom_index):
        res = run_query(bom_index, "//", ValueRange.closed(0, 2**32 - 1))
        assert sorted(res.refs) == [0x1, 0x2, 0x3, 0x4, 0x5, 0x6, 0x7, 0x8]
        assert res.visited == 11

    def test_cost_never_exceeds_node_count(self, bom_index, bom_keys):
        rng = random.Random(11)
        paths = [k.path_text for k in bom_keys]
        for _ in range(50):
            lo = rng.randint(0, 300_000)
            hi = rng.randint(lo, 300_000)
            res = run_query(bom_index, random_query_text(rng, paths), ValueRange.closed(lo, hi))
            assert res.visited <= 11


def collect(node):
    """References of every leaf below (and including) `node`."""
    return [r for _, n in node.walk() if n.is_leaf for r in n.refs]


class TestCollect:
    def test_subtree(self, bom_index):
        battery = root(bom_index).child(Dimension.V, 0x03)
        assert sorted(collect(battery)) == [0x3, 0x4, 0x8]

    def test_leaf(self, bom_index):
        leaf = root(bom_index).child(Dimension.V, 0x01)
        assert collect(leaf) == [0x1]

    def test_root_collects_every_reference(self, bom_index):
        assert sorted(collect(root(bom_index))) == [1, 2, 3, 4, 5, 6, 7, 8]


class TestQueryErrors:
    def test_width_mismatch(self, bom_index):
        with pytest.raises(ValueError):
            cas_query(bom_index, "//", ValueRange.closed(0, 1, width=8))

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            ValueRange.closed(5, 4)

    def test_range_bounds_must_share_width(self):
        with pytest.raises(ValueError):
            ValueRange(b"\x00" * 4, b"\xff" * 8)

    @pytest.mark.parametrize(
        "low, high, width, error, message",
        [
            (0, 1, 5, ValueError, "unsupported value width 5, expected one of (4, 8)"),
            (-1, 1, 4, OverflowError, "value -1 is negative"),
            (1 << 32, 1, 4, OverflowError, "value 4294967296 does not fit in 4 bytes"),
            (0, 1 << 64, 8, OverflowError, "value 18446744073709551616 does not fit in 8 bytes"),
            (0, -1, 4, OverflowError, "value -1 is negative"),
            (5, 4, 4, ValueError, "empty range: 5 > 4"),
            (1 << 32, 4, 4, OverflowError, "value 4294967296 does not fit in 4 bytes"),
            (-1, 1 << 32, 4, OverflowError, "value -1 is negative"),
        ],
        ids=["bad_width", "negative_low", "low_too_large", "high_too_large", "negative_high",
             "low_above_high", "overflowing_low_above_high", "both_bad"],
    )
    def test_closed_raises_like_the_validating_constructor(self, low, high, width, error, message):
        """`closed` builds its instance without `__post_init__`, and raises
        what encoding each bound and then validating would raise, in the
        same order: the low bound, the high bound, the empty range."""
        with pytest.raises(error) as got:
            ValueRange.closed(low, high, width)
        assert type(got.value) is error and str(got.value) == message
        with pytest.raises(error) as validated:
            ValueRange(encode_value(low, width), encode_value(high, width))
        assert str(validated.value) == message

    @pytest.mark.parametrize("low, high, width", [(0, 0, 4), (3, 2**32 - 1, 4), (7, 1 << 40, 8)])
    def test_closed_equals_the_validating_constructor(self, low, high, width):
        got = ValueRange.closed(low, high, width)
        want = ValueRange(encode_value(low, width), encode_value(high, width))
        assert type(got) is ValueRange and got == want and hash(got) == hash(want)
        assert (got.low, got.high, got.width) == (want.low, want.high, width)
        with pytest.raises(AttributeError):
            got.low = want.high  # still frozen


def _assert_all_schemes_match_scan(rng, keys, queries, paths):
    """Each query text, or a query drawn from `paths` where it is None,
    against a range drawn from the key values, on every scheme."""
    values = sorted(k.value_int for k in keys)
    indexes = {s: build_static(keys, s) for s in SCHEMES}
    for text in queries:
        lo = rng.choice(values + [0])
        hi = rng.choice([v for v in values if v >= lo] + [values[-1] + 7, lo])
        if lo > hi:
            lo, hi = hi, lo
        vrange = ValueRange.closed(lo, hi)
        qpath = parse_query_path(text or random_query_text(rng, paths))
        want = sorted(scan(keys, qpath, vrange))
        for scheme, index in indexes.items():
            got = run_query(index, qpath, vrange)
            assert sorted(got.refs) == want, (scheme, qpath.text, lo, hi)


_SCAN_LABELS = ["a", "b", "ab"]
_SCAN_SHAPES = ["exact", "star", "desc_label", "trailing", "missing"]


@st.composite
def scan_cases(draw):
    """Keys of one width over a few (path, value) pairs, repeated, with
    random refs; and a query of one of the `_SCAN_SHAPES` with a random
    closed range.  The query's labels and the range's bounds are often
    those of a key."""
    width = draw(st.sampled_from([4, 8]))
    top = (1 << 8 * width) - 1
    labels = st.lists(st.sampled_from(_SCAN_LABELS), min_size=1, max_size=4)
    values = st.sampled_from([0, 1, 255, 256, top]) | st.integers(0, top)
    pairs = draw(st.lists(st.tuples(labels, values), min_size=1, max_size=6))
    picks = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=30))
    refs = draw(st.lists(st.integers(0, (1 << 64) - 1), min_size=len(picks), max_size=len(picks)))
    keys = [
        CompositeKey.make("/" + "/".join(path), value, ref, width)
        for (path, value), ref in zip(picks, refs)
    ]

    steps = list(draw(st.sampled_from([path for path, _ in pairs]) | labels))
    shape = draw(st.sampled_from(_SCAN_SHAPES))
    if shape == "star":
        steps[draw(st.integers(0, len(steps) - 1))] = WILDCARD
    elif shape == "missing":
        steps[-1] = "zz"  # no key holds this label
    text = "/" + "/".join(steps)
    if shape == "desc_label":
        text = "//" + steps[-1]
    elif shape == "trailing":
        text += "//"
    bound = st.sampled_from([v for _, v in pairs]) | st.integers(0, top)
    low, high = sorted((draw(bound), draw(bound)))
    return keys, parse_query_path(text), ValueRange.closed(low, high, width)


class TestScan:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(case=scan_cases(), given_as=st.sampled_from(["key_set", "list", "generator"]))
    def test_equals_one_key_at_a_time(self, case, given_as):
        """The same refs in the same order as the per-key oracle, whatever
        iterable holds the keys."""
        keys, qpath, vrange = case
        held = {"key_set": KeySet.of(keys), "list": list(keys), "generator": (k for k in keys)}[given_as]
        assert scan(held, qpath, vrange) == scan_keys(keys, qpath, vrange)

    def test_empty_input(self):
        everything = ValueRange.closed(0, 2**32 - 1)
        for keys in ([], KeySet.of([]), iter([])):
            assert scan(keys, parse_query_path("//"), everything) == []

    def test_mixed_widths_rejected(self):
        keys = [CompositeKey.make("/a", 1, 1, width=4), CompositeKey.make("/b", 1, 2, width=8)]
        with pytest.raises(ValueError, match="^key value width 8 does not match index width 4$"):
            scan(keys, parse_query_path("//"), ValueRange.closed(0, 7))


# Taken before the edges of a node were ordered by (dimension, byte).
PINNED_VARIABLE_LABELS_SHA256 = "0279b8b760751332e6f2c984b00e4ee44a52efe71cc725e8cdc1a2f746e85d8c"
# Taken while z-order exact queries still ran on a literal of their own.
PINNED_EXACT_SHA256 = "42bb0d882276d854af09860e9f4a3e92debfef0929a6370d9f82cd6b1f2ec5d4"


class TestOracleEquivalence:
    def test_all_schemes_match_scan_on_generated_data(self):
        rng = random.Random(2024)
        for seed in range(6):
            cfg = GeneratorConfig(
                seed=seed,
                key_count=rng.randint(5, 250),
                label_alphabet_size=rng.randint(2, 6),
                max_depth=rng.randint(1, 5),
                duplicate_fraction=0.2,
            )
            keys = records_to_keys(generate(cfg))
            _assert_all_schemes_match_scan(rng, keys, [None] * 40, [k.path_text for k in keys])

        # Over 255 labels, so the z-order code 256 (00 01 00) ends in a zero
        # byte, as the padding units do.  Queries centre on its label.
        cfg = GeneratorConfig(
            seed=7, key_count=1500, label_alphabet_size=320, max_depth=4, duplicate_fraction=0.2
        )
        keys = records_to_keys(generate(cfg))
        codes = ZoContext.from_keys(keys).codes
        assert len(codes) >= 300
        label = next(name for name, code in codes.items() if code == 256)
        paths = [k.path_text for k in keys if label in k.path_text.split("/")]
        fixed = [
            f"/{label}", f"//{label}", f"//{label}//", f"/{label}//", f"/*/{label}",
            f"/{label}/*", f"//*/{label}//", f"/*/*/{label}", f"/{label}/*/*//",
        ]
        _assert_all_schemes_match_scan(rng, keys, fixed + [None] * 80, paths)

    def test_variable_length_labels_pinned(self):
        """150 labels of three and four characters ('/n99', '/n100') give
        label-wise nodes whose edges span both dimensions.  Every scheme
        answers random queries, with point and wide ranges, as scan does,
        and the answers and visited counts equal those pinned before the
        edges were ordered by (dimension, byte)."""
        digest = hashlib.sha256()
        for seed in (31, 32):
            rng = random.Random(seed)
            cfg = GeneratorConfig(seed=seed, key_count=2000, label_alphabet_size=150, duplicate_fraction=0.2)
            keys = records_to_keys(generate(cfg))
            paths = [k.path_text for k in keys]
            values = sorted(k.value_int for k in keys)
            cases = []
            for _ in range(60):
                lo = rng.choice(values)
                hi = lo if rng.random() < 0.5 else rng.choice([v for v in values if v >= lo] + [2**32 - 1])
                qpath = parse_query_path(random_query_text(rng, paths))
                cases.append((qpath, lo, hi, sorted(scan(keys, qpath, ValueRange.closed(lo, hi)))))
            for scheme in SCHEMES:
                index = build_static(keys, scheme)
                if scheme == "lw":
                    assert any(node.mixed for _, node in nodes(index))
                for qpath, lo, hi, want in cases:
                    got = run_query(index, qpath, ValueRange.closed(lo, hi))
                    assert sorted(got.refs) == want, (scheme, qpath.text, lo, hi)
                    digest.update(f"{scheme} {qpath.text} {lo} {hi} {want} {got.visited}\n".encode())
        assert digest.hexdigest() == PINNED_VARIABLE_LABELS_SHA256

    def test_exact_queries_pinned(self):
        """Exact queries on every scheme, at widths 4 and 8: hits, misses
        (a stored path cut short or with one label swapped), absent labels,
        paths deeper than any stored, and each of these with a trailing '/'.
        Every answer equals scan, and the refs in their order and the
        visited counts equal those pinned while z-order exact queries still
        ran on a literal of their own."""
        digest = hashlib.sha256()
        for seed, alphabet, width in ((41, 8, 4), (42, 150, 8)):
            rng = random.Random(seed)
            cfg = GeneratorConfig(seed=seed, key_count=2000, label_alphabet_size=alphabet, duplicate_fraction=0.2)
            keys = records_to_keys(generate(cfg), width)
            paths = sorted({k.path_text for k in keys})
            labels = sorted({label for p in paths for label in p.split("/")[1:]})
            deepest = max(paths, key=lambda p: p.count("/"))
            texts = [deepest, deepest + "/" + labels[0], "/zz", deepest + "/zz"]
            for _ in range(40):
                steps = rng.choice(paths).split("/")[1:]
                edit = rng.randrange(5)
                if edit == 1:
                    steps = steps[: rng.randint(1, len(steps))]
                elif edit == 2:
                    steps = steps + [rng.choice(labels)]
                elif edit == 3:
                    steps[rng.randrange(len(steps))] = rng.choice(labels + ["zz"])
                texts.append("/" + "/".join(steps))
            texts += [text + "/" for text in texts]
            values = sorted(k.value_int for k in keys)
            cases = []
            for text in texts:
                lo = rng.choice(values)
                hi = lo if rng.random() < 0.3 else rng.choice([v for v in values if v >= lo] + [2**32 - 1])
                qpath = parse_query_path(text)
                want = sorted(scan(keys, qpath, ValueRange.closed(lo, hi, width)))
                cases.append((qpath, lo, hi, want))
            for scheme in SCHEMES:
                index = build_static(keys, scheme)
                for qpath, lo, hi, want in cases:
                    got = run_query(index, qpath, ValueRange.closed(lo, hi, width))
                    assert sorted(got.refs) == want, (scheme, qpath.text)
                    digest.update(f"{scheme} {qpath.text} {lo} {hi} {got.refs} {got.visited}\n".encode())
        assert digest.hexdigest() == PINNED_EXACT_SHA256

    def test_prune_soundness_on_adversarial_keys(self):
        rng = random.Random(3030)
        for _ in range(40):
            keys = random_keys(rng, 20)
            paths = [k.path_text for k in keys]
            indexes = {s: build_static(keys, s) for s in SCHEMES}
            for _ in range(15):
                lo = rng.randint(0, 2**20)
                hi = rng.randint(lo, 2**32 - 1)
                vrange = ValueRange.closed(lo, hi)
                qpath = parse_query_path(random_query_text(rng, paths))
                want = sorted(scan(keys, qpath, vrange))
                for scheme, index in indexes.items():
                    got = sorted(run_query(index, qpath, vrange).refs)
                    assert got == want, (scheme, qpath.text)


class TestAutomatonCaches:
    def test_memo_shared_across_indexes(self):
        # Each index keeps its own DFA per query path, and a second query on
        # an index feeds into the memo its first query filled.
        key_sets = [
            records_to_keys(generate(GeneratorConfig(seed=seed, key_count=300, label_alphabet_size=4, max_depth=4)))
            for seed in (41, 42)
        ]
        for text in ("//n01", "/*/n01"):
            qpath = parse_query_path(text)
            for keys, scheme in zip(key_sets, ("rcas", "lw")):
                index = build_static(keys, scheme)
                values = sorted(k.value_int for k in keys)
                for lo, hi in ((values[0], values[len(values) // 2]), (values[len(values) // 3], values[-1])):
                    vrange = ValueRange.closed(lo, hi)
                    want = sorted(scan(keys, qpath, vrange))
                    assert want
                    assert sorted(run_query(index, qpath, vrange).refs) == want, (text, scheme)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_dropping_an_index_frees_its_dfas(self, scheme, bom_keys):
        index = build_static(bom_keys, scheme)
        qpath = parse_query_path("//battery")
        everything = ValueRange.closed(0, 2**32 - 1)
        assert sorted(run_query(index, qpath, everything).refs) == [3, 4, 8]
        dfa = weakref.ref(index.dfas[qpath])
        del index
        gc.collect()
        assert dfa() is None

    def test_other_schemes_leave_the_dfa_of_an_index_alone(self):
        keys = records_to_keys(generate(GeneratorConfig(seed=5, key_count=30_000)))
        rcas, vp = build_static(keys, "rcas"), build_static(keys, "vp")
        qpath = parse_query_path("//n00")
        everything = ValueRange.closed(0, 2**32 - 1)
        want = sorted(scan(keys, qpath, everything))
        assert sorted(run_query(rcas, qpath, everything).refs) == want
        kept = rcas.dfas[qpath]
        assert len(kept.rows) <= _STATE_CACHE_MAX and sum(map(len, kept.memo)) <= len(rcas.end)
        # the same query on vp feeds a DFA of its own
        assert sorted(run_query(vp, qpath, everything).refs) == want
        assert vp.dfas[qpath] is not kept
        assert query._matcher(rcas, qpath) is kept

    def test_full_index_starts_over(self, monkeypatch, bom_keys):
        monkeypatch.setattr(query, "_DFAS_MAX", 3)
        index = build_static(bom_keys, "rcas")
        everything = ValueRange.closed(0, 2**32 - 1)
        for text in ("//battery", "//car", "/bom//", "//item/*", "/*/item//brake"):
            qpath = parse_query_path(text)
            want = sorted(scan(bom_keys, qpath, everything))
            assert sorted(run_query(index, qpath, everything).refs) == want
            assert qpath in index.dfas
            assert len(index.dfas) <= 3

    def test_caches_stay_bounded(self):
        rng = random.Random(4242)
        letters = "abcdefgh"
        keys = []
        many = 4096
        for i in range(many + 1000):
            label = "".join(rng.choice(letters) for _ in range(rng.randint(4, 9)))
            path = f"/d/{label}/hit" if i % 10 == 0 else f"/d/{label}"
            keys.append(CompositeKey.make(path, rng.randint(0, 2**32 - 1), i))
        index = build_static(keys, "rcas")
        # nearly every node is fed once, and their path substrings differ
        assert len(set(index.s_p)) > many
        qpath = parse_query_path("//hit")
        everything = ValueRange.closed(0, 2**32 - 1)
        want = sorted(scan(keys, qpath, everything))
        # one query feeds many entries, but no more than the index has
        # nodes, and the next query keeps its DFA
        assert sorted(run_query(index, qpath, everything).refs) == want
        used = index.dfas[qpath]
        assert many < sum(map(len, used.memo)) <= len(index.end)
        assert query._matcher(index, qpath) is used

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), width=st.sampled_from([4, 8]))
    def test_memo_holds_one_entry_per_node_at_most(self, seed, width):
        """A node is entered in the one path state its parent's substring
        led to, so however many queries a DFA serves, each node with path
        bytes adds at most one memo entry."""
        rng = random.Random(seed)
        cfg = GeneratorConfig(
            seed=seed, key_count=rng.randint(50, 1500), label_alphabet_size=rng.randint(2, 12),
            max_depth=rng.randint(1, 6), duplicate_fraction=0.2,
        )
        keys = records_to_keys(generate(cfg), width)
        paths = [k.path_text for k in keys]
        values = sorted(k.value_int for k in keys)
        texts = ["//", "/*//"] + [random_query_text(rng, paths) for _ in range(20)]
        for scheme in SCHEMES:
            index = build_static(keys, scheme)
            for text in texts * 2:
                lo = rng.choice(values)
                hi = rng.choice([v for v in values if v >= lo] + [(1 << 8 * width) - 1])
                run_query(index, text, ValueRange.closed(lo, hi, width))
            assert index.dfas
            fed = sum(map(bool, index.s_p))  # the nodes with path bytes
            for dfa in index.dfas.values():
                assert sum(map(len, dfa.memo)) <= fed <= len(index.end)

    def test_long_label_keeps_its_dfa(self):
        # a DFA state per label byte: past _STATE_CACHE_MAX, within the
        # bound that its NFA's state count raises
        label = "a" * 20_000
        keys = list(records_to_keys(generate(GeneratorConfig(seed=23, key_count=300))))
        keys += [CompositeKey.make("/n01/" + label, 5, 2**40), CompositeKey.make("/" + label, 9, 2**40 + 1)]
        index = build_static(keys, "rcas")
        qpath = parse_query_path("//" + label)
        everything = ValueRange.closed(0, 2**32 - 1)
        want = sorted(scan(keys, qpath, everything))
        assert want == [2**40, 2**40 + 1]
        assert sorted(run_query(index, qpath, everything).refs) == want
        dfa = index.dfas[qpath]
        rows = list(map(list, dfa.rows))
        assert len(rows) > _STATE_CACHE_MAX
        assert query._matcher(index, qpath) is dfa
        assert sorted(run_query(index, qpath, everything).refs) == want
        assert index.dfas[qpath] is dfa
        assert dfa.rows[: len(rows)] == rows

    def test_state_bound_resets_between_queries(self, monkeypatch, bom_keys):
        index = build_static(bom_keys, "rcas")
        qpath = parse_query_path("//battery")
        everything = ValueRange.closed(0, 2**32 - 1)
        want = sorted(scan(bom_keys, qpath, everything))
        nfa_states = len(query._matcher(index, qpath).nfa.edges)
        # the state bound at 3 states in all
        monkeypatch.setattr(query, "_STATE_CACHE_MAX", 3 - nfa_states)
        starts = []
        for _ in range(3):
            dfa = query._matcher(index, qpath)
            assert len(dfa.rows) <= 3
            assert all(dfa is not earlier for earlier in starts)
            starts.append(dfa)
            assert sorted(run_query(index, qpath, everything).refs) == want
            assert len(dfa.rows) > 3  # this query alone passed the bound

    def test_concurrent_queries_give_each_state_one_id(self):
        cfg = GeneratorConfig(seed=43, key_count=2000, label_alphabet_size=5, max_depth=5)
        keys = records_to_keys(generate(cfg))
        index = build_static(keys, "rcas")
        everything = ValueRange.closed(0, 2**32 - 1)
        texts = ["//n01//n02", "/*/n03//", "//n04/*"]
        want = {t: sorted(scan(keys, parse_query_path(t), everything)) for t in texts}
        assert not index.dfas  # the threads make the index's DFAs as they go
        got = []

        def worker():
            for text in texts * 3:
                got.append(sorted(run_query(index, text, everything).refs) == want[text])

        threads = [threading.Thread(target=worker) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(got) == 36 and all(got)
        for text in texts:
            dfa = index.dfas[parse_query_path(text)]
            assert len(set(dfa._keys)) == len(dfa._keys) == len(dfa._ids) == len(dfa.rows)


class TestIntegerStates:
    """`run_query` against the loop over NFA state sets and (pos, lopen,
    hopen) range states in `reference.run_query_sets`."""

    @pytest.mark.parametrize("width", [4, 8])
    def test_refs_visited_and_trace_equal_state_sets(self, width):
        rng = random.Random(1200 + width)
        cfg = GeneratorConfig(seed=width, key_count=400, label_alphabet_size=5, max_depth=5)
        keys = records_to_keys(generate(cfg), width)
        paths = [k.path_text for k in keys]
        values = sorted(k.value_int for k in keys)
        texts = [random_query_text(rng, paths) for _ in range(200)]
        texts += rng.sample(sorted(set(paths)), 20) + ["/n00/n00/n00/n00/n00/n00", "/n01/zz"]
        ranges = []
        for _ in texts:
            lo = rng.choice(values)
            ranges.append(ValueRange.closed(lo, rng.choice([v for v in values if v >= lo]), width))
        for scheme in SCHEMES:
            index = build_static(keys, scheme)
            for text, vrange in zip(texts, ranges):
                qpath = parse_query_path(text)
                got_trace, want_trace = [], []
                got = run_query(index, qpath, vrange, got_trace)
                want = run_query_sets(index, qpath, vrange, want_trace)
                assert (got.refs, got.visited) == (want.refs, want.visited), (scheme, text)
                assert got_trace == want_trace, (scheme, text)


class TestHulls:
    """A DFA state's hull is read off the ends of its edges' byte classes,
    which holds because every class is spelled in ascending byte order."""

    def test_byte_classes_ascend(self):
        for cls in (query._ANY, query._NONZERO, query._LABEL, *query._SINGLE):
            assert cls and all(a < b for a, b in zip(cls, cls[1:])), cls

    @pytest.mark.parametrize("width", [4, 8])
    def test_hulls_span_the_bytes_of_their_classes(self, width):
        rng = random.Random(3100 + width)
        long = "q" * 3000
        keys = random_keys(rng, 300, width)
        keys += [CompositeKey.make(f"/a/{long}", 5, 900, width), CompositeKey.make(f"/{long}/b", 6, 901, width)]
        paths = [k.path_text for k in keys]
        texts = [random_query_text(rng, paths) for _ in range(120)]
        texts += [f"//{long}", f"/*/{long}//", f"//{long[:-1]}", "//", "/*"]
        everything = ValueRange.closed(0, 2 ** (8 * width) - 1, width)
        for scheme in ("rcas", "lw", "zo"):
            index = build_static(keys, scheme)
            for text in texts:
                run_query(index, text, everything)
            assert index.dfas, scheme
            for dfa in index.dfas.values():
                for (states, _), hull in zip(dfa._keys, dfa.hulls):
                    held = b"".join(cls for s in states for cls, _ in dfa.nfa.edges[s])
                    assert hull == ((min(held), max(held)) if held else query._NO_HULL), scheme


class TestZoAutomatonCache:
    # Over KEYS, 'a' has code 1 and 'b' code 2; over SWAPPED, the reverse.
    KEYS = [CompositeKey.make("/a/b", 7, 0), CompositeKey.make("/b/a", 7, 1)]
    SWAPPED = [CompositeKey.make("/b/a", 7, 0), CompositeKey.make("/a/b", 7, 1)]

    def test_keyed_by_the_label_codes(self):
        swapped = self.SWAPPED
        qpath = parse_query_path("//a")
        everything = ValueRange.closed(0, 2**32 - 1)
        answers, indexes = [], []
        for keys in (self.KEYS, swapped):
            index = build_static(keys, "zo")
            answers.append(run_query(index, qpath, everything).refs)
            assert answers[-1] == scan(keys, qpath, everything)
            indexes.append(index)
        assert answers[0] != answers[1]
        assert indexes[0].dfas[qpath] is not indexes[1].dfas[qpath]


class TestWideValues:
    def test_eight_byte_width_round_trip(self):
        keys = [
            CompositeKey.make("/srv/logs", 5_000_000_000, 1, width=8),
            CompositeKey.make("/srv/logs", 12, 2, width=8),
            CompositeKey.make("/srv/data", 1 << 40, 3, width=8),
            CompositeKey.make("/srv", 0, 4, width=8),
        ]
        for scheme in SCHEMES:
            index = build_static(keys, scheme)
            assert index.value_width == 8
            got = cas_query(index, "/srv//", ValueRange.closed(100, 1 << 41, width=8))
            assert sorted(got) == [1, 3]


class TestZoEdges:
    def test_label_missing_from_dictionary_matches_nothing(self, bom_keys):
        index = build_static(bom_keys, "zo")
        assert cas_query(index, "//nonexistent", ValueRange.closed(0, 2**32 - 1)) == []
        assert cas_query(index, "/bom//nonexistent//", ValueRange.closed(0, 2**32 - 1)) == []
        assert cas_query(index, "/bom/nonexistent", ValueRange.closed(0, 2**32 - 1)) == []

    def test_query_deeper_than_any_path(self, bom_keys):
        index = build_static(bom_keys, "zo")
        q = "/bom/item/car/battery/cell"
        assert cas_query(index, q, ValueRange.closed(0, 2**32 - 1)) == []

    def test_wildcard_never_matches_padding(self, bom_keys):
        index = build_static(bom_keys, "zo")
        # /bom/item has depth 2; a wildcard must not match the padding unit
        got = cas_query(index, "/bom/item/*/*", ValueRange.closed(0, 2**32 - 1))
        want = sorted(scan(bom_keys, parse_query_path("/bom/item/*/*"), ValueRange.closed(0, 2**32 - 1)))
        assert sorted(got) == want
        assert 0x1 not in got  # the canoe key has only three labels


class TestLoadedIndexAnswers:
    def test_saved_and_loaded_index_agree(self, bom_keys, bom_index, tmp_path):
        from rcas.trie import load, save

        target = tmp_path / "bom.idx"
        save(bom_index, str(target))
        again = load(str(target))
        for q, lo, hi in [
            ("/bom/item//battery", 100_000, 500_000),
            ("//", 0, 2**32 - 1),
            ("/bom/item/car//", 50_000, 2**32 - 1),
        ]:
            vrange = ValueRange.closed(lo, hi)
            assert sorted(cas_query(again, q, vrange)) == sorted(cas_query(bom_index, q, vrange))
