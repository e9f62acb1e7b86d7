import dataclasses
import gc
import hashlib
import mmap
import random
import struct
import sys
import tracemalloc
import zlib
from array import array
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rcas import trie
from rcas.cli import main
from rcas.dataset import BOM_EXAMPLE, GeneratorConfig, generate, records_to_keys
from rcas.interleave import ZoContext, static_interleave
from rcas.keys import _DIM_CODE, CompositeKey, Dimension
from rcas.query import ValueRange, parse_query_path, run_query, scan
from rcas.trie import (
    _MIXED,
    SCHEMES,
    RcasIndex,
    _read_varints,
    build_static,
    bulk_load,
    collect_stats,
    load_bytes,
    save_bytes,
)

from conftest import random_keys, random_query_text
from reference import dim_bytes, dynamic_interleave, node_kind_for, tree_shape
from treeview import DIM_FROM_CODE, Node, NodeView, make_index, nodes, root

P, V, BOT = Dimension.P, Dimension.V, Dimension.BOT

# The expected index over the running example, written as
# (s_v hex, s_p, dim, children-by-edge | refs).
EXPECTED_BOM_TREE = (
    "00", b"/bom/item/ca", V,
    {
        (V, 0x00): (
            "00", b"r", P,
            {
                (P, 0x2F): (
                    "", b"/b", V,
                    {
                        (V, 0x0A): ("0a8c", b"umper\x00", BOT, [0x7]),
                        (V, 0x0B): ("0b4a", b"elt\x00", BOT, [0x5]),
                        (V, 0x0C): ("0cc2", b"rake\x00", BOT, [0x6]),
                    },
                ),
                (P, 0x61): ("00f1", b"abiner\x00", BOT, [0x2]),
            },
        ),
        (V, 0x01): ("010e50", b"noe\x00", BOT, [0x1]),
        (V, 0x03): (
            "03d3", b"r/battery\x00", V,
            {
                (V, 0x5A): ("5a", b"", BOT, [0x3, 0x8]),
                (V, 0xB0): ("b0", b"", BOT, [0x4]),
            },
        ),
    },
)


# The RCAS3 file of the running example's rcas index, byte for byte: the
# header (magic, scheme 0, width 4, 8 keys, 11 nodes, 10 path and 10 value
# table entries, 53 bytes of varints), the dimension codes, the varints (the
# path table's lengths, the value table's, then each node's path id, value id
# and child or ref count), the edge bytes, the path and the value table
# entries, the refs and the CRC-32.
EXAMPLE_RCAS3 = (
    "5243415333" "00" "04" "0000000000000008" "000000000000000b"
    "000000000000000a" "000000000000000a" "0000000000000035"
    "0100010202020202010202"
    "0c01020604050704" "0a00"
    "0100020202020302" "0101"
    "000003" "010002" "020103" "030201" "040301" "050401" "060501" "070601"
    "080702" "090802" "090901"
    "0001032f610a0b0c5ab0"
    "2f626f6d2f6974656d2f6361" "72" "2f62" "756d70657200" "656c7400" "72616b6500"
    "6162696e657200" "6e6f6500" "722f62617474657279" "00"
    "00" "0a8c" "0b4a" "0cc2" "00f1" "010e50" "03d3" "5a" "b0"
    "0705060201030804"
    "f0b2b146"
)

# One SHA-256 over the index file, `BuildStats` and `IndexStats` of every
# scheme for generator seeds 5 and 6 at widths 4 and 8 (3,000 keys, 30%
# duplicates), so that a change meant to keep every index as it is shows
# any drift.
PINNED_INDEXES_SHA256 = "c6252b1a32512af875852ccccd5f1971c0ed87a4634c88c60f9e6dc69d60ff67"

# The same over the 150-label dataset (seed 3, 3,000 keys, 30% duplicates) at
# widths 4 and 8, whose labels of one to three bytes make lw build nodes whose
# edges span both dimensions (24 and 30 of them), so that the digest covers
# the RCAS3 section of their edge codes.
PINNED_MIXED_INDEXES_SHA256 = "8fb49483d56b1d602fb4984c81b043adeff12d573e4d15a40505cf2fa0a8bd5e"

# The example's index file in every scheme, for corrupting.
EXAMPLE_BLOBS = [save_bytes(build_static(records_to_keys(BOM_EXAMPLE), s)) for s in SCHEMES]


def assert_tree_equal(node: NodeView, expected) -> None:
    s_v_hex, s_p, dim, rest = expected
    assert node.s_v == bytes.fromhex(s_v_hex)
    assert node.s_p == s_p
    assert node.dim is dim
    if dim is BOT:
        assert node.children == []
        assert node.refs == rest
    else:
        assert node.refs is None
        edges = {(d, b): child for d, b, child in node.children}
        assert set(edges) == set(rest)
        for edge, sub in rest.items():
            assert_tree_equal(edges[edge], sub)


class TestBulkLoad:
    def test_example_tree_structure(self, bom_index):
        assert sum(1 for _ in nodes(bom_index)) == 11
        assert_tree_equal(root(bom_index), EXPECTED_BOM_TREE)

    def test_children_in_ascending_byte_order(self, bom_index):
        for _, node in nodes(bom_index):
            bytes_ = [b for _, b, _ in node.children]
            assert bytes_ == sorted(bytes_)

    def test_singleton(self):
        k = CompositeKey.make("/only/one", 77, 5)
        index = bulk_load([k])
        top = root(index)
        assert top.is_leaf
        assert top.s_p == k.path
        assert top.s_v == k.value
        assert top.refs == [5]

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            bulk_load([])

    def test_mixed_widths_rejected(self):
        a = CompositeKey.make("/a", 1, 1, width=4)
        b = CompositeKey.make("/b", 1, 2, width=8)
        with pytest.raises(ValueError):
            bulk_load([a, b])

    def test_paths_must_end_in_their_only_nul(self):
        # the partitioner relies on a prefix-free path set: b"/a" is a
        # prefix of b"/ab", and b"/a\x00b\x00" holds its NUL twice
        value = (7).to_bytes(4, "big")
        for paths in ([b"/a", b"/ab"], [b"/a\x00b\x00"], [b"", b"/b\x00"]):
            keys = [CompositeKey(p, value, i) for i, p in enumerate(paths)]
            for scheme in ("rcas", "pv", "vp", "lw"):
                with pytest.raises(ValueError, match="NUL"):
                    build_static(keys, scheme)

    def test_refs_must_fit_64_bits(self):
        for ref in (-1, 2**64):
            keys = [CompositeKey.make("/a", 1, 0), CompositeKey.make("/b", 2, ref)]
            for scheme in SCHEMES:
                with pytest.raises(ValueError, match="refs"):
                    build_static(keys, scheme)

    def test_errors_name_the_fault(self):
        four, eight = CompositeKey.make("/a", 1, 1, width=4), CompositeKey.make("/b", 1, 2, width=8)
        cases = [
            ([], "cannot build an index over an empty key set"),
            ([four, eight], "key value width 8 does not match index width 4"),
            ([four, CompositeKey(b"/c\x00", four.value, 2**64)], "refs must lie in 0 .. 2**64 - 1 ("),
        ]
        for keys, message in cases:
            for scheme in SCHEMES:
                with pytest.raises(ValueError) as info:
                    build_static(keys, scheme)
                assert str(info.value).startswith(message)

    def test_leaves_reproduce_input_multiset(self):
        rng = random.Random(4040)
        for _ in range(60):
            keys = random_keys(rng)
            index = bulk_load(keys)
            seen = []
            for _, node in nodes(index):
                if node.is_leaf:
                    path, value = _reconstruct(root(index), node)
                    seen.extend((path, value, r) for r in node.refs)
            assert sorted(seen) == sorted((k.path, k.value, k.ref) for k in keys)

    def test_leaf_ref_lists_keep_input_order(self):
        keys = [
            CompositeKey.make("/a/b", 9, 31),
            CompositeKey.make("/a/c", 9, 7),
            CompositeKey.make("/a/b", 9, 11),
            CompositeKey.make("/a/b", 9, 2),
        ]
        for scheme in SCHEMES:
            leaf_refs = [n.refs for _, n in nodes(build_static(keys, scheme)) if n.is_leaf]
            assert sorted(leaf_refs) == [[7], [31, 11, 2]], scheme

    def test_spread_duplicates_keep_input_order(self):
        # each distinct key recurs at random places in the input, under
        # distinct random refs, so input order is not ref order
        rng = random.Random(5151)
        distinct = random_keys(rng, 40)
        chosen = rng.choices(distinct, k=600)
        refs = rng.sample(range(1 << 62), len(chosen))
        keys = [CompositeKey(k.path, k.value, ref) for k, ref in zip(chosen, refs)]
        by_key: dict[tuple[bytes, bytes], list[int]] = {}
        for k in keys:
            by_key.setdefault((k.path, k.value), []).append(k.ref)
        want = sorted(by_key.values())
        assert max(map(len, want)) > 10
        for scheme in SCHEMES:
            leaf_refs = [n.refs for _, n in nodes(build_static(keys, scheme)) if n.is_leaf]
            assert sorted(leaf_refs) == want, scheme

    def test_no_duplicate_siblings(self):
        rng = random.Random(4242)
        for _ in range(40):
            keys = random_keys(rng)
            for _, node in nodes(bulk_load(keys)):
                sigs = [(c.s_p, c.s_v, c.dim) for _, _, c in node.children]
                assert len(sigs) == len(set(sigs))

    def test_single_child_inner_nodes_cannot_arise(self):
        rng = random.Random(4343)
        for _ in range(40):
            keys = random_keys(rng)
            for _, node in nodes(bulk_load(keys)):
                if not node.is_leaf:
                    assert len(node.children) >= 2

    def test_paths_spell_dynamic_interleavings(self):
        rng = random.Random(888)
        for _ in range(30):
            keys = random_keys(rng, 15)
            index = bulk_load(keys)
            for key in keys:
                tuples = dynamic_interleave(key, keys)
                node = root(index)
                chain = [node]
                for t in tuples[:-1]:
                    edge_dim = t.dim
                    pos = sum(len(x.s_p if edge_dim is P else x.s_v) for x in chain)
                    byte = dim_bytes(key, edge_dim)[pos]
                    node = node.child(edge_dim, byte)
                    assert node is not None
                    chain.append(node)
                assert [(n.s_p, n.s_v, n.dim) for n in chain] == [
                    (t.s_p, t.s_v, t.dim) for t in tuples
                ]

    def test_builds_leave_the_recursion_limit_alone(self):
        limit = sys.getrecursionlimit()
        # each path extends the previous one, so the trie is about as deep
        # as the longest path is long
        keys = [CompositeKey.make("/" + "a" * n, 7, n) for n in range(1, limit + 3)]
        everything = ValueRange.closed(0, 2**32 - 1)
        for scheme in ("rcas", "pv"):
            index = build_static(keys, scheme)
            assert sys.getrecursionlimit() == limit, scheme
            assert max(collect_stats(index).depth_histogram) > limit, scheme
            assert sorted(run_query(index, "//", everything).refs) == [k.ref for k in keys]

    def test_deterministic_rebuild(self):
        rng = random.Random(31337)
        keys = random_keys(rng, 40)
        assert save_bytes(bulk_load(keys)) == save_bytes(bulk_load(keys))


class TestEveryScheme:
    def test_paths_spell_interleavings(self):
        """Every root-to-leaf path of every scheme spells its key: the
        dynamic interleaving of `reference` for rcas, the tagged string of
        `static_interleave` for the static schemes."""
        rng = random.Random(6060)
        for i in range(300):
            width = 4 if i % 2 else 8
            keys = random_keys(rng, 1 if i % 10 == 0 else None, width)
            if i % 10 == 3:  # every key on one path
                keys = [CompositeKey(keys[0].path, k.value, k.ref) for k in keys]
            elif i % 10 == 6:  # every key with one value
                keys = [CompositeKey(k.path, keys[0].value, k.ref) for k in keys]
            for scheme in SCHEMES:
                index = build_static(keys, scheme)
                for key in keys:
                    if scheme == "rcas":
                        _assert_spells_dynamic(root(index), key, keys)
                    else:
                        tagged = static_interleave(key, scheme, index.zo_ctx)
                        _assert_spells_tagged(root(index), key, tagged)


def _assert_spells_dynamic(top: NodeView, key: CompositeKey, keys) -> None:
    node = top
    consumed = {P: 0, V: 0}
    for t in dynamic_interleave(key, keys):
        assert (node.s_p, node.s_v, node.dim) == (t.s_p, t.s_v, t.dim)
        consumed[P] += len(t.s_p)
        consumed[V] += len(t.s_v)
        if t.dim is BOT:
            assert key.ref in node.refs
            return
        assert not node.mixed
        node = node.child(t.dim, dim_bytes(key, t.dim)[consumed[t.dim]])
        assert node is not None
    raise AssertionError("the interleaving ends above a leaf")


def _assert_spells_tagged(top: NodeView, key: CompositeKey, tagged: bytes) -> None:
    symbols = list(zip(tagged[0::2], tagged[1::2]))  # (dimension code, byte)
    node, at = top, 0
    while True:
        seg = symbols[at : at + len(node.s_p) + len(node.s_v)]
        assert node.s_p == bytes(b for c, b in seg if c == _DIM_CODE[P])
        assert node.s_v == bytes(b for c, b in seg if c == _DIM_CODE[V])
        at += len(seg)
        if node.is_leaf:
            assert at == len(symbols) and key.ref in node.refs
            return
        edges = [(_DIM_CODE[d], b) for d, b, _ in node.children]
        assert edges == sorted(set(edges))  # strictly ascending by (dimension code, byte)
        assert node.dim is DIM_FROM_CODE[edges[0][0]]
        assert node.mixed == (edges[0][0] != edges[-1][0])
        code, byte = symbols[at]
        node = node.child(DIM_FROM_CODE[code], byte)
        assert node is not None


def _reconstruct(top: NodeView, target: NodeView):
    """Concatenate substrings along the root-to-target path."""

    def walk(node, p, v):
        p += node.s_p
        v += node.s_v
        if node == target:
            return p, v
        for _, _, child in node.children:
            hit = walk(child, p, v)
            if hit:
                return hit
        return None

    res = walk(top, b"", b"")
    assert res is not None
    return res


class TestNodeKinds:
    @pytest.mark.parametrize(
        "count,kind",
        [(1, 4), (3, 4), (4, 4), (5, 16), (16, 16), (17, 48), (48, 48), (49, 256), (256, 256)],
    )
    def test_smallest_sufficient_kind(self, count, kind):
        assert node_kind_for(count) == kind

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            node_kind_for(0)
        with pytest.raises(ValueError):
            node_kind_for(257)

    def test_stats_count_the_smallest_sufficient_kinds(self):
        """`collect_stats` classifies every node as `node_kind_for` does (a
        label-wise node over 256 children under the largest kind)."""
        rng = random.Random(4242)
        for _ in range(20):
            keys = random_keys(rng, 60)
            for scheme in SCHEMES:
                index = build_static(keys, scheme)
                want = Counter(
                    ("leaf" if n.is_leaf else str(node_kind_for(min(len(n.children), 256))), n.dim.value)
                    for _, n in nodes(index)
                )
                assert collect_stats(index).kind_dim_counts == dict(want), scheme


class TestStats:
    def test_example_counts(self, bom_index):
        stats = collect_stats(bom_index)
        assert stats.node_count == 11
        assert stats.leaf_count == 7
        assert stats.unique_key_count == 7
        assert stats.key_count == 8
        assert stats.depth_histogram == {0: 1, 1: 3, 2: 4, 3: 3}
        assert stats.avg_leaf_depth == pytest.approx(16 / 7)
        assert stats.avg_node_depth == pytest.approx(20 / 11)
        assert stats.kind_dim_counts == {
            ("4", "P"): 1,
            ("4", "V"): 3,
            ("leaf", "bot"): 7,
        }
        assert stats.size_estimate > 0

    def test_singleton_stats(self):
        index = bulk_load([CompositeKey.make("/x", 1, 1)])
        stats = collect_stats(index)
        assert stats.node_count == 1
        assert stats.depth_histogram == {0: 1}
        assert stats.avg_node_depth == 0.0

    def test_chain_deeper_than_recursion_limit(self):
        depth = 2 * sys.getrecursionlimit()
        index = _chain_index(depth)
        stats = collect_stats(index)
        assert stats.node_count == depth + 1
        assert max(stats.depth_histogram) == depth
        assert stats.leaf_count == 1

    def test_chain_deeper_than_recursion_limit_saves_loads_and_answers(self, tmp_path):
        index = _chain_index(2 * sys.getrecursionlimit())
        blob = save_bytes(index)
        assert save_bytes(load_bytes(blob)) == blob
        assert run_query(index, "//", ValueRange.closed(0, 2**32 - 1)).refs == [1]
        target = tmp_path / "chain.idx"
        target.write_bytes(blob)
        assert main(["query", "//", "0", "4294967295", "--load", str(target)]) == 0
        assert main(["stats", "--load", str(target)]) == 0


def _chain_index(depth: int) -> RcasIndex:
    """A hand-built trie: `depth` one-child path nodes, one path byte each,
    above a single leaf; together they spell ('/' + 'a' * (depth - 1), 7)."""
    node = Node(b"\x00", b"\x00\x00\x00\x07", BOT, [], [1])
    for i in range(depth):
        node = Node(b"a" if i < depth - 1 else b"/", b"", P, [(P, node.s_p[0], node)], None)
    return make_index(node, value_width=4)


def _build_counters(keys):
    stats = bulk_load(keys).build_stats
    return stats.byte_scans, stats.moves


class TestKeySetInput:
    """The builders read a key set's columns; a plain list of keys is
    numbered into one first, and gives the same index."""

    @pytest.mark.parametrize("width", [4, 8])
    def test_same_file_from_a_list_and_a_key_set(self, width):
        cfg = GeneratorConfig(seed=21, key_count=1500, duplicate_fraction=0.3)
        keys = records_to_keys(generate(cfg), width)
        plain = list(keys)
        assert type(plain[0]) is CompositeKey
        ctx = ZoContext.from_keys(keys)
        assert ctx == ZoContext.from_keys(plain)
        for scheme in SCHEMES:
            a, b = build_static(keys, scheme, ctx), build_static(plain, scheme, ctx)
            assert save_bytes(a) == save_bytes(b)
            assert a.build_stats == b.build_stats
            assert collect_stats(a) == collect_stats(b)
        assert save_bytes(bulk_load(keys)) == save_bytes(bulk_load(plain))

    def test_slices_build_their_own_keys(self):
        keys = records_to_keys(generate(GeneratorConfig(seed=22, key_count=600)))
        part = keys[100:400:3]
        for scheme in SCHEMES:
            assert save_bytes(build_static(part, scheme)) == save_bytes(build_static(list(part), scheme))


class TestBuildInstrumentation:
    def test_example_bounds(self, bom_keys):
        scans, moves = _build_counters(bom_keys)
        distinct = {(k.path, k.value) for k in bom_keys}
        assert scans <= sum(len(p) + len(v) for p, v in distinct)
        assert scans <= 7 * (22 + 4)
        longest = max(len(k.path) + len(k.value) for k in bom_keys)
        assert moves <= longest * len(bom_keys)

    def test_singleton_costs(self):
        k = CompositeKey.make("/a/b/c", 123, 1)
        scans, moves = _build_counters([k])
        assert scans == len(k.path) + len(k.value)
        assert moves == 0

    def test_duplicating_refs_at_most_doubles_counters(self):
        rng = random.Random(2020)
        keys = random_keys(rng, 30)
        doubled = keys + [CompositeKey(k.path, k.value, k.ref + 10_000) for k in keys]
        s1, m1 = _build_counters(keys)
        s2, m2 = _build_counters(doubled)
        assert s2 <= 2 * s1
        assert m2 <= 2 * m1

    def test_counters_are_read_off_the_trie(self):
        """`byte_scans` is the bytes of all node substrings, and `moves` the
        refs of each leaf times its depth, the inner nodes above it."""
        rng = random.Random(2929)
        for _ in range(20):
            keys = random_keys(rng, width=rng.choice((4, 8)))
            for scheme in SCHEMES:
                index = build_static(keys, scheme)
                walked = list(nodes(index))
                stats = index.build_stats
                assert stats.byte_scans == sum(len(n.s_p) + len(n.s_v) for _, n in walked), scheme
                assert stats.moves == sum(len(n.refs) * depth for depth, n in walked if n.is_leaf), scheme

    def test_generator_datasets_within_bounds(self):
        for seed in (1, 2, 3):
            cfg = GeneratorConfig(seed=seed, key_count=400, duplicate_fraction=0.25)
            keys = records_to_keys(generate(cfg))
            scans, moves = _build_counters(keys)
            distinct = {(k.path, k.value) for k in keys}
            assert scans <= sum(len(p) + len(v) for p, v in distinct)
            longest = max(len(k.path) + len(k.value) for k in keys)
            assert moves <= longest * len(keys)


class TestStaticBuilds:
    def test_pv_first_divergence_at_path_byte(self, bom_keys):
        top = root(build_static(bom_keys, "pv"))
        # all 20 interleaved positions up to the discriminative path byte are shared
        assert top.s_p == b"/bom/item/ca"
        assert top.s_v == b""
        assert top.dim is P
        assert {b for _, b, _ in top.children} == {ord("n"), ord("r")}

    def test_vp_first_divergence_at_value_byte(self, bom_keys):
        top = root(build_static(bom_keys, "vp"))
        assert top.s_v == b"\x00"
        assert top.s_p == b""
        assert top.dim is V
        assert {b for _, b, _ in top.children} == {0x00, 0x01, 0x03}

    def test_zo_context_exactly_on_zo(self, bom_keys):
        zo = build_static(bom_keys, "zo")
        with pytest.raises(ValueError, match="z-order context"):
            dataclasses.replace(zo, zo_ctx=None)
        with pytest.raises(ValueError, match="z-order context"):
            dataclasses.replace(build_static(bom_keys, "rcas"), zo_ctx=zo.zo_ctx)

    def test_unknown_scheme_rejected(self, bom_keys):
        with pytest.raises(ValueError, match="^unknown scheme 'nope'$"):
            build_static(bom_keys, "nope")

    def test_singleton_static(self):
        k = CompositeKey.make("/s", 3, 9)
        for scheme in ("pv", "vp", "lw", "zo"):
            top = root(build_static([k], scheme))
            assert top.is_leaf
            assert top.refs == [9]

    def test_leaves_reproduce_keys_for_all_schemes(self, bom_keys):
        for scheme in SCHEMES:
            index = build_static(bom_keys, scheme)
            leaf_refs = sorted(r for _, n in nodes(index) if n.is_leaf for r in n.refs)
            assert leaf_refs == sorted(k.ref for k in bom_keys)

    def test_lw_mixed_dimension_siblings(self):
        # after the shared '/ab' label, '/ab' and '/abc' part at a path byte
        # while the value bytes 0x10 and 0x70 part at the same symbol
        keys = [
            CompositeKey.make("/ab/x", 0x00100000, 1),
            CompositeKey.make("/abc/y", 0x00100000, 2),
            CompositeKey.make("/ab/z", 0x00700000, 3),
        ]
        index = build_static(keys, "lw")
        top = root(index)
        assert top.dim is P  # a mixed node's path edges come first
        assert top.s_p == b"/ab"
        assert [(d, b) for d, b, _ in top.children] == [(P, 0x63), (V, 0x10), (V, 0x70)]
        assert top.mixed
        everything = ValueRange.closed(0, 2**32 - 1)
        for text in ("//", "/ab//", "/abc/*", "//x"):
            qpath = parse_query_path(text)
            want = sorted(scan(keys, qpath, everything))
            assert sorted(run_query(index, qpath, everything).refs) == want
        # narrow ranges: a window on the root's first edge dimension alone
        # would drop the edges of the other one
        for text, value, want in [
            ("/abc/*", 0x00100000, [2]),
            ("/ab/*", 0x00700000, [3]),
            ("/ab/*", 0x00100000, [1]),
            ("//y", 0x00100000, [2]),
        ]:
            qpath = parse_query_path(text)
            point = ValueRange.closed(value, value)
            assert sorted(scan(keys, qpath, point)) == want
            assert sorted(run_query(index, qpath, point).refs) == want

    def test_rcas_scheme_aliases_bulk_load(self, bom_keys, bom_index):
        assert save_bytes(build_static(bom_keys, "rcas")) == save_bytes(bom_index)


class TestSerialization:
    def test_magic_prefix(self, bom_index):
        assert save_bytes(bom_index).startswith(b"RCAS3")

    def test_round_trip_all_schemes(self, bom_keys):
        for scheme in SCHEMES:
            index = build_static(bom_keys, scheme)
            blob = save_bytes(index)
            again = load_bytes(blob)
            assert save_bytes(again) == blob
            assert again.scheme == scheme
            assert again.value_width == index.value_width
            assert again.key_count == index.key_count

    @pytest.mark.parametrize("width", [4, 8])
    def test_reopened_index_equals_the_saved_one(self, bom_records, width):
        """Saving writes every field that equality compares, so an index
        loaded from its bytes equals the index it was saved from.  On the
        150-label dataset, lw builds nodes whose edges span both dimensions."""
        wide = generate(GeneratorConfig(seed=3, key_count=3000, label_alphabet_size=150))
        for records in (bom_records, wide):
            keys = records_to_keys(records, width)
            indexes = {scheme: build_static(keys, scheme) for scheme in SCHEMES}
            for scheme, index in indexes.items():
                assert load_bytes(save_bytes(index)) == index, scheme
        assert any(node.mixed for _, node in nodes(indexes["lw"]))

    @pytest.mark.parametrize("width", [4, 8])
    def test_reopened_index_reports_the_build_counters(self, bom_records, width):
        """`key_count` and `build_stats` are read off the columns, so a
        reopened index reports those of the index it was saved from."""
        wide = generate(GeneratorConfig(seed=3, key_count=3000, label_alphabet_size=150))
        for records in (bom_records, wide):
            keys = records_to_keys(records, width)
            for scheme in SCHEMES:
                index = build_static(keys, scheme)
                again = load_bytes(save_bytes(index))
                assert again.build_stats == index.build_stats, scheme
                assert again.key_count == index.key_count == len(keys), scheme

    def test_zo_context_survives(self, bom_keys):
        index = build_static(bom_keys, "zo")
        again = load_bytes(save_bytes(index))
        assert again.zo_ctx is not None
        assert again.zo_ctx.codes == index.zo_ctx.codes
        assert again.zo_ctx.max_labels == index.zo_ctx.max_labels

    def test_zo_codes_out_of_insertion_order_round_trip(self):
        """The labels are saved in code order, so a context whose codes do
        not follow its insertion order loads with the same codes, and the
        loaded index answers as the built one."""
        keys = [CompositeKey.make("/a/b", 5, 1), CompositeKey.make("/b/a", 5, 2)]
        index = build_static(keys, "zo", ZoContext(codes={"b": 2, "a": 1}, max_labels=2))
        again = load_bytes(save_bytes(index))
        assert again.zo_ctx.codes == {"a": 1, "b": 2}
        vr = ValueRange.closed(0, 100)
        assert run_query(again, "/a/b", vr).refs == [1]
        for text in ("/a/b", "/b/a", "/a/*", "//a"):
            want = sorted(scan(keys, parse_query_path(text), vr))
            assert sorted(run_query(index, text, vr).refs) == want
            assert sorted(run_query(again, text, vr).refs) == want

    def test_bad_magic_rejected(self, bom_index):
        with pytest.raises(ValueError):
            load_bytes(b"NOPE1" + b"\x00" * 32)
        blob = save_bytes(bom_index)
        with pytest.raises(ValueError, match="bad magic"):  # the earlier format has no reader
            load_bytes(resealed(b"RCAS2" + blob[5:]))

    def test_example_bytes(self, bom_index):
        """The exact RCAS3 bytes of the example index, so that any drift of
        the format fails here first."""
        assert save_bytes(bom_index).hex() == EXAMPLE_RCAS3

    def test_generated_indexes_pinned(self):
        digest = hashlib.sha256()
        for seed in (5, 6):
            for width in (4, 8):
                cfg = GeneratorConfig(seed=seed, key_count=3000, duplicate_fraction=0.3)
                keys = records_to_keys(generate(cfg), width)
                for scheme in SCHEMES:
                    index = build_static(keys, scheme)
                    digest.update(save_bytes(index))
                    digest.update(repr(index.build_stats).encode())
                    digest.update(repr(collect_stats(index)).encode())
        assert digest.hexdigest() == PINNED_INDEXES_SHA256

    def test_generated_mixed_indexes_pinned(self):
        digest = hashlib.sha256()
        mixed = 0
        for width in (4, 8):
            cfg = GeneratorConfig(seed=3, key_count=3000, label_alphabet_size=150, duplicate_fraction=0.3)
            keys = records_to_keys(generate(cfg), width)
            for scheme in ("rcas", "pv", "vp", "lw", "zo"):
                index = build_static(keys, scheme)
                digest.update(save_bytes(index))
                digest.update(repr(index.build_stats).encode())
                digest.update(repr(collect_stats(index)).encode())
                mixed += sum(node.mixed for _, node in nodes(index))
        assert mixed == 24 + 30
        assert digest.hexdigest() == PINNED_MIXED_INDEXES_SHA256

    def test_truncation_rejected(self, bom_index):
        blob = save_bytes(bom_index)
        for cut in (blob[: len(blob) // 2], blob + b"\x00"):
            with pytest.raises(ValueError, match="checksum"):
                load_bytes(cut)
            with pytest.raises(ValueError):
                load_bytes(resealed(cut))
        with pytest.raises(ValueError, match="checksum"):
            load_bytes(blob[:40] + bytes([blob[40] ^ 1]) + blob[41:])
        # records that contradict themselves, each behind a valid checksum
        counts = 5 + 1 + 1 + 8 + 8  # magic, scheme, width, key and node counts
        assert blob[counts : counts + 24] == b"".join(c.to_bytes(8, "big") for c in (10, 10, 53))
        dims = counts + 24  # after the table counts and the varint byte count
        assert blob[dims : dims + 4] == bytes([1, 0, 1, 2])  # V root, P, V, then a leaf
        table = dims + 11
        assert blob[table : table + 2] == bytes([12, 1])  # the lengths of '/bom/item/ca' and 'r'
        root = table + 20  # the root's path id, value id and child count
        assert blob[root : root + 3] == bytes([0, 0, 3])
        edges = table + 53
        assert blob[edges : edges + 3] == bytes([0x00, 0x01, 0x03])  # the root's

        def rejected(at: int, new: bytes, match: str | None = None) -> None:
            with pytest.raises(ValueError, match=match):
                load_bytes(resealed(blob[:at] + new + blob[at + len(new) :]))

        rejected(dims, b"\x02")  # the root as a leaf: its children float free
        rejected(dims + 3, b"\x01")  # a leaf as a V node: its ref count as children
        rejected(dims, b"\x04", "bad dimension code")
        for count in (2, 4):  # not the root's 3 children
            rejected(root + 2, bytes([count]), "tree")
        rejected(root + 2, b"\x00", "without children")
        rejected(table, b"\x8c\x00", "varint")  # 12 spelled in two bytes
        rejected(root, b"\x0a", "past the end of its table")  # 10 path entries
        rejected(root + 1, b"\x0a", "past the end of its table")  # 10 value entries
        for p_count, v_count in ((11, 10), (9, 10), (10, 11)):  # the varints hold 53
            rejected(counts, p_count.to_bytes(8, "big") + v_count.to_bytes(8, "big"), "count")
        # the same number of varints, split one entry later: the value ids run past the end
        rejected(counts, (11).to_bytes(8, "big") + (9).to_bytes(8, "big"), "past the end")
        for swapped in (b"\x01\x00", b"\x00\x00"):  # out of order, repeated
            rejected(edges, swapped, "out of order")
        rejected(edges + 2, b"\x02", "first byte")  # 0x03 leads to '\x03\xd3'
        assert blob[6] == 4
        rejected(6, bytes([151]), "value width 151")  # outside {4, 8}
        rejected(7, (9).to_bytes(8, "big"), "key count")  # 8 refs in the leaves
        battery = blob.index(b"r/battery\x00") + 9
        rejected(battery, b"\x89", "leaf does not end")  # a leaf's path never ends
        rejected(counts - 8, bytes(8), "holds no nodes")  # the node count
        # the first table value, 12, spelled as 16383 in one more varint byte
        wide = blob[: counts + 16] + (54).to_bytes(8, "big") + blob[dims:table] + b"\xff\x7f" + blob[table + 1 :]
        with pytest.raises(ValueError, match="node table out of range"):
            load_bytes(resealed(wide))

    def test_non_canonical_files_rejected(self, bom_keys):
        """A file that would load but not save back to the same bytes:
        a varint spelled longer than it needs, a node marked mixed whose
        edges share one dimension, and a z-order label listed twice."""
        assert list(_read_varints(bytes([0x0C, 0x80, 0x01, 0xFF, 0xFF, 0x03]), 3)) == [12, 128, 65535]
        for column in (b"\x8c\x00", b"\x80" * 10 + b"\x01", b"\xff" * 9 + b"\x02"):
            with pytest.raises(ValueError, match="varint"):
                _read_varints(column, 1)
        blob = save_bytes(build_static(bom_keys, "rcas"))
        dims = 5 + 1 + 1 + 8 * 5  # past the magic, scheme, width and five counts
        mixed = dims + 11 + 53 + 10  # past the 11 node codes, 53 varint bytes and 10 edge bytes
        assert blob[dims] == _DIM_CODE[V]
        # the root marked mixed, with a mixed section that gives its three edges V
        blob = blob[:dims] + bytes([_MIXED]) + blob[dims + 1 : mixed] + bytes([_DIM_CODE[V]] * 3) + blob[mixed:]
        with pytest.raises(ValueError, match="bad child edge"):
            load_bytes(resealed(blob))
        p, v = _DIM_CODE[P], _DIM_CODE[V]
        # codes that share one dimension, a code that is not P or V, and
        # codes that span both dimensions but put a path edge after a value edge
        for codes, match in (([p] * 3, "bad child edge"), ([v, v, 2], "bad child edge"), ([v, p, v], "out of order")):
            with pytest.raises(ValueError, match=match):
                load_bytes(resealed(blob[:mixed] + bytes(codes) + blob[mixed + 3 :]))
        blob = save_bytes(build_static(bom_keys, "zo"))
        at = blob.index(b"/car/")
        with pytest.raises(ValueError, match="label dictionary"):
            load_bytes(resealed(blob[: at + 1] + b"bom" + blob[at + 4 :]))
        with pytest.raises(ValueError, match="not a path label"):
            load_bytes(resealed(blob[: at + 1] + b"\x01" + blob[at + 2 :]))

    def test_unfinished_keys_rejected(self):
        """Records that are well formed one by one, but whose root-to-leaf
        substrings do not spell whole keys."""

        def chain(*nodes):  # (s_p, s_v) per node, the last one a leaf
            node = Node(*nodes[-1], BOT, [], [1])
            for s_p, s_v in reversed(nodes[:-1]):
                node = Node(s_p, s_v, V, [(V, 0, node)], None)
            return node

        def rejected(top, scheme="rcas", ctx=None):
            with pytest.raises(ValueError):
                load_bytes(save_bytes(make_index(top, 4, scheme, ctx)))

        whole = chain((b"/a", b"\x00\x00"), (b"\x00", b"\x00\x01"))
        assert load_bytes(save_bytes(make_index(whole, 4))).key_count == 1
        rejected(chain((b"/a\x00", b"\x00\x00\x01")))  # a value byte short
        rejected(chain((b"/a", b"\x00\x00"), (b"\x00", b"\x00\x01\x02")))  # one too many
        with pytest.raises(ValueError, match="longer than the index width"):  # at the inner node
            load_bytes(save_bytes(make_index(chain((b"/a", b"\x00" * 5), (b"\x00", b"")), 4)))
        rejected(chain((b"/a", b"\x00\x00\x00\x01")))  # no terminator
        rejected(chain((b"/a\x00", b"\x00\x00"), (b"b\x00", b"\x00\x01")))  # bytes past it
        ctx = ZoContext(codes={"a": 1}, max_labels=2)  # surrogate paths of 6 bytes
        zo_leaf = chain((b"\x00\x00\x01\x00\x00\x00", b"\x00\x00\x00\x01"))
        assert load_bytes(save_bytes(make_index(zo_leaf, 4, "zo", ctx))).zo_ctx == ctx
        rejected(chain((b"\x00\x00\x01\x00\x00", b"\x00\x00\x00\x01")), "zo", ctx)
        rejected(chain((b"\x00\x00\x01\x00\x00\x00\x00", b"\x00\x00\x00\x01")), "zo", ctx)

    def test_long_substring_round_trips(self):
        """A 100,000-byte label among ordinary keys builds, saves and loads
        bit-exact with the same substrings, and answers like `scan` in every
        scheme: lengths are varints, with no limit."""
        label = "a" * 100_000
        ordinary = list(records_to_keys(generate(GeneratorConfig(seed=23, key_count=300))))
        keys = ordinary + [
            CompositeKey.make("/n01/" + label, 5, 2**40),
            CompositeKey.make("/n01/" + label + "/n02", 7, 2**40 + 1),
            CompositeKey.make("/" + label, 9, 2**40 + 2),
        ]
        texts = ["//", "//n02", "/n01/" + label, "/" + label, ordinary[0].path_text, "/b"]
        everything = ValueRange.closed(0, 2**32 - 1)
        ranges = [everything, ValueRange.closed(0, 6)]

        def answers_like_scan(ix, text, vr):
            qpath = parse_query_path(text)
            assert sorted(run_query(ix, qpath, vr).refs) == sorted(scan(keys, qpath, vr))

        for scheme in SCHEMES:
            index = build_static(keys, scheme)
            blob = save_bytes(index)
            loaded = load_bytes(blob)
            assert save_bytes(loaded) == blob, scheme
            assert (loaded.s_p, loaded.s_v) == (index.s_p, index.s_v), scheme
            if scheme != "zo":  # whose paths are surrogates
                assert max(map(len, loaded.s_p)) >= 100_000, scheme
            for text in texts:
                for vr in ranges:
                    for ix in (index, loaded):
                        answers_like_scan(ix, text, vr)
            # its DFA has a state per label byte, so it runs once, on the loaded index
            answers_like_scan(loaded, "//" + label, everything)


class TestSubstringTables:
    """Each distinct substring is one object in its table, which the nodes'
    columns share, and refs are one array of unsigned 64-bit ints."""

    @pytest.mark.parametrize("width", [4, 8])
    def test_one_object_per_distinct_substring(self, width):
        keys = records_to_keys(generate(GeneratorConfig(seed=26, key_count=3000)), width)
        for scheme in SCHEMES:
            built = build_static(keys, scheme)
            blob = save_bytes(built)
            loaded = load_bytes(blob)
            assert save_bytes(loaded) == blob, scheme
            assert (loaded.p_tab, loaded.p_id) == (built.p_tab, built.p_id), scheme
            assert (loaded.v_tab, loaded.v_id) == (built.v_tab, built.v_id), scheme
            for ix in (built, loaded):
                for tab, ids, column in ((ix.p_tab, ix.p_id, ix.s_p), (ix.v_tab, ix.v_id, ix.s_v)):
                    assert len(set(tab)) == len(tab), scheme
                    assert len({id(s) for s in column}) == len(tab), scheme
                    assert all(s is tab[i] for s, i in zip(column, ids)), scheme
                    assert list(dict.fromkeys(ids)) == list(range(len(tab))), scheme  # first appearance
            assert len(built.p_tab) + len(built.v_tab) < len(built.end), scheme

    @given(
        st.lists(st.sampled_from(b"ab\x00"), max_size=60).map(bytes).flatmap(
            lambda blob: st.tuples(
                st.just(blob),
                st.lists(
                    st.tuples(st.integers(0, len(blob)), st.integers(0, len(blob))).map(sorted),
                    min_size=1,
                    max_size=30,
                ),
            )
        ),
        st.booleans(),
    )
    @example((b"abcdefghij" * 3, [(0, 10), (3, 10), (10, 20), (13, 20), (3, 13), (0, 0), (5, 5)]), False)
    @example((bytes(range(256)) * 12, [(0, 10), (3000, 3072), (5, 5), (2, 1002), (3071, 3072)]), True)
    def test_table_of_spans(self, blob_ranges, mapped):
        """Short substrings (up to 7 bytes) are grouped by their bytes and
        longer ones by their span; equal long spans at other offsets, as in
        the first example, still share one entry.  The builders' blobs are
        anonymous memory maps, and no view of one outlives the call."""
        blob, ranges = blob_ranges
        start = np.array([a for a, _ in ranges], np.int32)
        stop = np.array([b for _, b in ranges], np.int32)
        if mapped:
            source = mmap.mmap(-1, len(blob) + 1)  # an empty map cannot be made
            source.write(blob)
            tab, ids = trie._table(source, start, stop)
            source.close()
        else:
            tab, ids = trie._table(blob, start, stop)
        subs = [blob[a:b] for a, b in ranges]
        assert all(type(s) is bytes for s in tab)
        assert tab == list(dict.fromkeys(subs))
        assert [tab[i] for i in ids] == subs

    def test_refs_are_unsigned_64_bit(self):
        top = 2**64 - 1
        keys = [CompositeKey.make("/a", 1, 0), CompositeKey.make("/b", 2, top), CompositeKey.make("/b", 2, 5)]
        for scheme in SCHEMES:
            built = build_static(keys, scheme)
            blob = save_bytes(built)
            loaded = load_bytes(blob)
            assert save_bytes(loaded) == blob, scheme
            for ix in (built, loaded):
                assert isinstance(ix.refs, array) and ix.refs.typecode == "Q", scheme
                assert sorted(run_query(ix, "/b", ValueRange.closed(2, 2)).refs) == [5, top], scheme
                assert sorted(run_query(ix, "//", ValueRange.closed(0, 9)).refs) == [0, 5, top], scheme


class TestSlices:
    """`_slices` cuts what plain slicing cuts."""

    BLOB = bytes(range(256)) * 12  # 3,072 bytes

    @staticmethod
    def assert_cuts(blob, ranges, dtype=np.int64):
        start = np.array([a for a, _ in ranges], dtype)
        stop = np.array([b for _, b in ranges], dtype)
        cut = trie._slices(blob, start, stop)
        assert all(type(s) is bytes for s in cut)
        assert cut == [bytes(blob[a:b]) for a, b in ranges]

    @given(
        st.binary(max_size=2500).flatmap(
            lambda blob: st.tuples(
                st.just(blob),
                st.lists(
                    st.tuples(st.integers(0, len(blob)), st.integers(0, len(blob))).map(sorted),
                    max_size=12,
                ),
            )
        ),
        st.sampled_from([np.int32, np.int64]),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_plain_slicing(self, blob_ranges, dtype):
        blob, ranges = blob_ranges
        self.assert_cuts(blob, ranges, dtype)

    def test_cuts_a_memory_map(self):
        """The builders cut from the anonymous map their sequences live in."""
        blob = mmap.mmap(-1, len(self.BLOB))
        blob.write(self.BLOB)
        self.assert_cuts(blob, [(0, 10), (3000, 3072), (5, 5), (2, 1002)])
        blob.close()  # no view of the map outlives the call


def preorder_arity(picks: list[int]) -> list[int]:
    """The child counts, in pre-order, of the tree in which node i + 1 hangs
    below node picks[i] % (i + 1)."""
    children: list[list[int]] = [[] for _ in range(len(picks) + 1)]
    for i, pick in enumerate(picks):
        children[pick % (i + 1)].append(i + 1)
    arity, stack = [], [0]
    while stack:
        node = stack.pop()
        arity.append(len(children[node]))
        stack.extend(reversed(children[node]))
    return arity


class TestShape:
    """`_shape` derives what a stack walk over the child counts reads
    (`reference.tree_shape`), for the counts of the builder (int64) and of
    the loader (int32)."""

    INTS = st.sampled_from([np.int32, np.int64])

    @given(st.lists(st.integers(0, 2**20), max_size=400), INTS)
    @example([], np.int64)  # one node
    @example(list(range(4999)), np.int32)  # a 5,000-node chain
    @example([0] * 1000, np.int64)  # a 1,000-child star
    @settings(max_examples=300, deadline=None)
    def test_equals_a_stack_walk(self, picks, dtype):
        arity = preorder_arity(picks)
        shape = trie._shape(np.array(arity, dtype))
        assert [a.tolist() for a in shape] == list(tree_shape(arity))

    @given(
        st.one_of(
            st.lists(st.integers(0, 3), max_size=40),
            st.builds(
                lambda picks, at, delta: TestShape.miscounted(preorder_arity(picks), at, delta),
                st.lists(st.integers(0, 2**20), max_size=60),
                st.integers(0, 60),
                st.sampled_from([-1, 1]),
            ),
        ),
        INTS,
    )
    @example([], np.int64)  # no node
    @example([1, 0, 0], np.int32)  # too few children: a second tree starts
    @example([2, 0], np.int64)  # too many: a child never comes
    @example([0, 1], np.int32)  # the root is a leaf, then a node follows
    @settings(max_examples=300, deadline=None)
    def test_counts_of_no_tree_raise_like_a_stack_walk(self, arity, dtype):
        try:
            want = tree_shape(arity)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                trie._shape(np.array(arity, dtype))
            assert str(raised.value) == str(exc)
        else:
            assert [a.tolist() for a in trie._shape(np.array(arity, dtype))] == list(want)

    @staticmethod
    def miscounted(arity: list[int], at: int, delta: int) -> list[int]:
        """The counts of a tree with one count one higher or lower."""
        arity[at % len(arity)] = max(0, arity[at % len(arity)] + delta)
        return arity


class TestProcessState:
    """Building, saving and loading leave nothing behind in the process."""

    def test_no_module_level_struct_calls(self, monkeypatch):
        """The `struct` module's functions keep every format they compile in
        a process-wide cache; the index code calls none of them."""

        def refuse(*args, **kwargs):
            raise AssertionError("a module-level struct function was called")

        for name in ("pack", "pack_into", "unpack", "unpack_from", "iter_unpack", "calcsize"):
            monkeypatch.setattr(struct, name, refuse)
        keys = records_to_keys(generate(GeneratorConfig(seed=24, key_count=1500)))
        for scheme in SCHEMES:
            blob = save_bytes(build_static(keys, scheme))
            assert save_bytes(load_bytes(blob)) == blob, scheme

    def test_loading_and_dropping_an_index_frees_it(self):
        keys = records_to_keys(generate(GeneratorConfig(seed=25, key_count=30_000)), 8)
        blob = save_bytes(bulk_load(keys))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            index = load_bytes(blob)
            assert index.key_count == 30_000
            del index
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 0.1 * 2**20

    def test_load_peak_stays_near_the_index_it_returns(self):
        """At its peak, opening an index holds at most 2.25 times the heap of
        the index it returns: 2.0 times for these 30,000 keys of width 8,
        where the loader held 3.3 times before it released its intermediates
        after their last check."""
        keys = records_to_keys(generate(GeneratorConfig(seed=25, key_count=30_000)), 8)
        blob = save_bytes(bulk_load(keys))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            index = load_bytes(blob)
            held, peak = (size - before for size in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert index.key_count == 30_000
        assert peak <= 2.25 * held, (peak, held)


def resealed(blob: bytes) -> bytes:
    """`blob` with its trailing CRC-32 recomputed, so that a corruption gets
    past the checksum to the structural checks."""
    body = blob[:-4]
    return body + zlib.crc32(body).to_bytes(4, "big")


def _corruptions(blob: bytes, count: int, seed: int):
    """`count` seeded copies of `blob`, each with 1 to 3 bytes changed."""
    rng = random.Random(seed)
    for _ in range(count):
        bad = bytearray(blob)
        for at in rng.sample(range(len(blob)), rng.randint(1, 3)):
            bad[at] ^= rng.randint(1, 255)
        yield bytes(bad)


class TestCorruption:
    COUNT = 3000

    def test_checksum_rejects_every_corruption(self, bom_index):
        for bad in _corruptions(save_bytes(bom_index), self.COUNT, 9090):
            with pytest.raises(ValueError):
                load_bytes(bad)

    def test_resealed_corruptions_are_rejected_or_whole(self, bom_index):
        """Behind a valid checksum, a corrupted file either raises
        ValueError or loads an index that re-saves to the same bytes and
        answers a query over everything.  A change inside a substring or a
        ref spells another valid index, so both outcomes occur."""
        everything = ValueRange.closed(0, 2**32 - 1)
        loaded = 0
        for bad in _corruptions(save_bytes(bom_index), self.COUNT, 9090):
            bad = resealed(bad)
            try:
                index = load_bytes(bad)
            except ValueError:
                continue
            loaded += 1
            assert save_bytes(index) == bad
            run_query(index, "//", everything)
        assert 0 < loaded < self.COUNT

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        which=st.integers(0, len(SCHEMES) - 1),
        edits=st.lists(st.tuples(st.integers(0, 10_000), st.integers(0, 255)), max_size=4),
        cut=st.integers(0, 64),
        reseal=st.booleans(),
    )
    def test_load_raises_only_value_error(self, which, edits, cut, reseal):
        bad = bytearray(EXAMPLE_BLOBS[which])
        for at, byte in edits:
            bad[at % len(bad)] = byte
        bad = bytes(bad[: len(bad) - cut])
        if reseal and len(bad) >= 4:
            bad = resealed(bad)
        try:
            load_bytes(bad)
        except ValueError:
            pass

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        width=st.sampled_from([4, 8]),
        lo=st.integers(0, 2**32 - 1),
        span=st.integers(0, 2**32 - 1),
    )
    def test_saved_index_answers_like_memory(self, seed, width, lo, span):
        rng = random.Random(seed)
        keys = random_keys(rng, None, width)
        paths = [k.path_text for k in keys]
        vrange = ValueRange.closed(lo, min(lo + span, 2**32 - 1), width)
        queries = [parse_query_path(random_query_text(rng, paths)) for _ in range(4)]
        for scheme in SCHEMES:
            index = build_static(keys, scheme)
            loaded = load_bytes(save_bytes(index))
            for qpath in queries:
                want = run_query(index, qpath, vrange)
                got = run_query(loaded, qpath, vrange)
                assert (got.refs, got.visited) == (want.refs, want.visited), (scheme, qpath.text)
                assert sorted(got.refs) == sorted(scan(keys, qpath, vrange)), (scheme, qpath.text)
