import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rcas import interleave
from rcas.dataset import DatasetRecord, GeneratorConfig, generate, records_to_keys
from rcas.interleave import STATIC_SCHEMES, SurrogateOverflow, ZoContext, _symbols, static_interleave
from rcas.keys import CompositeKey, Dimension
from rcas.trie import _dsc, _Seqs, build_static

from conftest import random_keys, subset
from reference import (
    InterleaveTuple,
    complement,
    dim_bytes,
    dsc,
    dynamic_interleave,
    partitioning_sequence,
    psi_partition,
    static_tagged,
)

P, V, BOT = Dimension.P, Dimension.V, Dimension.BOT


def refs(part):
    return sorted(k.ref for k in part)


class TestDiscriminativeBytes:
    def test_reference_values(self, bom_keys, bom_named):
        assert dsc(bom_keys, P) == 13
        assert dsc(bom_keys, V) == 2
        k2567 = subset(bom_named, "k2", "k5", "k6", "k7")
        assert dsc(k2567, P) == 14
        assert dsc(k2567, V) == 3
        k567 = subset(bom_named, "k5", "k6", "k7")
        assert dsc(k567, P) == 16
        assert dsc(k567, V) == 3
        k6 = [bom_named["k6"]]
        assert dsc(k6, P) == 21
        assert dsc(k6, V) == 5

    def test_incremental_matches_from_lower_bound(self, bom_named):
        k2567 = subset(bom_named, "k2", "k5", "k6", "k7")
        assert _resumed_dsc(k2567, P, 13) == 14
        assert _resumed_dsc(k2567, P, 14) == 14

    def test_incremental_equals_naive_scan(self):
        rng = random.Random(1234)
        for _ in range(200):
            keys = random_keys(rng)
            for dim in (P, V):
                naive = dsc(keys, dim)
                for g in (1, (1 + naive) // 2, naive):
                    assert _resumed_dsc(keys, dim, g) == naive

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            dsc([], P)


def _resumed_dsc(keys, dim, g):
    """The partitioner's scan, over all keys as one partition, resumed at
    lower bound g (both positions 1-based here, 0-based in the partitioner)."""
    seqs = _Seqs.of([dim_bytes(k, dim) for k in keys])
    rows = np.arange(len(keys), dtype=np.int32)
    starts = np.zeros(1, np.int32)
    return int(_dsc(seqs, rows, starts, np.array([g - 1], np.int32))[0]) + 1


class TestPartitioning:
    def test_value_split_of_whole_example(self, bom_keys, bom_named):
        slots = psi_partition(bom_keys, V, 2)
        assert set(slots) == {0x00, 0x01, 0x03}
        assert refs(slots[0x00]) == refs(subset(bom_named, "k2", "k5", "k6", "k7"))
        assert refs(slots[0x01]) == [bom_named["k1"].ref]
        assert refs(slots[0x03]) == [0x3, 0x4, 0x8]

    def test_path_split(self, bom_named):
        k2567 = subset(bom_named, "k2", "k5", "k6", "k7")
        slots = psi_partition(k2567, P, 14)
        assert set(slots) == {ord("/"), ord("a")}
        assert refs(slots[ord("a")]) == [bom_named["k2"].ref]
        assert refs(slots[ord("/")]) == refs(subset(bom_named, "k5", "k6", "k7"))

    def test_singleton_is_identity(self, bom_named):
        parts = psi_partition([bom_named["k6"]], P)
        assert parts == {None: [bom_named["k6"]]}

    def test_disjoint_and_complete(self):
        rng = random.Random(77)
        for _ in range(100):
            keys = random_keys(rng)
            for dim in (P, V):
                parts = psi_partition(keys, dim)
                pieces = [k for part in parts.values() for k in part]
                assert sorted(k.ref for k in pieces) == sorted(k.ref for k in keys)

    def test_stable_order_within_slots(self):
        rng = random.Random(78)
        keys = random_keys(rng, 25)
        parts = psi_partition(keys, V)
        for part in parts.values():
            positions = [keys.index(k) for k in part]
            assert positions == sorted(positions)


class TestPartitioningSequence:
    def test_k6_chain(self, bom_keys, bom_named):
        seq = partitioning_sequence(bom_named["k6"], bom_keys)
        dims = [d for _, d in seq]
        assert dims == [V, P, V, BOT]
        assert refs(seq[0][0]) == refs(bom_keys)
        assert refs(seq[1][0]) == refs(subset(bom_named, "k2", "k5", "k6", "k7"))
        assert refs(seq[2][0]) == refs(subset(bom_named, "k5", "k6", "k7"))
        assert refs(seq[3][0]) == [bom_named["k6"].ref]

    def test_k4_chain_switches_dimension(self, bom_keys, bom_named):
        # the battery keys share a path, so the path dimension is skipped
        seq = partitioning_sequence(bom_named["k4"], bom_keys)
        dims = [d for _, d in seq]
        assert dims == [V, V, BOT]
        assert refs(seq[1][0]) == [0x3, 0x4, 0x8]
        assert refs(seq[2][0]) == [bom_named["k4"].ref]

    def test_singleton(self, bom_named):
        k = bom_named["k1"]
        seq = partitioning_sequence(k, [k])
        assert len(seq) == 1
        assert seq[0][1] is BOT

    def test_key_must_belong(self, bom_keys, bom_named):
        stranger = CompositeKey.make("/nowhere", 1, 99)
        with pytest.raises(ValueError):
            partitioning_sequence(stranger, bom_keys)

    def test_alternation_until_exhaustion(self):
        rng = random.Random(5150)
        for _ in range(150):
            keys = random_keys(rng)
            key = rng.choice(keys)
            seq = partitioning_sequence(key, keys)
            assert seq[-1][1] is BOT
            assert len(seq) <= len(key.path) + len(key.value) + 1
            for (part_a, dim_a), (part_b, dim_b) in zip(seq, seq[1:]):
                if dim_b in (P, V) and dim_b is not complement(dim_a):
                    # a repeat of the same dimension only happens when the
                    # complement cannot split the partition
                    other = complement(dim_a)
                    assert dsc(part_b, other) > len(dim_bytes(key, other))


class TestDynamicInterleaving:
    def test_k6_tuples(self, bom_keys, bom_named):
        tuples = dynamic_interleave(bom_named["k6"], bom_keys)
        assert tuples == [
            InterleaveTuple(b"/bom/item/ca", b"\x00", V, True),
            InterleaveTuple(b"r", b"\x00", P, True),
            InterleaveTuple(b"/b", b"", V, False),
            InterleaveTuple(b"rake\x00", b"\x0c\xc2", BOT, True),
        ]
        assert tuples[0].ordered() == (b"\x00", b"/bom/item/ca")
        assert tuples[2].ordered() == (b"/b", b"")

    def test_all_seven_keys(self, bom_keys, bom_named):
        head = InterleaveTuple(b"/bom/item/ca", b"\x00", V, True)
        r = InterleaveTuple(b"r", b"\x00", P, True)
        slash_b = InterleaveTuple(b"/b", b"", V, False)
        expected = {
            "k1": [head, InterleaveTuple(b"noe\x00", b"\x01\x0e\x50", BOT, True)],
            "k2": [head, r, InterleaveTuple(b"abiner\x00", b"\x00\xf1", BOT, False)],
            "k3": [
                head,
                InterleaveTuple(b"r/battery\x00", b"\x03\xd3", V, True),
                InterleaveTuple(b"", b"\x5a", BOT, True),
            ],
            "k4": [
                head,
                InterleaveTuple(b"r/battery\x00", b"\x03\xd3", V, True),
                InterleaveTuple(b"", b"\xb0", BOT, True),
            ],
            "k5": [head, r, slash_b, InterleaveTuple(b"elt\x00", b"\x0b\x4a", BOT, True)],
            "k6": [head, r, slash_b, InterleaveTuple(b"rake\x00", b"\x0c\xc2", BOT, True)],
            "k7": [head, r, slash_b, InterleaveTuple(b"umper\x00", b"\x0a\x8c", BOT, True)],
        }
        for name, want in expected.items():
            assert dynamic_interleave(bom_named[name], bom_keys) == want, name

    def test_singleton_single_tuple_value_first(self, bom_named):
        k = bom_named["k6"]
        tuples = dynamic_interleave(k, [k])
        assert len(tuples) == 1
        t = tuples[0]
        assert t.dim is BOT
        assert t.value_first
        assert t.ordered() == (k.value, k.path)

    def test_reconstruction(self):
        rng = random.Random(99)
        for _ in range(150):
            keys = random_keys(rng)
            for key in keys:
                tuples = dynamic_interleave(key, keys)
                assert b"".join(t.s_p for t in tuples) == key.path
                assert b"".join(t.s_v for t in tuples) == key.value
                assert tuples[-1].dim is BOT
                assert all(t.dim in (P, V) for t in tuples[:-1])

    def test_shared_prefix_property(self):
        rng = random.Random(100)
        for _ in range(60):
            keys = random_keys(rng, 12)
            a, b = rng.choice(keys), rng.choice(keys)
            if (a.path, a.value) == (b.path, b.value):
                continue
            ta = dynamic_interleave(a, keys)
            tb = dynamic_interleave(b, keys)
            seq_a = partitioning_sequence(a, keys)
            seq_b = partitioning_sequence(b, keys)
            shared = 0
            for (pa, _), (pb, _) in zip(seq_a, seq_b):
                if refs(pa) != refs(pb):
                    break
                shared += 1
            assert ta[: shared - 1] == tb[: shared - 1]


def verify_monotonicity(keys, dim):
    """Check that partitioning advances the discriminative bytes.

    Every proper sub-partition must move the discriminative byte strictly
    forward in the split dimension and never backward in the other one.
    """
    other = complement(dim)
    base_d = dsc(keys, dim)
    base_o = dsc(keys, other)
    for part in psi_partition(keys, dim, base_d).values():
        if len(part) == len(keys):
            continue
        if dsc(part, dim) <= base_d:
            return False
        if dsc(part, other) < base_o:
            return False
    return True


class TestMonotonicity:
    def test_reference_edges(self, bom_keys, bom_named):
        assert verify_monotonicity(bom_keys, V)
        assert verify_monotonicity(subset(bom_named, "k2", "k5", "k6", "k7"), P)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_random_key_sets(self, seed):
        rng = random.Random(seed)
        keys = random_keys(rng)
        assert verify_monotonicity(keys, P)
        assert verify_monotonicity(keys, V)


def untag(tagged: bytes) -> list[tuple[int, Dimension]]:
    """The (byte, dimension) symbols of a tagged static interleaving: two
    bytes per symbol, the dimension code (0 = P, 1 = V) and the key byte."""
    assert len(tagged) % 2 == 0
    return [(b, {0: P, 1: V}[code]) for code, b in zip(tagged[0::2], tagged[1::2])]


class TestStaticInterleavings:
    def test_pv_vp(self, bom_named):
        k6 = bom_named["k6"]
        pv = untag(static_interleave(k6, "pv"))
        assert bytes(b for b, _ in pv) == k6.path + k6.value
        assert [d for _, d in pv] == [P] * 20 + [V] * 4
        vp = untag(static_interleave(k6, "vp"))
        assert bytes(b for b, _ in vp) == k6.value + k6.path
        assert [d for _, d in vp] == [V] * 4 + [P] * 20

    def test_label_wise(self, bom_named):
        k6 = bom_named["k6"]
        lw = untag(static_interleave(k6, "lw"))
        flat = []
        for unit in (b"\x00", b"/bom", b"\x00", b"/item", b"\x0c", b"/car", b"\xc2", b"/brake", b"\x00"):
            flat.extend(unit)
        assert bytes(b for b, _ in lw) == bytes(flat)
        # one value byte, then one whole '/'-label; terminator is its own unit
        assert [d for _, d in lw[:5]] == [V, P, P, P, P]
        assert lw[-1] == (0x00, P)

    def test_zo_surrogates(self, bom_keys, bom_named):
        ctx = ZoContext.from_keys(bom_keys)
        assert ctx.max_labels == 4
        assert ctx.path_width == 12
        # first-seen order over the example: bom, item, canoe, carabiner, car, ...
        assert ctx.codes["bom"] == 1
        assert ctx.codes["item"] == 2
        s = ctx._surrogates(["/bom/item/canoe"]).tobytes()
        assert len(s) == 12
        assert s[:6] == b"\x00\x00\x01\x00\x00\x02"
        assert s[9:] == b"\x00\x00\x00"  # padded to the deepest path
        zo = untag(static_interleave(bom_named["k6"], "zo", ctx))
        # ceil(4/12) = 1 value byte then ceil(12/4) = 3 path bytes per round
        dims = [d for _, d in zo]
        assert dims == [V, P, P, P] * 4
        assert bytes(b for b, d in zo if d is P) == ctx._surrogates(["/bom/item/car/brake"]).tobytes()
        assert bytes(b for b, d in zo if d is V) == bom_named["k6"].value

    def test_zo_requires_context(self, bom_named):
        with pytest.raises(ValueError):
            static_interleave(bom_named["k6"], "zo")

    def test_unknown_scheme(self, bom_named):
        with pytest.raises(ValueError):
            static_interleave(bom_named["k6"], "zz")

    def test_projection_reconstruction_all_schemes(self, bom_keys):
        ctx = ZoContext.from_keys(bom_keys)
        for key in bom_keys:
            for scheme in ("pv", "vp", "lw"):
                seq = untag(static_interleave(key, scheme))
                assert bytes(b for b, d in seq if d is P) == key.path
                assert bytes(b for b, d in seq if d is V) == key.value
            seq = untag(static_interleave(key, "zo", ctx))
            assert bytes(b for b, d in seq if d is V) == key.value


def _assert_batch_matches_oracle(keys, schemes=STATIC_SCHEMES):
    """All keys tagged at once, split per key, equal each key's oracle
    string, and so does the one-key `static_interleave`."""
    ctx = ZoContext.from_keys(keys) if "zo" in schemes else None
    value = np.frombuffer(b"".join(k.value for k in keys), np.uint8).reshape(len(keys), -1)
    for scheme in schemes:
        if scheme == "zo":  # each key's path bytes are its surrogate path
            path = ctx._surrogates([k.path_text for k in keys]).reshape(-1)
            sizes = np.full(len(keys), ctx.path_width, np.int32)
        else:
            path = np.frombuffer(b"".join(k.path for k in keys), np.uint8)
            sizes = np.array([len(k.path) for k in keys], np.int32)
        symbols, size = _symbols(path, sizes, value, scheme)
        assert int(size.sum()) == len(symbols)
        parts = np.split(symbols, np.cumsum(size)[:-1])
        want = [static_tagged(k, scheme, ctx) for k in keys]
        assert [p.astype(">u2").tobytes() for p in parts] == want, scheme
        assert static_interleave(keys[-1], scheme, ctx) == want[-1], scheme


class TestBatchTagger:
    def test_random_key_sets(self):
        rng = random.Random(8080)
        for i in range(300):
            _assert_batch_matches_oracle(random_keys(rng, 1 if i % 10 == 0 else None, 4 if i % 2 else 8))

    @pytest.mark.parametrize("width", [4, 8])
    def test_more_and_fewer_path_units_than_value_bytes(self, width):
        keys = [
            CompositeKey.make("/" + "/".join(["ab"] * depth), 70000 + depth, depth, width)
            for depth in (1, 2, width - 1, width, width + 1, 2 * width + 3)
        ]
        _assert_batch_matches_oracle(keys)
        _assert_batch_matches_oracle(keys[::-1])

    def test_multibyte_utf8_labels(self):
        """Raw UTF-8 labels (the text encoding takes ASCII only; zo numbers
        decoded labels, so it is left out)."""
        paths = ["/été", "/日本/語", "/a/€/b/ü", "/Ω"]
        keys = [CompositeKey(p.encode() + b"\x00", bytes([i, 0xC3, 0xA9, i]), i) for i, p in enumerate(paths)]
        _assert_batch_matches_oracle(keys, ("pv", "vp", "lw"))

    def test_zo_code_ending_in_zero_byte(self):
        """Over 255 labels, so code 256 (00 01 00) ends in a zero byte, as
        the padding units do."""
        cfg = GeneratorConfig(seed=7, key_count=1500, label_alphabet_size=320, max_depth=4, duplicate_fraction=0.2)
        keys = records_to_keys(generate(cfg))
        ctx = ZoContext.from_keys(keys)
        label = next(lab for lab, code in ctx.codes.items() if code == 256)
        assert ctx.code_bytes(label) == b"\x00\x01\x00"
        assert any(label in k.path_text.split("/") for k in keys)
        _assert_batch_matches_oracle(keys)


class TestZoErrors:
    def test_path_deeper_than_context(self):
        ctx = ZoContext(codes={"a": 1}, max_labels=1)
        with pytest.raises(ValueError, match="'/a/a' is deeper than the surrogate context"):
            ctx._surrogates(["/a/a"]).tobytes()
        with pytest.raises(ValueError, match="'/a/a' is deeper than the surrogate context"):
            build_static([CompositeKey.make("/a", 1, 0), CompositeKey.make("/a/a", 1, 1)], "zo", ctx)

    def test_label_missing_from_context(self):
        ctx = ZoContext(codes={"a": 1}, max_labels=2)
        with pytest.raises(KeyError, match="'b' missing from the surrogate dictionary"):
            ctx._surrogates(["/a/b"]).tobytes()
        with pytest.raises(KeyError, match="'b' missing from the surrogate dictionary"):
            build_static([CompositeKey.make("/a", 1, 0), CompositeKey.make("/a/b", 1, 1)], "zo", ctx)

    def test_codes_in_first_seen_order(self):
        records = [DatasetRecord(p, 1, i) for i, p in enumerate(["/c/a", "/b", "/c/a", "/a/d/c"])]
        for keys in (records_to_keys(records), list(records_to_keys(records))):
            ctx = ZoContext.from_keys(keys)
            assert ctx.codes == {"c": 1, "a": 2, "b": 3, "d": 4}
            assert ctx.max_labels == 3

    @pytest.mark.parametrize("codes", [{"a": 1, "b": 5}, {"a": 0}, {"a": 2}, {"a": 1, "b": 1}, {"a": 2, "b": 3}])
    def test_codes_must_run_from_one_to_n(self, codes):
        with pytest.raises(ValueError, match="codes are not 1 .. n"):
            ZoContext(codes=codes, max_labels=2)

    @pytest.mark.parametrize("label", ["", "a/b", "/", "\u00e9", "tab\there", "\x7f"])
    def test_labels_must_be_path_labels(self, label):
        with pytest.raises(ValueError, match="is not a path label"):
            ZoContext(codes={"a": 1, label: 2}, max_labels=2)

    def test_surrogate_overflow(self, monkeypatch):
        monkeypatch.setattr(interleave, "_MAX_SURROGATE", 3)
        keys = [CompositeKey.make(p, 1, i) for i, p in enumerate(["/a/b", "/c/a", "/b/d"])]
        assert ZoContext.from_keys(keys[:2]).codes == {"a": 1, "b": 2, "c": 3}
        with pytest.raises(SurrogateOverflow, match="more than 2\\^24 - 1 distinct labels"):
            ZoContext.from_keys(keys)
        with pytest.raises(SurrogateOverflow):
            build_static(keys, "zo")
