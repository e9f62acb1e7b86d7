import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rcas.keys import (
    CompositeKey,
    Dimension,
    KeySet,
    PathSyntaxError,
    decode_path,
    decode_value,
    encode_path,
    encode_value,
)

from conftest import random_keys
from reference import byte_at, complement, dim_bytes


def test_encode_value_reference_cases():
    assert encode_value(3266, 4) == bytes.fromhex("00000cc2")
    assert encode_value(0, 4) == bytes.fromhex("00000000")
    assert encode_value(250714, 4) == bytes.fromhex("0003d35a")
    assert encode_value(250800, 4) == bytes.fromhex("0003d3b0")


def test_encode_value_widths_and_overflow():
    assert len(encode_value(1, 8)) == 8
    with pytest.raises(OverflowError):
        encode_value(1 << 32, 4)
    with pytest.raises(OverflowError):
        encode_value(-1, 4)
    with pytest.raises(ValueError):
        encode_value(1, 3)


def test_encode_path_reference_cases():
    assert encode_path("/bom/item/canoe") == b"/bom/item/canoe\x00"
    assert len(encode_path("/bom/item/canoe")) == 16
    assert encode_path("/a") == b"/a\x00"
    assert len(encode_path("/bom/item/car/battery")) == 22


@pytest.mark.parametrize(
    "bad",
    ["", "a/b", "/a//b", "/a/", "/", "/a\x00b", "/café", "/a\tb", "/a\x01", "/a\x7f"],
)
def test_encode_path_rejects_malformed(bad):
    with pytest.raises(PathSyntaxError):
        encode_path(bad)


@pytest.mark.parametrize(
    "bad,message",
    [
        ("/a\x01\x02", "unprintable byte 0x01"),
        ("/a b/\x7f\x1f", "unprintable byte 0x7F"),
        ("/a\x01//", "unprintable byte 0x01"),
        ("/", "empty label"),
        ("/a/", "empty label"),
        ("/a//b", "empty label"),
    ],
)
def test_encode_path_names_the_first_fault(bad, message):
    with pytest.raises(PathSyntaxError, match=message):
        encode_path(bad)


def test_byte_at():
    k6_p = encode_path("/bom/item/car/brake")
    k6_v = encode_value(3266, 4)
    assert byte_at(k6_p, 13) == ord("r")
    assert byte_at(k6_v, 5) is None
    assert byte_at(k6_p, 1) == ord("/")
    with pytest.raises(IndexError):
        byte_at(k6_p, 0)


def test_dimension_complement():
    assert complement(Dimension.P) is Dimension.V
    assert complement(Dimension.V) is Dimension.P
    with pytest.raises(ValueError):
        complement(Dimension.BOT)


def test_composite_key_accessors():
    k = CompositeKey.make("/a/b", 7, ref=42)
    assert k.path_text == "/a/b"
    assert k.value_int == 7
    assert k.ref == 42
    assert dim_bytes(k, Dimension.P) == k.path
    assert dim_bytes(k, Dimension.V) == k.value


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=0, max_value=2**32 - 1))
def test_value_encoding_preserves_order(a, b):
    ea, eb = encode_value(a, 4), encode_value(b, 4)
    assert (a < b) == (ea < eb)
    assert decode_value(ea) == a


_labels = st.text(
    alphabet=st.characters(min_codepoint=0x21, max_codepoint=0x7E, exclude_characters="/"),
    min_size=1,
    max_size=6,
)
_paths = st.lists(_labels, min_size=1, max_size=5).map(lambda ls: "/" + "/".join(ls))


@given(_paths)
def test_path_round_trip(p):
    assert decode_path(encode_path(p)) == p


@pytest.mark.parametrize("raw", [b"/a", b""])
def test_decode_path_needs_its_terminator(raw):
    with pytest.raises(PathSyntaxError, match="missing its terminator"):
        decode_path(raw)


@given(_paths, _paths)
def test_encoded_paths_are_prefix_free(p, q):
    ep, eq = encode_path(p), encode_path(q)
    if p != q:
        assert not eq.startswith(ep)
        assert not ep.startswith(eq)


class TestKeySet:
    KEYS = random_keys(random.Random(13), 60)

    def test_of_numbers_paths_and_values_in_first_seen_order(self):
        ks = KeySet.of(self.KEYS)
        assert ks.paths == list(dict.fromkeys(k.path for k in self.KEYS))
        assert ks.values == list(dict.fromkeys(k.value for k in self.KEYS))
        assert ks.pid.dtype == ks.vid.dtype == np.int64
        assert ks.width == 4
        assert list(ks) == self.KEYS
        assert KeySet.of(ks) is ks
        assert list(KeySet.of(iter(self.KEYS))) == self.KEYS

    def test_keys_share_the_column_objects(self):
        ks = KeySet.of(self.KEYS)
        for i, k in enumerate(ks):
            assert k.path is ks.paths[ks.pid[i]]
            assert k.value is ks.values[ks.vid[i]]
            assert k.ref is ks.refs[i]

    def test_int_and_negative_indexing(self):
        ks = KeySet.of(self.KEYS)
        n = len(self.KEYS)
        assert len(ks) == n
        for i in (0, 1, n - 1, -1, -n):
            assert ks[i] == self.KEYS[i]
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                ks[i]

    @pytest.mark.parametrize(
        "cut", [slice(2, 9), slice(None, None, -3), slice(40, 5, -1), slice(7, 7), slice(-5, None)]
    )
    def test_slices_are_key_sets_over_their_own_paths_and_values(self, cut):
        ks = KeySet.of(self.KEYS)[cut]
        assert isinstance(ks, KeySet)
        assert list(ks) == self.KEYS[cut]
        expected = KeySet.of(self.KEYS[cut])
        assert (ks.paths, ks.values, ks.refs) == (expected.paths, expected.values, expected.refs)
        assert ks.pid.tolist() == expected.pid.tolist()
        assert ks.vid.tolist() == expected.vid.tolist()

    def test_iteration_across_chunks(self):
        assert list(KeySet.of(self.KEYS)) == self.KEYS

    def test_empty(self):
        ks = KeySet.of([])
        assert len(ks) == 0 and not ks and list(ks) == []
        assert ks.width == 0

    def test_mixed_widths_rejected(self):
        a = CompositeKey.make("/a", 1, 1, width=4)
        b = CompositeKey.make("/b", 1, 2, width=8)
        with pytest.raises(ValueError, match="^key value width 8 does not match index width 4$"):
            KeySet.of([a, b])
