import pytest
from hypothesis import given, strategies as st

from rcas.keys import (
    CompositeKey,
    Dimension,
    PathSyntaxError,
    decode_path,
    decode_value,
    encode_path,
    encode_value,
)

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
    ["", "a/b", "/a//b", "/a/", "/", "/a\x00b", "/café", "/a\tb"],
)
def test_encode_path_rejects_malformed(bad):
    with pytest.raises(PathSyntaxError):
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


@given(_paths, _paths)
def test_encoded_paths_are_prefix_free(p, q):
    ep, eq = encode_path(p), encode_path(q)
    if p != q:
        assert not eq.startswith(ep)
        assert not ep.startswith(eq)
