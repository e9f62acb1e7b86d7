import ast
import gc
import hashlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rcas
from rcas import dataset
from rcas.dataset import (
    BOM_EXAMPLE,
    DataError,
    DatasetRecord,
    GeneratorConfig,
    Records,
    generate,
    load_records,
    records_to_keys,
    write_records,
    _fields,
)
from rcas.keys import KeySet
from rcas.trie import bulk_load, save_bytes

from reference import record_keys


def record_line(path: str, value: int, ref: int) -> str:
    """One dataset line, spelled from the file format: path, decimal value,
    hexadecimal ref."""
    return f"{path};{value};{ref:x}"


def parse_line(line: str) -> DatasetRecord:
    """One dataset line as a record, split as `load_records` splits it."""
    return DatasetRecord(*_fields(line, 0))


class TestLineFormat:
    def test_round_trip(self):
        rec = DatasetRecord("/a/b", 123, 0xDEADBEEF)
        assert parse_line(record_line(*rec)) == rec

    def test_reference_line(self):
        rec = parse_line("/bom/item/canoe;69200;1")
        assert rec == DatasetRecord("/bom/item/canoe", 69200, 1)

    @pytest.mark.parametrize(
        "bad",
        ["", "/a;1", "/a;1;2;3", "/a;-1;2", "/a;x;2", "/a;1;zz zz", "/a;1;-5"],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(DataError):
            parse_line(bad)

    def test_file_round_trip(self, tmp_path):
        target = tmp_path / "data.csv"
        write_records(BOM_EXAMPLE, str(target))
        assert load_records(str(target)) == list(BOM_EXAMPLE)

    def test_path_like_target_writes_the_same_bytes(self, tmp_path):
        write_records(BOM_EXAMPLE, tmp_path / "x.csv")
        write_records(BOM_EXAMPLE, str(tmp_path / "y.csv"))
        assert (tmp_path / "x.csv").read_bytes() == (tmp_path / "y.csv").read_bytes()
        assert load_records(tmp_path / "x.csv") == list(BOM_EXAMPLE)

    def test_equal_paths_share_one_string(self, tmp_path):
        target = tmp_path / "data.csv"
        write_records(BOM_EXAMPLE, str(target))
        records = load_records(str(target))
        batteries = [r.path for r in records if r.path == "/bom/item/car/battery"]
        assert len(batteries) == 3
        assert all(p is batteries[0] for p in batteries)
        assert len({id(r.path) for r in records}) == len({r.path for r in records})

    def test_generated_equal_paths_share_one_string(self):
        records = generate(GeneratorConfig(seed=5, key_count=3000, duplicate_fraction=0.3))
        assert len(set(records.paths)) < len(records)
        assert len({id(p) for p in records.paths}) == len(set(records.paths))

    def test_records_and_keys_have_no_instance_dict(self):
        # one object per record and per key: no per-instance dict
        rec = BOM_EXAMPLE[0]
        key = records_to_keys([rec])[0]
        for obj in (rec, key):
            assert not hasattr(obj, "__dict__")

    def test_empty_file_rejected(self, tmp_path):
        target = tmp_path / "empty.csv"
        target.write_text("")
        with pytest.raises(DataError):
            load_records(str(target))


def load_text(tmp_path, text: str, newline: str = "\n") -> Records:
    target = tmp_path / "data.csv"
    target.write_bytes(text.replace("\n", newline).encode("ascii"))
    return load_records(str(target))


def first_error(tmp_path, text: str) -> str:
    with pytest.raises(DataError) as info:
        load_text(tmp_path, text)
    return str(info.value)


class TestChunkedLoad:
    """`load_records` parses chunks of lines; with chunks of a few lines,
    every check meets a chunk boundary."""

    LINES = [f"/a/n{i};{i * 7};{i:x}" for i in range(1, 41)]

    @pytest.fixture
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(dataset, "_CHUNK_BYTES", 40)

    def test_many_chunks_parse_as_one(self, tmp_path, small_chunks):
        records = load_text(tmp_path, "\n".join(self.LINES) + "\n")
        assert records == [parse_line(line) for line in self.LINES]
        assert all(type(r) is DatasetRecord for r in records)

    @pytest.mark.parametrize(
        "bad,message",
        [
            ("oops", "expected 3 ';'-separated fields, got 1"),
            ("/a;1;2;3", "expected 3 ';'-separated fields, got 4"),
            ("/a;-1;2", "bad value field '-1'"),
            ("/a;x;2", "bad value field 'x'"),
            ("/a;1;zz", "bad reference field 'zz'"),
            ("/a;1;-5", "bad reference field '-5'"),
            ("/a;1;" + "f" * 17, "bad reference field '" + "f" * 17 + "'"),
        ],
    )
    @pytest.mark.parametrize("at", [0, 1, 22, 39])
    def test_bad_line_reports_its_own_number(self, tmp_path, small_chunks, bad, message, at):
        lines = list(self.LINES)
        lines[at] = bad
        assert first_error(tmp_path, "\n".join(lines) + "\n") == f"line {at + 1}: {message}"

    def test_fields_are_counted_per_line(self, tmp_path, small_chunks):
        # two and four fields balance out over the chunk, not per line, and
        # split together they would make two records of integer fields
        lines = list(self.LINES)
        lines[25], lines[26] = "5;6", "7;8;9;a"
        assert first_error(tmp_path, "\n".join(lines)) == "line 26: expected 3 ';'-separated fields, got 2"

    def test_one_chunk_names_the_same_line(self, tmp_path):
        lines = list(self.LINES)
        lines[30] = "/a;1;zz"
        assert first_error(tmp_path, "\n".join(lines)) == "line 31: bad reference field 'zz'"

    def test_blank_lines_skipped_but_counted(self, tmp_path, small_chunks):
        text = "\n".join(self.LINES[:3] + ["", "   ", "\t", ""] + self.LINES[3:])
        assert load_text(tmp_path, text) == [parse_line(line) for line in self.LINES]
        message = "line 49: expected 3 ';'-separated fields, got 1"
        assert first_error(tmp_path, "\n\n \n" + text + "\n\nbad\n") == message
        assert first_error(tmp_path, " \n\t\n\n") == f"dataset {str(tmp_path / 'data.csv')!r} is empty"

    @pytest.mark.parametrize("chunked", [False, True])
    def test_line_ends_do_not_matter(self, tmp_path, monkeypatch, chunked):
        if chunked:
            monkeypatch.setattr(dataset, "_CHUNK_BYTES", 40)
        text = "\n".join(self.LINES) + "\n"
        lf = load_text(tmp_path, text)
        assert load_text(tmp_path, text.rstrip("\n")) == lf
        assert load_text(tmp_path, text, newline="\r\n") == lf
        assert load_text(tmp_path, text.rstrip("\n"), newline="\r\n") == lf


class TestRecordsToKeys:
    @pytest.mark.parametrize("width", [4, 8])
    @pytest.mark.parametrize("seed", [5, 6])
    def test_equals_one_key_per_record(self, seed, width):
        records = generate(GeneratorConfig(seed=seed, key_count=3000, duplicate_fraction=0.3))
        keys = records_to_keys(records, width)
        assert isinstance(keys, KeySet)
        assert keys.width == width
        assert list(keys) == record_keys(records, width)
        assert list(records_to_keys(BOM_EXAMPLE, width)) == record_keys(BOM_EXAMPLE, width)
        assert list(records_to_keys((r for r in records), width)) == list(keys)

    def test_refs_share_the_records_ints(self):
        records = generate(GeneratorConfig(seed=3, key_count=50))
        keys = records_to_keys(records)
        assert all(k.ref is r.ref for k, r in zip(keys, records))

    @pytest.mark.parametrize(
        "records",
        [
            [("/a", 1, 1), ("/b", 1 << 40, 2), ("b/", 1, 3)],
            [("/a", 1, 1), ("/b/", 1, 2), ("/c", 1 << 40, 3)],
            [("/a", 1, 1), ("/a/\x01", 1 << 40, 2)],
            [("/a", 1, 1), ("/a", -1, 2)],
        ],
    )
    def test_first_offending_record_is_named(self, records):
        records = [DatasetRecord(*r) for r in records]
        with pytest.raises(DataError) as expected:
            record_keys(records, 4)
        with pytest.raises(DataError) as got:
            records_to_keys(records, 4)
        assert str(got.value) == str(expected.value)

    def test_unsupported_width_is_a_value_error(self):
        with pytest.raises(ValueError, match="unsupported value width"):
            records_to_keys(BOM_EXAMPLE, 3)

    def test_empty_records_give_an_empty_key_set(self):
        keys = records_to_keys([], 8)
        assert len(keys) == 0 and keys.width == 8
        with pytest.raises(ValueError, match="^cannot build an index over an empty key set$"):
            bulk_load(keys)

    def test_wide_refs_are_rejected_at_build(self):
        keys = records_to_keys([DatasetRecord("/a", 1, 1), DatasetRecord("/b", 2, 2**64)])
        with pytest.raises(ValueError, match="^refs must lie in 0 .. 2\\*\\*64 - 1"):
            bulk_load(keys)


class TestExample:
    def test_eight_records_seven_distinct(self):
        assert len(BOM_EXAMPLE) == 8
        assert len({(r.path, r.value) for r in BOM_EXAMPLE}) == 7
        assert len({r.ref for r in BOM_EXAMPLE}) == 8

    def test_keys_encode(self):
        keys = records_to_keys(list(BOM_EXAMPLE))
        brake = next(k for k in keys if k.path_text.endswith("brake"))
        assert brake.value == bytes.fromhex("00000cc2")

    def test_value_overflow_is_a_data_error(self):
        with pytest.raises(DataError):
            records_to_keys([DatasetRecord("/a", 1 << 40, 1)], width=4)


class TestGenerator:
    def test_deterministic(self):
        cfg = GeneratorConfig(seed=5, key_count=500)
        assert generate(cfg) == generate(cfg)

    def test_different_seeds_differ(self):
        a = generate(GeneratorConfig(seed=1, key_count=200))
        b = generate(GeneratorConfig(seed=2, key_count=200))
        assert a != b

    def test_duplicates_produced(self):
        cfg = GeneratorConfig(seed=3, key_count=800, duplicate_fraction=0.4)
        records = generate(cfg)
        pairs = [(r.path, r.value) for r in records]
        assert len(set(pairs)) < len(pairs)
        assert len({r.ref for r in records}) == len(records)

    def test_depth_and_alphabet_respected(self):
        cfg = GeneratorConfig(seed=4, key_count=300, label_alphabet_size=3, max_depth=2)
        for rec in generate(cfg):
            labels = rec.path.split("/")[1:]
            assert 1 <= len(labels) <= 2
            assert all(lab in ("n00", "n01", "n02") for lab in labels)

    def test_skew_prefers_small_values(self):
        skewed = generate(GeneratorConfig(seed=6, key_count=2000, value_skew=1.4))
        flat = generate(GeneratorConfig(seed=6, key_count=2000, value_skew=0.0))
        med_skewed = sorted(r.value for r in skewed)[1000]
        med_flat = sorted(r.value for r in flat)[1000]
        assert med_skewed < med_flat

    def test_records_are_pinned(self):
        # a digest of the generator's output, so that a faster generator
        # must still make the same records for every config
        digest = hashlib.sha1()
        for seed in (1, 5, 711):
            for cfg in (
                GeneratorConfig(seed=seed, key_count=3000),
                GeneratorConfig(
                    seed=seed, key_count=500, label_alphabet_size=3, max_depth=2, duplicate_fraction=0.0
                ),
                GeneratorConfig(
                    seed=seed, key_count=800, value_skew=0.0, duplicate_fraction=0.5, value_max=1 << 40
                ),
                GeneratorConfig(seed=seed, key_count=1),
            ):
                for r in generate(cfg):
                    digest.update(f"{r.path};{r.value};{r.ref}\n".encode())
        assert digest.hexdigest() == "7988338c2d4de89094e6f7e1e55a2211d82a5e1c"

    def test_wider_settings_are_pinned(self):
        # settings the pin above does not reach: 4-character labels, one
        # level and twelve, long chains of copies, and two records; taken
        # from the generator that spelled each record's path on its own
        digest = hashlib.sha1()
        for seed in (2, 9, 404):
            for cfg in (
                GeneratorConfig(seed=seed, key_count=1500, label_alphabet_size=150),
                GeneratorConfig(seed=seed, key_count=700, max_depth=1),
                GeneratorConfig(seed=seed, key_count=700, max_depth=12, label_alphabet_size=20),
                GeneratorConfig(seed=seed, key_count=2000, duplicate_fraction=0.95),
                GeneratorConfig(seed=seed, key_count=2),
                GeneratorConfig(seed=seed, key_count=2, duplicate_fraction=0.95, max_depth=1, label_alphabet_size=1),
            ):
                for r in generate(cfg):
                    digest.update(f"{r.path};{r.value};{r.ref}\n".encode())
        assert digest.hexdigest() == "fcea704f81e8cc819cfd1ed36e6b12f728734531"

    def test_zero_count_rejected(self):
        with pytest.raises(DataError):
            GeneratorConfig(seed=1, key_count=0)

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"seed": -1}, "seed must be a non-negative integer"),
            ({"seed": 1.5}, "seed must be a non-negative integer"),
            ({"seed": "7"}, "seed must be a non-negative integer"),
            ({"seed": True}, "seed must be a non-negative integer"),
            ({"seed": False}, "seed must be a non-negative integer"),
            ({"value_max": 0}, "value_max must be an integer in 1 .. 2**64"),
            ({"value_max": (1 << 64) + 1}, "value_max must be an integer in 1 .. 2**64"),
            ({"value_max": 1000.0}, "value_max must be an integer in 1 .. 2**64"),
            ({"value_max": True}, "value_max must be an integer in 1 .. 2**64"),
            ({"value_skew": float("nan")}, "value_skew must be a non-negative number"),
            ({"value_skew": float("inf")}, "value_skew must be a non-negative number"),
            ({"value_skew": -0.1}, "value_skew must be a non-negative number"),
            ({"value_skew": "1.1"}, "value_skew must be a real number"),
            ({"key_count": 10.5}, "key_count must be a positive integer"),
            ({"key_count": True}, "key_count must be a positive integer"),
            ({"key_count": -3}, "key_count must be positive"),
            ({"label_alphabet_size": 2.5}, "label_alphabet_size must be a positive integer"),
            ({"label_alphabet_size": 0}, "label_alphabet_size must be positive"),
            ({"max_depth": 2.5}, "max_depth must be a positive integer"),
            ({"max_depth": np.bool_(True)}, "max_depth must be a positive integer"),
            ({"max_depth": 0}, "max_depth must be positive"),
            ({"duplicate_fraction": "0.1"}, "duplicate_fraction must be a real number"),
            ({"duplicate_fraction": float("nan")}, "duplicate_fraction must lie in [0, 1)"),
        ],
        ids=[
            "negative_seed", "float_seed", "str_seed", "true_seed", "false_seed", "zero_value_max",
            "value_max_past_64_bits", "float_value_max", "bool_value_max", "nan_skew", "inf_skew",
            "negative_skew", "str_skew", "float_count", "bool_count", "negative_count", "float_alphabet",
            "no_alphabet", "float_depth", "numpy_bool_depth", "no_depth", "str_dup_fraction", "nan_dup_fraction",
        ],
    )
    def test_bad_settings_rejected(self, setting, message):
        with pytest.raises(DataError) as info:
            GeneratorConfig(**{"key_count": 10, **setting})
        assert str(info.value) == message

    def test_edge_settings_accepted(self):
        for value_max in (1, 1 << 64):
            values = generate(GeneratorConfig(key_count=200, value_max=value_max)).values
            assert 0 <= min(values) and max(values) < value_max
        numpy_seed = GeneratorConfig(seed=np.int64(3), key_count=50)
        assert generate(numpy_seed) == generate(GeneratorConfig(seed=3, key_count=50))
        numpy_counts = GeneratorConfig(
            key_count=np.int32(50), label_alphabet_size=np.uint8(4), max_depth=np.int64(3),
            duplicate_fraction=np.float32(0.25), value_skew=np.float64(0.5),
        )
        plain = GeneratorConfig(key_count=50, label_alphabet_size=4, max_depth=3, duplicate_fraction=0.25, value_skew=0.5)
        assert generate(numpy_counts) == generate(plain)

    @pytest.mark.parametrize("value_max", [1000, 70_000, 1 << 20, 1 << 32, 1 << 64])
    def test_values_reach_the_multiplied_top_rank(self, value_max):
        # ranks are spread by an odd multiplier, so the top value can pass
        # value_max (the default 2**20 reaches 1,114,095)
        n = min(value_max, 1 << 16)
        m = value_max // n
        bound = (n - 1) * (m | 1 if m > 1 else 1)
        values = dataset._zipf_values(np.random.default_rng(5), 1 << 20, 0.0, value_max)
        assert int(values.min()) == 0 and int(values.max()) == bound
        if value_max <= 1 << 32:
            assert int(values.max()) < 1 << 32

    def test_prefix_keys_past_64_bits_rejected(self):
        # rejected before any draw, so no memory is asked for
        config = GeneratorConfig(key_count=1 << 40, label_alphabet_size=1 << 20, max_depth=8)
        with pytest.raises(DataError, match="^key_count \\* max_depth \\* label_alphabet_size is too large"):
            generate(config)


class TestWriteRecords:
    @pytest.mark.parametrize(
        "records",
        [BOM_EXAMPLE, generate(GeneratorConfig(seed=9, key_count=40_000, value_max=1 << 40))],
        ids=["bom", "generated"],
    )
    def test_bytes_equal_one_line_per_record(self, tmp_path, monkeypatch, records):
        want = "".join(record_line(*rec) + "\n" for rec in records).encode("ascii")
        for chunk in (dataset._WRITE_CHUNK, 3):
            monkeypatch.setattr(dataset, "_WRITE_CHUNK", chunk)
            for given_as in (records, list(records), Records.of(records), (r for r in records)):
                target = tmp_path / "data.csv"
                write_records(given_as, str(target))
                assert target.read_bytes() == want

    @pytest.mark.parametrize(
        "record, message",
        [
            (DatasetRecord("/a;b", 1, 1), "record 1: path '/a;b' holds ';', a line break or a non-ASCII character"),
            (DatasetRecord("/a\nb", 1, 1), "record 1: path '/a\\nb' holds ';', a line break"),
            (DatasetRecord("/a\rb", 1, 1), "record 1: path '/a\\rb' holds ';', a line break"),
            (DatasetRecord("/\u00e4", 1, 1), "record 1: path '/\u00e4' holds ';', a line break"),
            (DatasetRecord("/a", -1, 1), "record 1: value -1 is negative"),
            (DatasetRecord("/a", 1, -1), "record 1: ref -1 lies outside 0 .. 2**64 - 1"),
            (DatasetRecord("/a", 1, 1 << 64), "record 1: ref 18446744073709551616 lies outside 0 .. 2**64 - 1"),
            (DatasetRecord("/a", 2.5, 1), "record 1: value 2.5 is not an integer"),
            (DatasetRecord("/a", True, 1), "record 1: value True is not an integer"),
            (DatasetRecord("/a", "7", 1), "record 1: value '7' is not an integer"),
            (DatasetRecord("/a", 1, 1.5), "record 1: ref 1.5 is not an integer"),
            (DatasetRecord("/a", 1, False), "record 1: ref False is not an integer"),
        ],
        ids=[
            "semicolon", "newline", "carriage_return", "non_ascii", "negative_value", "negative_ref",
            "ref_past_64_bits", "float_value", "bool_value", "str_value", "float_ref", "bool_ref",
        ],
    )
    def test_unreadable_records_rejected_before_writing(self, tmp_path, monkeypatch, record, message):
        """A record that `load_records` could not read back is named, and
        no file is left, even when earlier chunks hold only good records."""
        monkeypatch.setattr(dataset, "_WRITE_CHUNK", 1)
        target = tmp_path / "data.csv"
        with pytest.raises(DataError) as info:
            write_records([BOM_EXAMPLE[0], record, BOM_EXAMPLE[1]], str(target))
        assert str(info.value).startswith(message)
        assert not target.exists()


_PATHS = ["/a", "/a/b", "/bom/item/car/battery", "/n00/n01", "/x y/~z"]


@st.composite
def dataset_texts(draw):
    """A dataset file's text with blank lines and either line end, and the
    width its values fit."""
    width = draw(st.sampled_from([4, 8]))
    record = st.tuples(
        st.sampled_from(_PATHS), st.integers(0, (1 << 8 * width) - 1), st.integers(0, (1 << 64) - 1)
    )
    blank = st.sampled_from(["", " ", "\t", "  \t "])
    lines = draw(st.lists(st.one_of(record.map(lambda r: record_line(*r)), blank), max_size=40))
    lines.insert(draw(st.integers(0, len(lines))), record_line(*draw(record)))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    end = draw(st.sampled_from(["", newline]))
    return newline.join(lines) + end, width


class TestRecords:
    """`Records` against the line-by-line parse and a plain list of the same
    `DatasetRecord`s."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(dataset_texts(), st.sampled_from([1, 16, 64, 1 << 20]), st.data())
    def test_behaves_as_the_list_of_its_records(self, tmp_path_factory, text_width, chunk_bytes, data):
        text, width = text_width
        target = tmp_path_factory.getbasetemp() / "records.csv"
        target.write_bytes(text.encode("ascii"))
        with mock.patch.object(dataset, "_CHUNK_BYTES", chunk_bytes):
            records = load_records(str(target))
        lines = text.replace("\r\n", "\n").split("\n")
        want = [DatasetRecord(*_fields(line, n)) for n, line in enumerate(lines, 1) if line and not line.isspace()]

        assert isinstance(records, Records)
        assert list(records) == want
        assert all(type(r) is DatasetRecord for r in records)

        # one numbering path: equal key sets and equal index files
        a, b = records_to_keys(records, width), records_to_keys(want, width)
        assert (a.paths, a.values, a.refs, a.width) == (b.paths, b.values, b.refs, b.width)
        assert np.array_equal(a.pid, b.pid) and np.array_equal(a.vid, b.vid)
        assert a.pid.dtype == b.pid.dtype and a.vid.dtype == b.vid.dtype
        assert save_bytes(bulk_load(a)) == save_bytes(bulk_load(b))

        # a sequence of records
        n = len(want)
        assert len(records) == n
        i = data.draw(st.integers(-n, n - 1))
        assert records[i] == want[i] and type(records[i]) is DatasetRecord
        with pytest.raises(IndexError):
            records[n]
        with pytest.raises(IndexError):
            records[-n - 1]
        cut = slice(
            data.draw(st.none() | st.integers(-n - 2, n + 2)),
            data.draw(st.none() | st.integers(-n - 2, n + 2)),
            data.draw(st.none() | st.sampled_from([1, 2, 3, -1, -2])),
        )
        part = records[cut]
        assert isinstance(part, Records)
        assert part == want[cut] and want[cut] == part and list(part) == want[cut]
        assert records == want and want == records and records == tuple(want)
        assert not (records != want) and not (want != records)
        assert records == Records.of(want) and Records.of(records) is records
        other = want[:-1] + [want[-1]._replace(ref=want[-1].ref ^ 1)]
        assert records != other and other != records
        assert records != want + want[:1] and want[:-1] != records
        assert list(reversed(records)) == want[::-1]
        assert want[i] in records and records.index(want[i]) == want.index(want[i])


def tracked_count() -> int:
    """How many objects the garbage collector tracks, collected until the
    count settles: a collection untracks a tuple of untracked items, so a
    tuple that holds such a tuple may be untracked only by the next one."""
    last = None
    while True:
        gc.collect()
        count = len(gc.get_objects())
        if count == last:
            return count
        last = count


def tracked_objects_held(make) -> int:
    """How many more objects the garbage collector tracks while the result
    of `make()` is held."""
    before = tracked_count()
    held = make()
    after = tracked_count()
    del held
    return after - before


class TestNoObjectPerRecord:
    """Records are held as columns, so holding a dataset adds a few tracked
    objects, however many records it has."""

    def test_loaded_records(self, tmp_path):
        files = {}
        for n in (1_000, 10_000):
            files[n] = str(tmp_path / f"data-{n}.csv")
            write_records(generate(GeneratorConfig(seed=n, key_count=n)), files[n])
        load_records(files[1_000])  # first calls may make lasting objects
        held = {n: tracked_objects_held(lambda: load_records(path)) for n, path in files.items()}
        assert held[10_000] <= 8
        assert held[10_000] <= held[1_000]

    def test_generated_records(self):
        configs = {n: GeneratorConfig(seed=n, key_count=n) for n in (1_000, 10_000)}
        generate(configs[1_000])  # first calls may make lasting objects
        held = {n: tracked_objects_held(lambda: generate(config)) for n, config in configs.items()}
        assert held[10_000] <= 8
        assert held[10_000] <= held[1_000]

    def test_library_leaves_the_collector_alone(self):
        banned = {"disable", "freeze", "set_threshold"}
        sources = sorted(Path(rcas.__file__).parent.rglob("*.py"))
        assert sources
        for source in sources:
            tree = ast.parse(source.read_text(), str(source))
            aliases = {
                alias.asname or alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.Import)
                for alias in node.names
                if alias.name == "gc"
            }
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module == "gc":
                    assert not banned & {alias.name for alias in node.names}, source.name
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    assert not (node.value.id in aliases and node.attr in banned), (source.name, node.attr)
