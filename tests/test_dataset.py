import pytest

from rcas.dataset import (
    BOM_EXAMPLE,
    DataError,
    DatasetRecord,
    GeneratorConfig,
    generate,
    load_records,
    records_to_keys,
    write_records,
    _fields,
)


def parse_line(line: str) -> DatasetRecord:
    """One dataset line as a record, split as `load_records` splits it."""
    return DatasetRecord(*_fields(line, 0))


class TestLineFormat:
    def test_round_trip(self):
        rec = DatasetRecord("/a/b", 123, 0xDEADBEEF)
        assert parse_line(rec.to_line()) == rec

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

    def test_equal_paths_share_one_string(self, tmp_path):
        target = tmp_path / "data.csv"
        write_records(BOM_EXAMPLE, str(target))
        records = load_records(str(target))
        batteries = [r.path for r in records if r.path == "/bom/item/car/battery"]
        assert len(batteries) == 3
        assert all(p is batteries[0] for p in batteries)
        assert len({id(r.path) for r in records}) == len({r.path for r in records})

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

    def test_zero_count_rejected(self):
        with pytest.raises(DataError):
            GeneratorConfig(seed=1, key_count=0)
