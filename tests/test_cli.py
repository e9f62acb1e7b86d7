import csv
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rcas
from rcas import costmodel, interleave
from rcas.cli import main
from rcas.dataset import BOM_EXAMPLE, GeneratorConfig, generate, write_records

from test_trie import resealed


@pytest.fixture
def bom_file(tmp_path):
    target = tmp_path / "bom.csv"
    write_records(BOM_EXAMPLE, str(target))
    return str(target)


@pytest.fixture
def bad_indexes(bom_file, tmp_path):
    """The example index cut in half; and, each behind a recomputed
    checksum, with the magic of the earlier RCAS2 format, with its root's
    dimension code flipped to the leaf code, which leaves the root's
    children without a parent, with the root's child count set to 4 of its
    3 children, with a value width outside {4, 8}, and with a leaf whose
    path is never terminated."""
    target = tmp_path / "bom.idx"
    assert main(["build", bom_file, "--save", str(target)]) == 0
    blob = target.read_bytes()

    def write(name: str, data: bytes) -> str:
        (tmp_path / name).write_bytes(data)
        return str(tmp_path / name)

    def corrupt(name: str, at: int, new: bytes) -> str:
        return write(name, resealed(blob[:at] + new + blob[at + len(new) :]))

    assert blob[47] == 1 and blob[80] == 3  # the root's dimension code and child count
    assert blob[blob.index(b"r/battery") + 9] == 0  # the terminator that ends it
    return [
        write("truncated.idx", blob[: len(blob) // 2]),
        corrupt("old_format.idx", 0, b"RCAS2"),
        corrupt("flipped.idx", 47, b"\x02"),
        corrupt("wrong_kind.idx", 80, b"\x04"),
        corrupt("bad_width.idx", 6, bytes([151])),
        corrupt("unterminated.idx", blob.index(b"r/battery") + 9, b"\x89"),
    ]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def csv_rows(text):
    return list(csv.reader(io.StringIO(text)))


class TestGenerate:
    def test_example_dataset(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--example", "bom")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 8
        assert lines[0] == "/bom/item/canoe;69200;1"

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "generate", "--seed", "9", "--count", "50")
        _, second, _ = run_cli(capsys, "generate", "--seed", "9", "--count", "50")
        assert first == second

    def test_zero_count_is_data_error(self, capsys):
        code, _, err = run_cli(capsys, "generate", "--count", "0")
        assert code == 2
        assert "data error" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--seed", "-1"), "seed must be a non-negative integer"),
            (("--skew", "nan"), "value_skew must be a non-negative number"),
            (("--skew", "-0.5"), "value_skew must be a non-negative number"),
            (("--alphabet", "0"), "label_alphabet_size must be positive"),
            (("--max-depth", "0"), "max_depth must be positive"),
            (("--dup-fraction", "1"), "duplicate_fraction must lie in [0, 1)"),
        ],
        ids=["negative_seed", "nan_skew", "negative_skew", "no_alphabet", "no_depth", "all_duplicates"],
    )
    def test_bad_settings_are_data_errors(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "generate", *argv)
        assert (code, out) == (2, "")
        assert err == f"data error: {message}\n"

    @pytest.mark.parametrize("argv", [("--example", "bom"), ("--seed", "3", "--count", "40000")])
    def test_stdout_equals_output_file(self, capsys, tmp_path, argv):
        """Without --output the same chunked writer prints the same bytes."""
        target = tmp_path / "out.csv"
        assert run_cli(capsys, "generate", *argv, "--output", str(target))[:2] == (0, "")
        code, out, _ = run_cli(capsys, "generate", *argv)
        assert code == 0
        assert out.encode("ascii") == target.read_bytes()

    def test_writes_file(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        code, out, _ = run_cli(capsys, "generate", "--example", "bom", "--output", str(target))
        assert code == 0
        assert out == ""
        assert len(target.read_text().splitlines()) == 8


class TestBuild:
    def test_bom_report(self, capsys, bom_file):
        code, out, _ = run_cli(capsys, "build", bom_file, "--scheme", "rcas")
        assert code == 0
        rows = {(r[0], r[1]): r[2] for r in csv_rows(out)[1:]}
        assert rows[("summary", "nodes")] == "11"
        assert rows[("summary", "leaves")] == "7"
        assert rows[("build", "records")] == "8"
        assert float(rows[("summary", "avg_leaf_depth")]) == pytest.approx(16 / 7, abs=1e-3)
        assert ("depth_histogram", "0") in rows

    def test_missing_file_is_data_error(self, capsys):
        code, _, err = run_cli(capsys, "build", "/no/such/file.csv")
        assert code == 2

    def test_unsavable_path_is_data_error(self, capsys, bom_file):
        code, out, err = run_cli(capsys, "build", bom_file, "--save", "a\x00b")
        assert (code, out) == (2, "")
        assert err.startswith("data error: cannot save 'a\\x00b': ")

    @pytest.mark.parametrize("command", ["build", "stats"])
    def test_header_printed_once(self, capsys, bom_file, command):
        argv = [bom_file] if command == "build" else ["--dataset", bom_file]
        code, out, _ = run_cli(capsys, command, *argv)
        assert code == 0
        rows = csv_rows(out)
        assert rows[0] == ["section", "metric", "value"]
        assert rows.count(rows[0]) == 1

    def test_empty_file_is_data_error(self, capsys, tmp_path):
        target = tmp_path / "empty.csv"
        target.write_text("")
        code, _, _ = run_cli(capsys, "build", str(target))
        assert code == 2

    def test_bad_line_reports_number(self, capsys, tmp_path):
        target = tmp_path / "bad.csv"
        target.write_text("/a;1;1\noops\n")
        code, _, err = run_cli(capsys, "build", str(target))
        assert code == 2
        assert "line 2" in err

    def test_non_ascii_dataset_is_data_error(self, capsys, tmp_path):
        target = tmp_path / "utf8.csv"
        target.write_bytes("/café;1;1\n".encode("utf-8"))
        code, _, err = run_cli(capsys, "build", str(target))
        assert code == 2
        assert "data error" in err

    def test_long_substring_saves(self, capsys, tmp_path):
        target = tmp_path / "long.csv"
        target.write_text("/" + "a" * 70_000 + ";5;1\n/b;7;2\n")
        saved = tmp_path / "long.idx"
        code, _, err = run_cli(capsys, "build", str(target), "--save", str(saved))
        assert code == 0 and err == ""
        code, out, _ = run_cli(capsys, "query", "//", "0", "10", "--load", str(saved))
        assert code == 0
        assert out.splitlines()[0] == "matches: 2"

    def test_too_many_labels_for_zo_is_data_error(self, capsys, bom_file, monkeypatch):
        monkeypatch.setattr(interleave, "_MAX_SURROGATE", 2)
        code, out, err = run_cli(capsys, "build", bom_file, "--scheme", "zo")
        assert code == 2
        assert out == ""
        assert err.startswith("data error: more than 2^24 - 1 distinct labels")


class TestQuery:
    def test_worked_example(self, capsys, bom_file):
        code, out, _ = run_cli(
            capsys, "query", "/bom/item//battery", "100000", "500000", "--dataset", bom_file
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "matches: 3"
        assert lines[1] == "visited_nodes: 5"
        assert lines[3:] == ["3", "4", "8"]

    def test_impossible_range_is_usage_error(self, capsys, bom_file):
        code, _, err = run_cli(capsys, "query", "//", "9", "1", "--dataset", bom_file)
        assert code == 1

    def test_bad_path_syntax_is_usage_error(self, capsys, bom_file):
        code, _, _ = run_cli(capsys, "query", "///x", "0", "1", "--dataset", bom_file)
        assert code == 1

    @pytest.mark.parametrize("source", ["--load", "--dataset"])
    @pytest.mark.parametrize("argv", [("///x", "0", "1"), ("//", "9", "1")], ids=["bad_path", "low_above_high"])
    def test_usage_errors_before_any_file_is_read(self, capsys, tmp_path, source, argv):
        """A bad path or range is reported as such, though the index file or
        dataset named does not exist."""
        code, out, err = run_cli(capsys, "query", *argv, source, str(tmp_path / "missing"))
        assert (code, out) == (1, "")
        assert err.startswith("usage error: ")

    def test_missing_index_source_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "query", "//", "0", "1")
        assert code == 1

    def test_both_index_sources_is_usage_error(self, capsys, bom_file, tmp_path):
        saved = str(tmp_path / "bom.idx")
        assert run_cli(capsys, "build", bom_file, "--save", saved)[0] == 0
        code, out, err = run_cli(capsys, "query", "//", "0", "1", "--load", saved, "--dataset", bom_file)
        assert (code, out) == (1, "")
        assert err.startswith("usage error: ") and "not allowed with" in err

    def test_save_then_load_matches_in_memory(self, capsys, bom_file, tmp_path):
        saved = tmp_path / "bom.idx"
        code, _, _ = run_cli(capsys, "build", bom_file, "--save", str(saved))
        assert code == 0
        _, direct, _ = run_cli(
            capsys, "query", "/bom/item/car//", "50000", "4294967295", "--dataset", bom_file
        )
        _, loaded, _ = run_cli(
            capsys, "query", "/bom/item/car//", "50000", "4294967295", "--load", str(saved)
        )
        strip = lambda s: [l for l in s.splitlines() if not l.startswith("seconds")]
        assert strip(direct) == strip(loaded)

    def test_bound_past_the_loaded_width_is_data_error(self, capsys, bom_file, tmp_path):
        target = str(tmp_path / "bom.idx")
        assert run_cli(capsys, "build", bom_file, "--save", target)[0] == 0
        code, out, err = run_cli(capsys, "query", "/bom", "0", "4294967296", "--load", target)
        assert (code, out) == (2, "")
        assert err == "data error: value 4294967296 does not fit in 4 bytes\n"

    def test_truncated_index_is_data_error(self, capsys, bad_indexes):
        for path in bad_indexes:
            code, _, err = run_cli(capsys, "query", "//", "0", "1", "--load", path)
            assert code == 2
            assert err.startswith("data error: ")


class TestStats:
    def test_stats_of_example(self, capsys, bom_file):
        code, out, _ = run_cli(capsys, "stats", "--dataset", bom_file)
        assert code == 0
        rows = {(r[0], r[1]): r[2] for r in csv_rows(out)[1:]}
        assert rows[("summary", "unique_keys")] == "7"
        assert rows[("node_types", "4/V")] == "3"
        assert rows[("node_types", "leaf/bot")] == "7"

    def test_index_source_is_one_of_two(self, capsys, bom_file, tmp_path):
        saved = str(tmp_path / "bom.idx")
        assert run_cli(capsys, "build", bom_file, "--save", saved)[0] == 0
        for sources in ((), ("--load", saved, "--dataset", bom_file)):
            code, out, err = run_cli(capsys, "stats", *sources)
            assert (code, out) == (1, "")
            assert err.startswith("usage error: ")

    def test_truncated_index_is_data_error(self, capsys, bad_indexes):
        for path in bad_indexes:
            code, _, err = run_cli(capsys, "stats", "--load", path)
            assert code == 2
            assert err.startswith("data error: ")


class TestBench:
    def test_all_schemes_agree(self, capsys, bom_file, tmp_path):
        queries = tmp_path / "queries.csv"
        queries.write_text(
            "/bom/item//battery;100000;500000\n"
            "//;0;4294967295\n"
            "/bom/item/car//;50000;4294967295\n"
        )
        code, out, _ = run_cli(capsys, "bench", bom_file, str(queries), "--repeat", "2")
        assert code == 0
        rows = csv_rows(out)
        header, body = rows[0], rows[1:]
        assert header[:3] == ["query", "scheme", "runtime_ms"]
        data = [r for r in body if r[0] != "summary"]
        assert len(data) == 3 * 5
        by_query = {}
        for r in data:
            by_query.setdefault(r[0], set()).add(r[4])
        for q, sizes in by_query.items():
            assert len(sizes) == 1, f"schemes disagree on {q}"
        summaries = [r for r in body if r[0] == "summary"]
        assert len(summaries) == 5

    def test_too_many_labels_for_zo_is_data_error(self, capsys, bom_file, tmp_path, monkeypatch):
        queries = tmp_path / "queries.csv"
        queries.write_text("/bom/item//battery;100000;500000\n")
        monkeypatch.setattr(interleave, "_MAX_SURROGATE", 2)
        code, out, err = run_cli(capsys, "bench", bom_file, str(queries), "--repeat", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("data error: more than 2^24 - 1 distinct labels")

    @pytest.mark.parametrize("repeat", ["0", "-3"])
    def test_repeat_below_one_is_usage_error(self, capsys, bom_file, tmp_path, repeat):
        queries = tmp_path / "queries.csv"
        queries.write_text("//;0;4294967295\n")
        code, out, err = run_cli(capsys, "bench", bom_file, str(queries), "--repeat", repeat)
        assert code == 1
        assert out == ""
        assert err.startswith("usage error: --repeat must be at least 1")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("/bom//;-1;5", "value -1 is negative"),
            ("/bom//;0;99999999999", "value 99999999999 does not fit in 4 bytes"),
            ("/bom;5", "expected 'path;low;high'"),
            ("/bom;x;5", "bad range bounds"),
            ("/bom;5;3", "impossible range"),
        ],
        ids=["negative_low", "high_past_width", "two_fields", "bad_bound", "impossible_range"],
    )
    def test_out_of_range_bound_is_data_error(self, capsys, bom_file, tmp_path, line, message):
        queries = tmp_path / "queries.csv"
        queries.write_text("//;0;4294967295\n" + line + "\n")
        code, out, err = run_cli(capsys, "bench", bom_file, str(queries), "--width", "4")
        assert (code, out) == (2, "")
        assert err == f"data error: query line 2: {message}\n"

    @pytest.mark.parametrize("width", [4, 8])
    def test_value_selectivity_counts_every_key(self, capsys, tmp_path, width):
        """sigma_v is the share of keys, duplicates included, whose value
        lies in the query's range."""
        records = generate(GeneratorConfig(seed=3, key_count=2000, duplicate_fraction=0.3))
        data = tmp_path / "data.csv"
        write_records(records, str(data))
        values = sorted(records.values)
        ranges = [(values[0], values[0]), (values[100], values[1500]), (0, 0), (values[-1] + 1, values[-1] + 9),
                  (0, (1 << 8 * width) - 1)]
        queries = tmp_path / "queries.csv"
        queries.write_text("".join(f"/n00//;{lo};{hi}\n" for lo, hi in ranges))
        code, out, _ = run_cli(capsys, "bench", str(data), str(queries), "--width", str(width))
        assert code == 0
        header, *body = csv_rows(out)
        got = [r[header.index("sigma_v")] for r in body if r[0] != "summary" and r[1] == "rcas"]
        want = [f"{sum(lo <= v <= hi for v in records.values) / len(records):.6f}" for lo, hi in ranges]
        assert got == want
        assert want[0] != want[1] and want[3] == "0.000000" and want[4] == "1.000000"

    def test_query_file_is_read_before_the_dataset(self, capsys, tmp_path):
        """A bad query line is named, though the dataset does not exist."""
        queries = tmp_path / "queries.csv"
        queries.write_text("//;0;4294967295\n/bom;5;3\n")
        code, out, err = run_cli(capsys, "bench", str(tmp_path / "missing.csv"), str(queries))
        assert (code, out) == (2, "")
        assert err == "data error: query line 2: impossible range\n"

    def test_non_ascii_query_file_is_data_error(self, capsys, bom_file, tmp_path):
        queries = tmp_path / "queries.csv"
        queries.write_bytes(b"//;0;4294967295\n/b\xc3\xa4;0;5\n")
        code, out, err = run_cli(capsys, "bench", bom_file, str(queries))
        assert (code, out) == (2, "")
        assert err.startswith(f"data error: query file {str(queries)!r} is not ASCII: ")

    def test_empty_query_file(self, capsys, bom_file, tmp_path):
        queries = tmp_path / "queries.csv"
        queries.write_text("")
        code, out, _ = run_cli(capsys, "bench", bom_file, str(queries))
        assert code == 0
        rows = csv_rows(out)
        assert rows[0][0] == "query"
        assert all(r[0] == "summary" for r in rows[1:])


class TestCostModel:
    def test_reference_table(self, capsys):
        code, out, _ = run_cli(capsys, "costmodel")
        assert code == 0
        rows = {r[0]: r[1:] for r in csv_rows(out)[1:]}
        assert float(rows["dy"][0]) == pytest.approx(23436)
        assert float(rows["dy"][1]) == pytest.approx(39060)
        assert float(rows["pv"][0]) == pytest.approx(113280)
        assert float(rows["i1"][1]) == pytest.approx(85780)
        assert float(rows["i2"][3]) == pytest.approx(33567.77, abs=0.01)

    @pytest.mark.parametrize("argv", [(), ("--height", "6")])
    def test_two_cost_evaluations_per_row(self, capsys, monkeypatch, argv):
        calls = []
        evaluate = costmodel.estimate_cost
        monkeypatch.setattr(costmodel, "estimate_cost", lambda *a, **k: calls.append(a) or evaluate(*a, **k))
        code, out, _ = run_cli(capsys, "costmodel", *argv)
        assert code == 0
        assert len(calls) == 2 * len(csv_rows(out)[1:])

    def test_include_root_shifts_by_one(self, capsys):
        _, without, _ = run_cli(capsys, "costmodel")
        _, with_root, _ = run_cli(capsys, "costmodel", "--include-root")
        a = float(csv_rows(without)[1][1])
        b = float(csv_rows(with_root)[1][1])
        assert b == pytest.approx(a + 1)

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--fanout", "0"),
            ("--fanout", "-2"),
            ("--fanout", "nan"),
            ("--fanout", "inf"),
            ("--height", "0"),
            ("--height", "-1"),
            ("--sel-path", "0"),
            ("--sel-path", "1.5"),
            ("--sel-path", "nan"),
            ("--sel-value", "-0.1"),
            ("--sel-value", "2"),
        ],
    )
    def test_out_of_domain_arguments_are_usage_errors(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "costmodel", flag, value)
        assert code == 1
        assert out == ""
        assert err.startswith(f"usage error: {flag} must ")

    @pytest.mark.parametrize("fanout,height", [("1e300", "2"), ("1e200", "12")])
    def test_overflowing_costs_are_usage_errors(self, capsys, fanout, height):
        code, out, err = run_cli(capsys, "costmodel", "--fanout", fanout, "--height", height)
        assert code == 1
        assert out == ""
        assert err.startswith("usage error: the cost of vector dy overflows")

    def test_large_finite_costs_are_printed(self, capsys):
        code, out, _ = run_cli(capsys, "costmodel", "--height", "400")
        assert code == 0
        assert all(math.isfinite(float(x)) for r in csv_rows(out)[1:] for x in r[1:])

    @pytest.mark.parametrize("height", ["10001", str(10**9)])
    def test_heights_past_the_bound_are_usage_errors(self, capsys, monkeypatch, height):
        calls = []
        monkeypatch.setattr(costmodel, "estimate_cost", lambda *a, **k: calls.append(a))
        code, out, err = run_cli(capsys, "costmodel", "--height", height)
        assert code == 1
        assert out == ""
        assert err.splitlines() == [f"usage error: --height must be at most 10000, not {height}"]
        assert calls == []  # rejected before any vector is evaluated

    def test_largest_height_is_accepted(self, capsys):
        args = ["--height", "10000", "--sel-path", "1", "--sel-value", "1", "--fanout", "0.5"]
        code, out, _ = run_cli(capsys, "costmodel", *args)
        assert code == 0
        assert [r[0] for r in csv_rows(out)[1:]] == ["dy", "pv", "vp"]

    def test_boundary_arguments_are_accepted(self, capsys):
        args = ["--height", "1", "--sel-path", "1", "--sel-value", "1", "--fanout", "0.5"]
        code, out, _ = run_cli(capsys, "costmodel", *args)
        assert code == 0
        assert [r[0] for r in csv_rows(out)[1:]] == ["dy", "pv", "vp"]

    def test_other_heights_skip_fixed_vectors(self, capsys):
        code, out, _ = run_cli(capsys, "costmodel", "--height", "6")
        assert code == 0
        names = [r[0] for r in csv_rows(out)[1:]]
        assert names == ["dy", "pv", "vp"]


class TestUsage:
    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "generate", "--bogus")
        assert code == 1

    def test_unknown_command_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1


def rcas_process(*argv, stdout):
    """`rcas` in a child process, as the console script runs it, with
    block-buffered output."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([str(Path(rcas.__file__).parents[1]), env.get("PYTHONPATH", "")])
    code = "import sys; from rcas.cli import main; sys.exit(main())"
    return subprocess.Popen(
        [sys.executable, "-c", code, *argv], stdout=stdout, stderr=subprocess.PIPE, env=env
    )


class TestBrokenPipe:
    """A reader that stops reading ends the command quietly, with the exit
    code a shell reports for a tool that SIGPIPE ended."""

    def test_reader_closes_after_one_line(self):
        proc = rcas_process("generate", "--count", "200000", stdout=subprocess.PIPE)
        assert proc.stdout.readline().endswith(b";1\n")
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (141, b"")

    @pytest.mark.parametrize("command", ["generate", "build"])
    def test_reader_gone_before_the_first_write(self, bom_file, command):
        # the output fits the buffer, so it is first written when flushed
        argv = ["generate", "--example", "bom"] if command == "generate" else ["build", bom_file]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = rcas_process(*argv, stdout=write_end)
        finally:
            os.close(write_end)
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (141, b"")
