"""Command-line surface: generate, build, query, stats, bench, costmodel.

Exit codes: 0 on success, 1 for usage errors (bad flags, malformed query
syntax, impossible ranges), 2 for data errors (unparsable dataset lines,
width overflows, empty inputs), 141 when the reader of stdout has gone.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import statistics
import sys
import time
from typing import Sequence

from . import costmodel, dataset, query, trie
from .dataset import DataError, GeneratorConfig
from .interleave import SurrogateOverflow
from .keys import Dimension, KeySet

USAGE_EXIT = 1
DATA_EXIT = 2
PIPE_EXIT = 141  # 128 + SIGPIPE, as a shell reports a tool that SIGPIPE ended
# The largest `rcas costmodel --height`: each vector is built and evaluated
# in pure Python, in time and memory linear in the height.
HEIGHT_MAX = 10_000


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def _load_keys(path: str, width: int) -> KeySet:
    return dataset.records_to_keys(dataset.load_records(path), width)


def cmd_generate(args) -> int:
    if args.example == "bom":
        records = list(dataset.BOM_EXAMPLE)
    else:
        config = GeneratorConfig(
            seed=args.seed,
            key_count=args.count,
            label_alphabet_size=args.alphabet,
            max_depth=args.max_depth,
            value_skew=args.skew,
            duplicate_fraction=args.dup_fraction,
        )
        records = dataset.generate(config)
    dataset.write_records(records, args.output or sys.stdout)
    return 0


def _print_stats_csv(stats: trie.IndexStats, rows: Sequence[list] = ()) -> None:
    """The header, then `rows`, then the rows of `stats`, to stdout."""
    w = csv.writer(sys.stdout)
    w.writerow(["section", "metric", "value"])
    w.writerows(rows)
    w.writerow(["summary", "nodes", stats.node_count])
    w.writerow(["summary", "leaves", stats.leaf_count])
    w.writerow(["summary", "keys", stats.key_count])
    w.writerow(["summary", "unique_keys", stats.unique_key_count])
    w.writerow(["summary", "avg_node_depth", f"{stats.avg_node_depth:.4f}"])
    w.writerow(["summary", "avg_leaf_depth", f"{stats.avg_leaf_depth:.4f}"])
    w.writerow(["summary", "size_estimate_bytes", stats.size_estimate])
    for depth, count in stats.depth_histogram.items():
        w.writerow(["depth_histogram", depth, count])
    for (kind, dim), count in stats.kind_dim_counts.items():
        w.writerow(["node_types", f"{kind}/{dim}", count])


def cmd_build(args) -> int:
    keys = _load_keys(args.dataset, args.width)
    started = time.perf_counter()
    index = trie.build_static(keys, args.scheme)
    elapsed = time.perf_counter() - started
    if args.save:
        try:
            trie.save(index, args.save)
        except ValueError as exc:
            raise DataError(f"cannot save {args.save!r}: {exc}") from exc
    build = [
        ["build", "scheme", index.scheme],
        ["build", "records", len(keys)],
        ["build", "build_seconds", f"{elapsed:.6f}"],
        ["build", "byte_scans", index.build_stats.byte_scans],
        ["build", "partition_moves", index.build_stats.moves],
    ]
    _print_stats_csv(trie.collect_stats(index), build)
    return 0


def _obtain_index(args) -> trie.RcasIndex:
    if args.load is not None:
        try:
            return trie.load(args.load)
        except ValueError as exc:
            raise DataError(f"index file {args.load!r}: {exc}") from exc
    keys = _load_keys(args.dataset, args.width)
    return trie.build_static(keys, args.scheme)


def cmd_query(args) -> int:
    qpath = query.parse_query_path(args.path)  # usage errors before any file is read
    if args.low > args.high:
        raise UsageError(f"impossible range: {args.low} > {args.high}")
    index = _obtain_index(args)
    try:
        vrange = query.ValueRange.closed(args.low, args.high, index.value_width)
    except OverflowError as exc:
        raise DataError(str(exc)) from exc
    started = time.perf_counter()
    result = query.run_query(index, qpath, vrange)
    elapsed = time.perf_counter() - started
    print(f"matches: {len(result.refs)}")
    print(f"visited_nodes: {result.visited}")
    print(f"seconds: {elapsed:.6f}")
    for ref in sorted(result.refs):
        print(f"{ref:x}")
    return 0


def cmd_stats(args) -> int:
    index = _obtain_index(args)
    _print_stats_csv(trie.collect_stats(index))
    return 0


def _parse_query_line(line: str, lineno: int, width: int) -> tuple[query.QueryPath, query.ValueRange]:
    parts = line.strip().split(";")
    if len(parts) != 3:
        raise DataError(f"query line {lineno}: expected 'path;low;high'")
    qpath = query.parse_query_path(parts[0])
    try:
        low, high = int(parts[1]), int(parts[2])
    except ValueError:
        raise DataError(f"query line {lineno}: bad range bounds") from None
    if low > high:
        raise DataError(f"query line {lineno}: impossible range")
    try:
        return qpath, query.ValueRange.closed(low, high, width)
    except OverflowError as exc:
        raise DataError(f"query line {lineno}: {exc}") from exc


def cmd_bench(args) -> int:
    if args.repeat < 1:
        raise UsageError(f"--repeat must be at least 1, not {args.repeat}")
    queries = []  # read before the dataset: a query line needs the width only
    try:
        with open(args.queries, "r", encoding="ascii") as fh:
            for lineno, line in enumerate(fh, start=1):
                if line.strip():
                    queries.append(_parse_query_line(line, lineno, args.width))
    except UnicodeDecodeError as exc:
        raise DataError(f"query file {args.queries!r} is not ASCII: {exc}") from exc
    keys = _load_keys(args.dataset, args.width)

    indexes = {scheme: trie.build_static(keys, scheme) for scheme in trie.SCHEMES}

    w = csv.writer(sys.stdout)
    w.writerow(
        ["query", "scheme", "runtime_ms", "visited_nodes", "result_size", "sigma", "sigma_p", "sigma_v"]
    )
    runtimes: dict[str, list[float]] = {scheme: [] for scheme in trie.SCHEMES}
    n = len(keys)
    full = query.ValueRange.closed(0, (1 << (8 * args.width)) - 1, args.width)
    anywhere = query.parse_query_path("//")
    for qpath, vrange in queries:
        oracle = sorted(query.scan(keys, qpath, vrange))
        sel = costmodel.QuerySelectivities(
            total=len(oracle) / n,
            path=len(query.scan(keys, qpath, full)) / n,
            value=len(query.scan(keys, anywhere, vrange)) / n,
        )
        for scheme in trie.SCHEMES:
            index = indexes[scheme]
            best: list[int] = []
            elapsed = 0.0
            for _ in range(args.repeat):
                started = time.perf_counter()
                result = query.run_query(index, qpath, vrange)
                elapsed += time.perf_counter() - started
                best = result.refs
            if sorted(best) != oracle:
                raise AssertionError(
                    f"scheme {scheme} disagrees with the scan oracle on {qpath.text}"
                )
            ms = 1000.0 * elapsed / args.repeat
            runtimes[scheme].append(ms)
            w.writerow(
                [
                    qpath.text,
                    scheme,
                    f"{ms:.4f}",
                    result.visited,
                    len(best),
                    f"{sel.total:.6f}",
                    f"{sel.path:.6f}",
                    f"{sel.value:.6f}",
                ]
            )
    for scheme in trie.SCHEMES:
        times = runtimes[scheme]
        if not times:
            continue
        avg = statistics.fmean(times)
        sd = statistics.stdev(times) if len(times) > 1 else 0.0
        w.writerow(["summary", scheme, f"{avg:.4f}", "", "", "", "", f"stddev={sd:.4f}"])
    return 0


def _vectors(height: int) -> dict[str, str]:
    """The tabulated dimension vectors, spelled in P and V; i1 and i2 are
    the fixed vectors of height 12."""
    half = height // 2
    return {
        "dy": ("VP" * height)[:height],
        "pv": "P" * (height - half) + "V" * half,
        "vp": "V" * (height - half) + "P" * half,
        "i1": "VVVVPVPVPPPP",
        "i2": "VVVPPVPVVPPP",
    }


def cmd_costmodel(args) -> int:
    if not (math.isfinite(args.fanout) and args.fanout > 0):
        raise UsageError(f"--fanout must be a positive number, not {args.fanout}")
    if args.height < 1:
        raise UsageError(f"--height must be at least 1, not {args.height}")
    if args.height > HEIGHT_MAX:
        raise UsageError(f"--height must be at most {HEIGHT_MAX}, not {args.height}")
    for flag, sel in (("--sel-path", args.sel_path), ("--sel-value", args.sel_value)):
        if not 0 < sel <= 1:
            raise UsageError(f"{flag} must lie in (0, 1], not {sel}")
    rows = []
    for name, spelled in _vectors(args.height).items():
        if len(spelled) != args.height:
            continue
        params = costmodel.CostModelParams(
            fanout=args.fanout,
            height=args.height,
            dims=tuple(map(Dimension, spelled)),
            sel_path=args.sel_path,
            sel_value=args.sel_value,
        )
        c1, c2 = costmodel.complementary_costs(params, include_root=args.include_root)
        avg, sd = costmodel.pair_stats(c1, c2)
        if not all(map(math.isfinite, (c1, c2, avg, sd))):
            raise UsageError(
                f"the cost of vector {name} overflows at --fanout {args.fanout}"
                f" and --height {args.height}"
            )
        rows.append([name, f"{c1:.2f}", f"{c2:.2f}", f"{avg:.2f}", f"{sd:.2f}"])
    w = csv.writer(sys.stdout)
    w.writerow(["vector", "cost_q", "cost_q_complementary", "avg", "stddev"])
    w.writerows(rows)
    return 0


def _make_parser() -> _Parser:
    parser = _Parser(prog="rcas", description="Content-and-structure index toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="produce a synthetic dataset")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--alphabet", type=int, default=8)
    p.add_argument("--max-depth", type=int, default=5)
    p.add_argument("--skew", type=float, default=1.1)
    p.add_argument("--dup-fraction", type=float, default=0.1)
    p.add_argument("--example", choices=["bom"], default=None)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_generate)

    def add_index_args(p, with_save=False, with_load=False):
        only = " (read with --dataset only; a --load file keeps its own)" if with_load else ""
        p.add_argument("--scheme", choices=trie.SCHEMES, default="rcas", help="partitioning scheme" + only)
        p.add_argument("--width", type=int, choices=[4, 8], default=4, help="value width in bytes" + only)
        if with_save:
            p.add_argument("--save", default=None)
        if with_load:  # exactly one source of the index
            source = p.add_mutually_exclusive_group(required=True)
            source.add_argument("--dataset")
            source.add_argument("--load")

    p = sub.add_parser("build", help="build an index and report statistics")
    p.add_argument("dataset")
    add_index_args(p, with_save=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("query", help="answer one path+range query")
    p.add_argument("path", help="query path, e.g. /bom/item//battery")
    p.add_argument("low", type=int)
    p.add_argument("high", type=int)
    add_index_args(p, with_load=True)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("stats", help="print structural statistics")
    add_index_args(p, with_load=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("bench", help="compare all schemes on a query file")
    p.add_argument("dataset")
    p.add_argument("queries")
    p.add_argument("--width", type=int, choices=[4, 8], default=4)
    p.add_argument("--repeat", type=int, default=10)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("costmodel", help="tabulate the analytic cost model")
    p.add_argument("--fanout", type=float, default=10.0)
    p.add_argument("--height", type=int, default=12, help=f"1 to {HEIGHT_MAX}")
    p.add_argument("--sel-path", type=float, default=0.5)
    p.add_argument("--sel-value", type=float, default=0.1)
    p.add_argument("--include-root", action="store_true")
    p.set_defaults(func=cmd_costmodel)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a reader that has gone is met here, not at shutdown
        return code
    except (UsageError, query.QuerySyntaxError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except BrokenPipeError:
        # the reader of stdout has gone: stop quietly, and point stdout at
        # the null device so that the flush at shutdown cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return PIPE_EXIT
    except (DataError, OSError, SurrogateOverflow) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())
