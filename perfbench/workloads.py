"""The three workloads and the end-to-end and per-layer numbers they yield.

Every workload runs in this one process with one closed-loop caller: the
next library call starts only when the previous one has returned.  No
thread or process is started.  The interpreter's garbage collector stays
on, because users pay for it.

Set-up is what the program does before it can serve: generate the dataset,
write it to a file, read it back, encode the keys, bulk load, collect
stats, save the index file and open it again (pairs also builds the four
static baselines).  It is repeated and its median reported, so work moved
into set-up shows.  Oracle work is never inside a timed region.
"""

from __future__ import annotations

import bisect
import math
import os
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass

from rcas.costmodel import calibrate, error_factor, estimate_cost
from rcas.dataset import GeneratorConfig, generate, load_records, records_to_keys, write_records
from rcas.interleave import STATIC_SCHEMES, ZoContext, static_interleave
from rcas.keys import CompositeKey
from rcas.query import ValueRange, parse_query_path, run_query, scan
from rcas.trie import build_static, bulk_load, collect_stats, load_bytes, save_bytes

from hostspeed import HostSpeed
from queries import PathIndex, Query, complementary_pairs, lookup_queries
from spans import Tracer, summarize

SCHEMES = ("rcas",) + STATIC_SCHEMES
KEY_COUNT = 100_000
WIDTHS = {"ingest": 8, "pairs": 4, "lookups": 8}
SETUP_REPS = 2  # set-ups per run; set-up time is their median
RESAVES = 2  # timed saves of each reopened set-up index, each checked bit-exact
LOOKUP_COUNT = 4000  # well past the 256 entries of the compiled-matcher cache
INGEST_PROBES = 2000
PROBE_ROUNDS = 2  # rounds of the probe queries on each opened index
SCAN_SAMPLE = 16
INTERLEAVE_SAMPLE_STEP = 5  # static_interleave is timed on every 5th key

_now = time.perf_counter_ns


@dataclass
class Built:
    records: list
    keys: list
    index: object  # the rcas index as opened from its file
    stats: object
    saved: bytes
    statics: dict


@dataclass
class Timed:
    """Work of `elapsed` ns done between `start` and `end` (perf_counter_ns)."""

    start: int
    end: int
    elapsed: int


class Run:
    """One workload run: its tracer, its checks and its raw timings."""

    def __init__(self, workload: str, seed: int, seconds: float, tracer: Tracer, workdir: str):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tr = tracer
        self.host = HostSpeed()
        self.width = WIDTHS[workload]
        self.rng = random.Random(seed)
        self.data_path = os.path.join(workdir, f"data-{os.getpid()}.txt")
        self.index_path = os.path.join(workdir, f"index-{os.getpid()}.rcas")
        self.attempted = 0
        self.failed = 0
        self.setup: list[Timed] = []
        self.ingest: list[Timed] = []  # dataset file -> built rcas index
        self.save: list[Timed] = []
        self.open: list[Timed] = []
        self.static: list[Timed] = []  # ZoContext and the four static builds
        self.file_bytes = 0
        # scheme -> query position -> (start, elapsed) of each of its runs
        self.latency: dict[str, dict[int, list[tuple[int, int]]]] = {s: {} for s in SCHEMES}
        self.error_factors: list[float] = []
        self.pair_visited: dict[str, list[tuple[int, int]]] = {}
        self.notes: list[str] = []

    def cleanup(self) -> None:
        for path in (self.data_path, self.index_path):
            if os.path.exists(path):
                os.remove(path)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)

    def call(self, name: str, fn, *args, counts=None, **attrs):
        """One library call inside a span, with host-speed samples on either
        side; returns (result, Timed).  `counts(result)` gives span attrs
        known only once the call has returned."""
        self.host.sample_if_stale()
        with self.tr.span(name, **attrs) as sp:
            t0 = _now()
            out = fn(*args)
            t1 = _now()
            if counts is not None:
                sp.set(**counts(out))
        self.host.sample()
        return out, Timed(t0, t1, t1 - t0)

    def deadline_passed(self, start: int) -> bool:
        return _now() - start >= self.seconds * 1e9

    # --- the program's pipeline ------------------------------------------

    def make_dataset(self) -> None:
        config = GeneratorConfig(seed=self.seed, key_count=KEY_COUNT)
        records, _ = self.call("dataset.generate", generate, config)
        self.call("dataset.write_records", write_records, records, self.data_path, records=len(records))

    def build_from_file(self, statics: bool) -> Built:
        """File -> records -> keys -> index -> stats -> index file -> opened index."""
        n = KEY_COUNT
        records, t_load = self.call("dataset.load_records", load_records, self.data_path, records=n)
        keys, t_keys = self.call("dataset.records_to_keys", records_to_keys, records, self.width, records=n)
        index, t_bulk = self.call(
            "trie.bulk_load",
            bulk_load,
            keys,
            keys=n,
            counts=lambda ix: {"byte_scans": ix.build_stats.byte_scans, "moves": ix.build_stats.moves},
        )
        self.ingest.append(Timed(t_load.start, t_bulk.end, t_load.elapsed + t_keys.elapsed + t_bulk.elapsed))
        stats, _ = self.call(
            "trie.collect_stats",
            collect_stats,
            index,
            counts=lambda st: {
                "node_count": st.node_count,
                "avg_leaf_depth": st.avg_leaf_depth,
                "size_estimate": st.size_estimate,
                "keys": st.key_count,
            },
        )
        data, t_save = self.call("trie.save_bytes", save_bytes, index, keys=n)
        self.save.append(t_save)
        index = None
        with self.tr.span("io.write_index"), open(self.index_path, "wb") as fh:
            fh.write(data)
        with self.tr.span("io.read_index"), open(self.index_path, "rb") as fh:
            raw = fh.read()
        opened, t_open = self.call("trie.load_bytes", load_bytes, raw, keys=n)
        self.open.append(t_open)
        self.file_bytes = len(raw)
        self.check(opened.key_count == len(records), "opened index key_count")

        built = Built(records, keys, opened, stats, raw, {})
        if statics:
            built.statics = self.build_statics(keys)
        return built

    def build_statics(self, keys: list) -> dict:
        """ZoContext and the four static indexes, timed as one sample."""
        start = _now()
        ctx, t_ctx = self.call("interleave.zo_context", ZoContext.from_keys, keys, keys=len(keys))
        elapsed = t_ctx.elapsed
        statics = {}
        for scheme in STATIC_SCHEMES:
            ix, t = self.call("trie.build_static." + scheme, build_static, keys, scheme, ctx, keys=len(keys))
            self.check(ix.key_count == len(keys), f"{scheme} key_count")
            statics[scheme] = ix
            elapsed += t.elapsed
        self.static.append(Timed(start, _now(), elapsed))
        return statics

    def prepare(self, statics: bool) -> Built:
        built = None
        for _ in range(SETUP_REPS):
            built = None  # release the previous set-up before building again
            with self.tr.span("op.setup"):
                t0 = _now()
                self.make_dataset()
                built = self.build_from_file(statics)
                t1 = _now()
            self.setup.append(Timed(t0, t1, t1 - t0))
            self.reopen(built)
            for _ in range(RESAVES):
                self.resave(built)
        return built

    def reopen(self, built: Built) -> None:
        """Open the saved file once more, in place of the served index: one
        more open sample."""
        built.index = None
        built.index, t_open = self.call("trie.load_bytes", load_bytes, built.saved, keys=len(built.keys))
        self.open.append(t_open)

    def resave(self, built: Built) -> None:
        """Save the opened index again: one more save sample, and the bytes
        must equal the file it was opened from."""
        data, t_save = self.call("trie.save_bytes", save_bytes, built.index, keys=len(built.keys))
        self.save.append(t_save)
        self.check(data == built.saved, "save -> load -> save is bit-exact")

    # --- queries ------------------------------------------------------------

    def query(self, scheme: str, index, qid: int, q: Query, expected: list[int]) -> int:
        """One timed query, checked against its expected refs; returns visited."""
        tr = self.tr
        self.host.sample_if_stale()
        with tr.span("op.query"):
            t0 = _now()
            try:
                with tr.span("query.parse_query_path"):
                    qpath = parse_query_path(q.path)
                vrange = ValueRange.closed(q.low, q.high, self.width)
                with tr.span("query.run_query." + scheme, qid=qid) as sp:
                    res = run_query(index, qpath, vrange)
                    sp.set(visited=res.visited, refs=len(res.refs))
            except Exception as exc:  # counted as a failed operation, never dropped
                self.check(False, f"{scheme} {q.path} [{q.low}, {q.high}] raised {exc!r}")
                return 0
            dt = _now() - t0
        self.latency[scheme].setdefault(qid, []).append((t0, dt))
        self.check(sorted(res.refs) == expected, f"{scheme} {q.path} [{q.low}, {q.high}] refs")
        return res.visited

    def query_all(self, scheme: str, index, queries: list[Query], expected: list) -> list[int]:
        return [self.query(scheme, index, i, q, e) for i, (q, e) in enumerate(zip(queries, expected))]

    def cross_check(self, keys: list, oracle: PathIndex, queries: list[Query]) -> None:
        """The grouping oracle must agree with ``scan`` on a seeded sample.
        Keys outside a query's value range are left out: they fail the
        range predicate, so scan would drop them anyway."""
        keys_by_value = sorted(keys, key=lambda k: k.value)
        values = [k.value_int for k in keys_by_value]
        for q in random.Random(self.seed).sample(queries, SCAN_SAMPLE):
            in_range = keys_by_value[bisect.bisect_left(values, q.low) : bisect.bisect_right(values, q.high)]
            vrange = ValueRange.closed(q.low, q.high, self.width)
            self.check(
                sorted(scan(in_range, parse_query_path(q.path), vrange)) == oracle.refs(q.path, q.low, q.high),
                f"grouping oracle vs scan on {q.path}",
            )

    def cost_model(self, stats, queries: list[Query], visited: list[int]) -> None:
        """Calibrated cost-model estimate next to the measured visited count."""
        tr = self.tr
        for q, v in zip(queries, visited):
            if q.sigma_path == 0 or v == 0:
                continue  # a miss selects nothing; the model needs σ > 0
            with tr.span("costmodel.calibrate"):
                params = calibrate(
                    stats.unique_key_count, stats.avg_node_depth, q.sigma_path_calibration, q.sigma_value
                )
            with tr.span("costmodel.estimate_cost"):
                est = estimate_cost(params)
            self.error_factors.append(error_factor(est, v))


# --- workloads ---------------------------------------------------------------


def run_ingest(run: Run) -> None:
    """Set-up, then passes of file -> index -> stats -> save -> open -> probe
    queries, then the z-order context and the four static interleavings on
    the last pass's keys.  The static builds themselves run in the pairs
    set-up."""
    built = run.prepare(statics=False)
    oracle = PathIndex(built.records)
    probes = lookup_queries(oracle, run.rng, INGEST_PROBES)
    expected = [oracle.refs(q.path, q.low, q.high) for q in probes]

    start = _now()
    passes = 0
    while passes == 0 or not run.deadline_passed(start):
        built = None
        with run.tr.span("op.ingest_pass"):
            built = run.build_from_file(statics=False)
        run.resave(built)
        for _ in range(PROBE_ROUNDS):
            visited = run.query_all("rcas", built.index, probes, expected)
        passes += 1
    run.notes.append(
        f"{passes} ingest pass(es) of {KEY_COUNT} keys, {PROBE_ROUNDS} x {len(probes)} probe queries each"
    )
    run.cross_check(built.keys, oracle, probes)
    run.cost_model(built.stats, probes, visited)

    keys = built.keys
    built = None
    ctx, _ = run.call("interleave.zo_context", ZoContext.from_keys, keys, keys=len(keys))
    sample = keys[::INTERLEAVE_SAMPLE_STEP]
    for scheme in STATIC_SCHEMES:
        run.call("interleave.static_interleave." + scheme, _interleave_all, sample, scheme, ctx, keys=len(sample))


def _interleave_all(keys, scheme, ctx) -> None:
    for k in keys:
        static_interleave(k, scheme, ctx)


def run_lookups(run: Run) -> None:
    """Thousands of distinct exact-path lookups on the rcas index."""
    built = run.prepare(statics=False)
    oracle = PathIndex(built.records)
    queries = lookup_queries(oracle, run.rng, LOOKUP_COUNT)
    expected = [oracle.refs(q.path, q.low, q.high) for q in queries]
    run.cross_check(built.keys, oracle, queries)

    start = _now()
    passes = 0
    while passes == 0 or not run.deadline_passed(start):
        visited = run.query_all("rcas", built.index, queries, expected)
        if passes == 0:
            run.cost_model(built.stats, queries, visited)
        passes += 1
    run.notes.append(f"{passes} pass(es) over {len(queries)} distinct lookups")


def run_pairs(run: Run) -> None:
    """Complementary query pairs against all five schemes."""
    built = run.prepare(statics=True)
    indexes = {"rcas": built.index, **built.statics}
    oracle_start = _now()
    oracle = PathIndex(built.records)
    pairs = complementary_pairs(oracle, run.rng)
    queries = [q for p in pairs for q in (p.first, p.twin)]

    # scan decides the path predicate over one key per distinct path, which
    # also measures σP; then it scans the keys of the matching paths that
    # lie in the value range.
    paths = sorted(oracle.groups)
    per_path = [CompositeKey.make(p, 0, i, run.width) for i, p in enumerate(paths)]
    every_value = ValueRange.closed(0, 0, run.width)
    matched = {
        path: [paths[i] for i in scan(per_path, parse_query_path(path), every_value)]
        for path in {q.path for q in queries}
    }
    expected = []
    for q in queries:
        rows = [(p, v, r) for p in matched[q.path] for v, r in oracle.groups[p]]
        run.check(len(rows) / oracle.n == q.sigma_path, f"path selectivity of {q.path}")
        candidates = [CompositeKey.make(p, v, r, run.width) for p, v, r in rows if q.low <= v <= q.high]
        vrange = ValueRange.closed(q.low, q.high, run.width)
        expected.append(sorted(scan(candidates, parse_query_path(q.path), vrange)))
    run.notes.append(f"oracle work after set-up: {(_now() - oracle_start) / 1e9:.1f} s")

    # The first pass runs every scheme; later passes run rcas, whose times
    # are the end-to-end figures, and one static scheme in turn.
    start = _now()
    passes = 0
    visited: dict[str, list[int]] = {}
    while passes == 0 or not run.deadline_passed(start):
        schemes = SCHEMES if passes == 0 else ("rcas", STATIC_SCHEMES[(passes - 1) % len(STATIC_SCHEMES)])
        for scheme in schemes:
            visited.setdefault(scheme, run.query_all(scheme, indexes[scheme], queries, expected))
        passes += 1
    run.cost_model(built.stats, queries, visited["rcas"])
    for scheme, v in visited.items():
        run.pair_visited[scheme] = list(zip(v[0::2], v[1::2]))
    counts = pair_counts(run)
    lw, rcas = (counts[f"query.{s}.visited_per_query"][0] for s in ("lw", "rcas"))
    lw_ratio, rcas_ratio = (counts[f"query.{s}.pair_cost_ratio"][0] for s in ("lw", "rcas"))
    run.notes.append(
        f"lw vs rcas, as measured: {lw:.0f} vs {rcas:.0f} visited nodes per query,"
        f" pair cost ratio {lw_ratio:.2f} vs {rcas_ratio:.2f}"
    )
    run.notes.append(
        f"{passes} pass(es) over {len(pairs)} pairs in {(_now() - start) / 1e9:.1f} s"
    )
    for p in pairs:
        run.notes.append(
            f"pair {p.shape}: {p.first.path} σP={p.first.sigma_path:.3g} σV={p.first.sigma_value:.3g}"
            f" | {p.twin.path} σP={p.twin.sigma_path:.3g} σV={p.twin.sigma_value:.3g}"
        )


WORKLOADS = {"ingest": run_ingest, "pairs": run_pairs, "lookups": run_lookups}


# --- metrics -----------------------------------------------------------------


def _p99(values: list) -> float:
    return statistics.quantiles(values, n=100)[98]


def _geomean(xs) -> float:
    xs = list(xs)
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def end_to_end(run: Run, adjusted: bool) -> dict[str, tuple[float, str]]:
    """What a user of the library sees.  With `adjusted`, every timing is
    rescaled to the reference host speed (see hostspeed.py)."""
    host = run.host

    def elapsed(t: Timed) -> float:
        return t.elapsed / host.slowdown(t.start, t.end) if adjusted else t.elapsed

    def rate(samples: list[Timed], keys: int = KEY_COUNT) -> float:
        return statistics.median(keys * 1e9 / elapsed(t) for t in samples)

    # each distinct query's median over its passes
    lat = [
        statistics.median(host.adjust(t0, dt) if adjusted else dt for t0, dt in runs)
        for runs in run.latency["rcas"].values()
    ]
    out = {
        "setup_s": (statistics.median(elapsed(t) for t in run.setup) / 1e9, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "query_p50_us": (statistics.median(lat) / 1e3, "us"),
        # On pairs the median falls between a cluster of queries pruned near
        # the root and one that collects subtrees, so it jumps with the
        # seed; the geometric mean moves smoothly and is the gated figure.
        "query_gmean_us": (_geomean(lat) / 1e3, "us"),
        "query_p99_us": (_p99(lat) / 1e3, "us"),
        "queries_per_s": (len(lat) * 1e9 / sum(lat), "1/s"),
        "ingest_keys_per_s": (rate(run.ingest), "keys/s"),
        "save_keys_per_s": (rate(run.save), "keys/s"),
        "open_keys_per_s": (rate(run.open), "keys/s"),
        "index_bytes_per_key": (run.file_bytes / KEY_COUNT, "B/key"),
    }
    if run.static:
        out["static_build_keys_per_s"] = (rate(run.static, len(STATIC_SCHEMES) * KEY_COUNT), "keys/s")
    if "rcas" in run.pair_visited:
        out["pair_cost_ratio"] = (_pair_cost_ratio(run.pair_visited["rcas"]), "ratio")
    out["fail_ratio"] = (run.failed / max(run.attempted, 1), "ratio")
    return out


def _pair_cost_ratio(pairs: list[tuple[int, int]]) -> float:
    return _geomean(max(a, b) / min(a, b) for a, b in pairs)


def pair_counts(run: Run) -> dict[str, tuple[float, str]]:
    """Visited-node counts per scheme on the complementary pairs."""
    out = {}
    for scheme, pairs in run.pair_visited.items():
        out[f"query.{scheme}.visited_per_query"] = (statistics.mean(v for pair in pairs for v in pair), "nodes")
        out[f"query.{scheme}.pair_cost_ratio"] = (_pair_cost_ratio(pairs), "ratio")
        out[f"query.{scheme}.pair_sd_visited"] = (
            statistics.mean(abs(a - b) / math.sqrt(2.0) for a, b in pairs),
            "nodes",
        )
    return out


def _resistant_line(xs: list[int], ys: list[int]) -> tuple[float, float]:
    """Tukey's resistant line: intercept and slope through the medians of the
    lower and upper thirds by x, so a few long pauses do not drag the fit."""
    pts = sorted(zip(xs, ys))
    third = max(1, len(pts) // 3)
    lo, hi = pts[:third], pts[-third:]
    dx = statistics.median(x for x, _ in hi) - statistics.median(x for x, _ in lo)
    slope = (statistics.median(y for _, y in hi) - statistics.median(y for _, y in lo)) / dx if dx else 0.0
    return statistics.median(y - slope * x for x, y in pts), slope


def per_layer(run: Run) -> dict[str, tuple[float, str]]:
    """Per-layer numbers from the recorded spans (raw self times) and counts."""
    layers = summarize(run.tr.spans)
    out: dict[str, tuple[float, str]] = {}

    def us_per(name: str, key: str) -> None:
        layer = layers.get(name)
        if layer is not None:
            out[f"{name}.us_per_{key[:-1]}"] = (layer.self_ns / 1e3 / layer.attr_sum(key), f"us/{key[:-1]}")

    def mean_s(name: str) -> None:
        layer = layers.get(name)
        if layer is not None:
            out[name + ".s"] = (layer.self_ns / layer.calls / 1e9, "s")

    mean_s("dataset.generate")
    for name in ("dataset.write_records", "dataset.load_records", "dataset.records_to_keys"):
        us_per(name, "records")
    for name in ("trie.bulk_load", "trie.save_bytes", "trie.load_bytes"):
        us_per(name, "keys")
    for scheme in STATIC_SCHEMES:
        us_per("trie.build_static." + scheme, "keys")
        us_per("interleave.static_interleave." + scheme, "keys")
    mean_s("interleave.zo_context")

    bulk = layers["trie.bulk_load"]
    keys = bulk.attr_sum("keys")
    out["trie.build_stats.byte_scans_per_key"] = (bulk.attr_sum("byte_scans") / keys, "count/key")
    out["trie.build_stats.moves_per_key"] = (bulk.attr_sum("moves") / keys, "count/key")
    mean_s("trie.collect_stats")
    last = layers["trie.collect_stats"].attrs[-1]
    out["trie.node_count"] = (last["node_count"], "count")
    out["trie.avg_leaf_depth"] = (last["avg_leaf_depth"], "levels")
    out["trie.size_estimate_bytes_per_key"] = (last["size_estimate"] / last["keys"], "B/key")

    parse = layers["query.parse_query_path"]
    out["query.parse_query_path.us"] = (parse.self_ns / parse.calls / 1e3, "us")
    for scheme in SCHEMES:
        layer = layers.get("query.run_query." + scheme)
        if layer is None:
            continue
        visited = [a["visited"] for a in layer.attrs]
        runs: dict[int, list[int]] = {}
        for a, ns in zip(layer.attrs, layer.self_each):
            runs.setdefault(a["qid"], []).append(ns)
        lat = [statistics.median(ns) for ns in runs.values()]
        out[f"query.{scheme}.p50_us"] = (statistics.median(lat) / 1e3, "us")
        out[f"query.{scheme}.p99_us"] = (_p99(lat) / 1e3, "us")
        out[f"query.{scheme}.refs_per_query"] = (layer.attr_sum("refs") / layer.calls, "refs")
        out[f"query.{scheme}.visited_per_query"] = (statistics.mean(visited), "nodes")
        # time = setup + per-node cost x visited, fitted over every call
        setup_ns, ns_per_node = _resistant_line(visited, layer.self_each)
        out[f"query.{scheme}.us_per_visited_node"] = (ns_per_node / 1e3, "us/node")
        if scheme == "rcas":
            out["query.setup_us"] = (setup_ns / 1e3, "us")
    out.update(pair_counts(run))
    out["costmodel.error_factor.p50"] = (statistics.median(run.error_factors), "ratio")
    return out
