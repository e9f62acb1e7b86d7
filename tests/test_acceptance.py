"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass lines as
they are produced.
"""

import gc
import random
import time

import pytest

from rcas.costmodel import (
    CostModelParams,
    alternating_dims,
    alternating_is_optimal,
    calibrate,
    error_factor,
    estimate_cost,
    robustness,
)
from rcas.dataset import GeneratorConfig, generate, records_to_keys
from rcas.keys import Dimension
from rcas.query import ValueRange, parse_query_path, run_query, scan
from rcas.trie import SCHEMES, build_static, bulk_load, load_bytes, save_bytes

from conftest import random_keys, random_query_text, subset
from reference import InterleaveTuple, complement, dim_bytes, dsc, dynamic_interleave, psi_partition
from test_trie import EXPECTED_BOM_TREE, assert_tree_equal
from treeview import nodes, root

P, V, BOT = Dimension.P, Dimension.V, Dimension.BOT


def _pass(num: int, message: str) -> None:
    print(f"[PASS] criterion {num:02d}: {message}")


def test_criterion_01_running_example_tree(bom_keys):
    started = time.perf_counter()
    index = bulk_load(bom_keys)
    assert sum(1 for _ in nodes(index)) == 11
    assert_tree_equal(root(index), EXPECTED_BOM_TREE)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _pass(1, f"bulk load reproduces the 11-node example tree exactly ({elapsed:.3f}s)")


def test_criterion_02_discriminative_bytes(bom_keys, bom_named):
    expected = {
        ("k1 k2 k3 k4 k5 k6 k7", P): 13,
        ("k1 k2 k3 k4 k5 k6 k7", V): 2,
        ("k2 k5 k6 k7", P): 14,
        ("k2 k5 k6 k7", V): 3,
        ("k5 k6 k7", P): 16,
        ("k5 k6 k7", V): 3,
        ("k6", P): 21,
        ("k6", V): 5,
    }
    for (names, dim), want in expected.items():
        part = subset(bom_named, *names.split())
        assert dsc(part, dim) == want, (names, dim)
    _pass(2, "all eight discriminative byte positions of the example reproduced")


def test_criterion_03_interleaving_tables(bom_keys, bom_named):
    k6_tuples = dynamic_interleave(bom_named["k6"], bom_keys)
    assert k6_tuples == [
        InterleaveTuple(b"/bom/item/ca", b"\x00", V, True),
        InterleaveTuple(b"r", b"\x00", P, True),
        InterleaveTuple(b"/b", b"", V, False),
        InterleaveTuple(b"rake\x00", b"\x0c\xc2", BOT, True),
    ]
    head = InterleaveTuple(b"/bom/item/ca", b"\x00", V, True)
    r = InterleaveTuple(b"r", b"\x00", P, True)
    slash_b = InterleaveTuple(b"/b", b"", V, False)
    battery = InterleaveTuple(b"r/battery\x00", b"\x03\xd3", V, True)
    expected = {
        "k1": [head, InterleaveTuple(b"noe\x00", b"\x01\x0e\x50", BOT, True)],
        "k2": [head, r, InterleaveTuple(b"abiner\x00", b"\x00\xf1", BOT, False)],
        "k3": [head, battery, InterleaveTuple(b"", b"\x5a", BOT, True)],
        "k4": [head, battery, InterleaveTuple(b"", b"\xb0", BOT, True)],
        "k5": [head, r, slash_b, InterleaveTuple(b"elt\x00", b"\x0b\x4a", BOT, True)],
        "k6": [head, r, slash_b, InterleaveTuple(b"rake\x00", b"\x0c\xc2", BOT, True)],
        "k7": [head, r, slash_b, InterleaveTuple(b"umper\x00", b"\x0a\x8c", BOT, True)],
    }
    for name, want in expected.items():
        assert dynamic_interleave(bom_named[name], bom_keys) == want, name
    _pass(3, "dynamic interleavings of all seven example keys byte-exact")


def test_criterion_04_worked_query(bom_index):
    trace = []
    result = run_query(
        bom_index, "/bom/item//battery", ValueRange.closed(100_000, 500_000), trace=trace
    )
    assert sorted(result.refs) == [0x3, 0x4, 0x8]
    assert result.visited == 5
    visited = {(bom_index.s_v[i], bom_index.s_p[i]) for i in trace}
    assert (b"\x00", b"r") not in visited, "the carabiner/car subtree must be pruned"
    for must_see in [
        (b"\x01\x0e\x50", b"noe\x00"),
        (b"\x03\xd3", b"r/battery\x00"),
        (b"\x5a", b""),
        (b"\xb0", b""),
    ]:
        assert must_see in visited
    _pass(4, "worked query returns the three battery refs and prunes the sibling subtree")


def test_criterion_05_cost_model_reference_values():
    def vec(pattern):
        return tuple(P if c == "P" else V for c in pattern)

    vectors = {
        "dy": alternating_dims(12),
        "pv": vec("PPPPPPVVVVVV"),
        "vp": vec("VVVVVVPPPPPP"),
        "i1": vec("VVVVPVPVPPPP"),
        "i2": vec("VVVPPVPVVPPP"),
    }
    bars = {
        "dy": (23436, 39060),
        "pv": (113280, 19536),
        "vp": (19536, 113280),
        "i1": (19564, 85780),
        "i2": (19808, 67280),
    }
    for name, (want_q, want_qc) in bars.items():
        q = estimate_cost(
            CostModelParams(10.0, 12, vectors[name], 0.5, 0.1), include_root=False
        )
        qc = estimate_cost(
            CostModelParams(10.0, 12, vectors[name], 0.1, 0.5), include_root=False
        )
        assert round(q) == want_q and abs(q - want_q) < 1e-6, name
        assert round(qc) == want_qc and abs(qc - want_qc) < 1e-6, name
    avg, sd = robustness(CostModelParams(10.0, 12, vectors["dy"], 0.5, 0.1), include_root=False)
    assert abs(avg - 31248) <= 1
    assert abs(sd - 11047) <= 1
    _pass(5, "all ten cost bars and the alternating vector's aggregates reproduced")


def test_criterion_06_alternation_optimality_exhaustive():
    rng = random.Random(606)
    started = time.perf_counter()
    checked = 0
    for height in range(2, 15):
        for fanout in (2, 10):
            for _ in range(50):
                sp = rng.uniform(0.005, 1.0)
                sv = rng.uniform(0.005, 1.0)
                assert alternating_is_optimal(fanout, height, sp, sv), (fanout, height, sp, sv)
                checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _pass(
        6,
        f"alternating vector minimal in all {checked} exhaustive searches "
        f"(h up to 14, {elapsed:.1f}s)",
    )


def _check_partitioning_edges(keys, dim):
    """Walk the recursive partitioning and verify both monotonicity bounds."""
    base_p = dsc(keys, P)
    base_v = dsc(keys, V)
    ref = keys[0]
    if dim is P and base_p > len(ref.path):
        dim = V
    if dim is V and base_v > len(ref.value):
        dim = P
    g = base_p if dim is P else base_v
    if g > len(dim_bytes(ref, dim)):
        return
    parts = psi_partition(keys, dim, g)
    assert None not in parts
    for part in parts.values():
        assert dsc(part, dim) > (base_p if dim is P else base_v)
        other = complement(dim)
        assert dsc(part, other) >= (base_p if other is P else base_v)
        _check_partitioning_edges(part, other)


def test_criterion_07_monotonicity_everywhere():
    rng = random.Random(707)
    for i in range(1000):
        keys = random_keys(rng)
        _check_partitioning_edges(keys, V)
    _pass(7, "monotonicity held on every partitioning edge of 1000 random key sets")


def test_criterion_08_oracle_equivalence_all_schemes():
    rng = random.Random(20240801)
    n_datasets, n_queries = 100, 100
    checked = 0
    for ds in range(n_datasets):
        r = rng.random()
        if r < 0.70:
            size = rng.randint(1, 120)
        elif r < 0.95:
            size = rng.randint(121, 400)
        else:
            size = rng.randint(401, 1000)
        cfg = GeneratorConfig(
            seed=5000 + ds,
            key_count=size,
            label_alphabet_size=rng.randint(2, 6),
            max_depth=rng.randint(1, 6),
            value_skew=rng.choice([0.0, 0.8, 1.3]),
            duplicate_fraction=rng.choice([0.0, 0.15, 0.35]),
            value_max=rng.choice([1 << 12, 1 << 20, 1 << 31]),
        )
        keys = records_to_keys(generate(cfg))
        paths = [k.path_text for k in keys]
        values = sorted(k.value_int for k in keys)
        indexes = {s: build_static(keys, s) for s in SCHEMES}
        for _ in range(n_queries):
            qpath = parse_query_path(random_query_text(rng, paths))
            lo = rng.choice(values + [0])
            hi = rng.choice([v for v in values if v >= lo] + [lo, values[-1] + 17])
            if lo > hi:
                lo, hi = hi, lo
            vrange = ValueRange.closed(lo, hi)
            want = sorted(scan(keys, qpath, vrange))
            for scheme, index in indexes.items():
                got = sorted(run_query(index, qpath, vrange).refs)
                assert got == want, (ds, scheme, qpath.text, lo, hi)
            checked += 1
    assert checked == 10_000
    _pass(8, f"all five schemes equal the scan oracle on {checked} dataset/query instances")


def _timed_build(keys):
    # timing only: the build allocates heavily but creates no cycles, so the
    # cyclic collector would just add heap-proportional noise
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        index = bulk_load(keys)
        return time.perf_counter() - started, index
    finally:
        gc.enable()


def test_criterion_09_build_bounds_and_scaling():
    # instrumentation bounds on small generator datasets
    for seed in (90, 91):
        cfg = GeneratorConfig(seed=seed, key_count=2000, duplicate_fraction=0.3)
        keys = records_to_keys(generate(cfg))
        index = bulk_load(keys)
        distinct = {(k.path, k.value) for k in keys}
        assert index.build_stats.byte_scans <= sum(len(p) + len(v) for p, v in distinct)
        longest = max(len(k.path) + len(k.value) for k in keys)
        assert index.build_stats.moves <= longest * len(keys)

    # scaling mirrors the reference methodology: grow mostly by duplication
    def config(count):
        return GeneratorConfig(
            seed=9,
            key_count=count,
            label_alphabet_size=6,
            max_depth=5,
            value_skew=1.0,
            duplicate_fraction=0.3,
            value_max=4096,
        )

    # both sizes are timed the same way, as the best of three builds, so that
    # the ratio compares warm builds and not first-touch memory with reuse
    small_keys = records_to_keys(generate(config(100_000)))
    small_elapsed = min(_timed_build(small_keys)[0] for _ in range(3))
    del small_keys

    big_keys = records_to_keys(generate(config(1_000_000)))
    big_elapsed, big_index = min((_timed_build(big_keys) for _ in range(3)), key=lambda run: run[0])

    distinct = {(k.path, k.value) for k in big_keys}
    assert big_index.build_stats.byte_scans <= sum(len(p) + len(v) for p, v in distinct)
    longest = max(len(k.path) + len(k.value) for k in big_keys)
    assert big_index.build_stats.moves <= longest * len(big_keys)

    assert big_elapsed < 60.0, f"one-million-key build took {big_elapsed:.1f}s"
    ratio = big_elapsed / small_elapsed
    assert ratio < 15.0, f"10x keys slowed the build down {ratio:.1f}x"
    _pass(
        9,
        f"build bounds hold; 1M keys built in {big_elapsed:.1f}s, "
        f"10x scaling factor {ratio:.1f} < 15",
    )


def test_criterion_10_calibration_arithmetic():
    params = calibrate(9_300_000, 13.2, sigma_path=0.02, sigma_value=0.329)
    assert params.height == 13
    assert params.fanout == pytest.approx(3.43, abs=0.01)
    assert params.sel_value == pytest.approx(0.85, abs=0.01)
    assert params.sel_path == pytest.approx(0.52, abs=0.01)
    table = [
        (105793, 83190, 1.27),
        (19157, 28943, 1.51),
        (542458, 273824, 1.98),
        (710128, 784068, 1.10),
        (111139, 146124, 1.31),
        (9920, 3062, 3.24),
        (34513, 30365, 1.14),
        (18856, 38247, 2.03),
        (20421, 4219, 4.84),
        (17993, 10698, 1.68),
    ]
    for est, true, want in table:
        assert error_factor(est, true) == pytest.approx(want, abs=0.01)
    _pass(10, "calibration worked numbers and all ten error factors reproduced")


def test_criterion_11_serialization_round_trip():
    cfg = GeneratorConfig(seed=110, key_count=500, duplicate_fraction=0.2, value_max=1 << 31)
    keys = records_to_keys(generate(cfg))
    rng = random.Random(111)
    paths = [k.path_text for k in keys]
    values = sorted(k.value_int for k in keys)
    for scheme in ("rcas", "zo"):
        index = build_static(keys, scheme)
        blob = save_bytes(index)
        assert blob.startswith(b"RCAS3")
        loaded = load_bytes(blob)
        assert save_bytes(loaded) == blob, "re-serialization must be byte-identical"
        for _ in range(100):
            qpath = parse_query_path(random_query_text(rng, paths))
            lo = rng.choice(values)
            hi = rng.choice([v for v in values if v >= lo])
            vrange = ValueRange.closed(lo, hi)
            assert sorted(run_query(loaded, qpath, vrange).refs) == sorted(
                run_query(index, qpath, vrange).refs
            )
    _pass(11, "save/load round trip byte-identical with identical query answers")
