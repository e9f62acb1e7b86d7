"""The package root: the library snippet of the README, on the example keys;
and the library names the benchmark imports."""

import ast
import importlib
from pathlib import Path

import rcas
from rcas import (CompositeKey, bulk_load, build_static, cas_query,
                  ValueRange, parse_query_path)
from rcas.dataset import BOM_EXAMPLE


def test_readme_library_snippet(tmp_path):
    keys = [CompositeKey.make(r.path, r.value, ref=r.ref) for r in BOM_EXAMPLE]
    index = bulk_load(keys)
    refs = cas_query(index, "/bom/item/car//", ValueRange.closed(50_000, 2**32 - 1))
    assert sorted(refs) == [0x3, 0x4, 0x8]

    qpath = parse_query_path("/bom/item//battery")
    vrange = ValueRange.closed(100_000, 500_000)
    for scheme in ("rcas", "pv", "vp", "lw", "zo"):
        assert sorted(cas_query(build_static(keys, scheme), qpath, vrange)) == [0x3, 0x4, 0x8]

    target = str(tmp_path / "bom.idx")
    rcas.save(index, target)
    again = rcas.load(target)
    assert sorted(cas_query(again, qpath, vrange)) == [0x3, 0x4, 0x8]


def test_benchmark_imports_resolve():
    # parsed, never executed: a rename in the library must fail here, not
    # only as a crashed benchmark run
    scripts = sorted((Path(__file__).parent.parent / "perfbench").glob("*.py"))
    assert scripts
    checked = 0
    for script in scripts:
        for node in ast.walk(ast.parse(script.read_text(), str(script))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "rcas":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), f"{script.name}: {node.module}.{alias.name}"
                    checked += 1
    assert checked
