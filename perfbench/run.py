"""Seeded benchmark for the rcas index.

Run from the repository root:

    python3 perfbench/run.py --workload {ingest,pairs,lookups} --seed N \
        --seconds S --trace {0,1}

The workload's inputs are generated from ``--seed``; the library only
receives the generated records and queries.  Every answer is checked
against an oracle.  The report lists every metric by name with its unit,
and the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json, with ``--trace 1`` the
per-layer ones, taken from spans recorded around each library call.

End-to-end timings, set-up included, are reported at the reference host
speed (see hostspeed.py); the raw figures are printed too.

Scratch files, span dumps and the untraced result of each workload and
seed (used to report the tracing overhead) go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SPEC = os.path.join(ROOT, "BENCHMARK.json")


def _print_group(title: str, metrics: dict[str, tuple[float, str]]) -> None:
    print(f"# {title}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")


def _declared(spec: dict, key: str, measured: dict[str, tuple[float, str]]) -> dict:
    out = {}
    for m in spec[key]:
        value, unit = measured[m["name"]]
        if unit != m["unit"]:
            raise ValueError(f"{m['name']} measured in {unit}, declared in {m['unit']}")
        out[m["name"]] = {"value": value, "unit": unit}
    return out


def _report_overhead(workload: str, seed: int, traced: dict[str, tuple[float, str]]) -> None:
    """Traced minus untraced end-to-end numbers, against the untraced run of
    the same workload and seed recorded in this checkout."""
    path = os.path.join(OUT, f"e2e-{workload}-{seed}.json")
    if not os.path.exists(path):
        print("# tracing overhead: no untraced run of this seed")
        return
    with open(path, encoding="ascii") as fh:
        base = json.load(fh)
    print("# tracing overhead: traced vs untraced, same seed, relative change")
    for name, (value, unit) in traced.items():
        ref = base["metrics"].get(name)
        if ref:
            print(f"overhead.{name:39s} {value - ref:+14.6g} {unit} ({(value - ref) / ref:+.2%})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("ingest", "pairs", "lookups"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "rcas")) or not os.path.exists(SPEC):
        print(f"perfbench: needs src/rcas and BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    from spans import Tracer

    with open(SPEC, encoding="ascii") as fh:
        spec = json.load(fh)
    os.makedirs(OUT, exist_ok=True)
    tracer = Tracer(enabled=args.trace == 1)
    run = workloads.Run(args.workload, args.seed, args.seconds, tracer, OUT)
    try:
        workloads.WORKLOADS[args.workload](run)
    finally:
        run.cleanup()

    e2e = workloads.end_to_end(run, adjusted=True)
    print(f"# workload {args.workload}, seed {args.seed}, width {run.width}, "
          f"{workloads.KEY_COUNT} keys, one closed-loop caller, trace {args.trace}")
    for note in run.notes:
        print(f"# {note}")
    _print_group("end to end, at the reference host speed", e2e)
    _print_group("end to end, raw", workloads.end_to_end(run, adjusted=False))
    if args.trace:
        layers = workloads.per_layer(run)
        _print_group("per layer", layers)
        _report_overhead(args.workload, args.seed, e2e)
        span_path = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl")
        tracer.write(span_path)
        print(f"# {len(tracer.spans)} spans written to {os.path.relpath(span_path, ROOT)}")
        metrics = _declared(spec, "per_layer", layers)
    else:
        _print_group("per layer: visited-node counts", workloads.pair_counts(run))
        with open(os.path.join(OUT, f"e2e-{args.workload}-{args.seed}.json"), "w", encoding="ascii") as fh:
            json.dump({"metrics": {k: v for k, (v, _) in e2e.items()}}, fh)
        metrics = _declared(spec, "end_to_end", e2e)

    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
