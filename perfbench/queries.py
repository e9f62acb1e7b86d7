"""Seeded query sets and their oracles.

Both query families are made from the generated records alone; the library
under test only ever receives the resulting path strings and value ranges.

* Lookups: distinct exact paths with narrow value ranges, a fifth of them on
  paths that no record has.  Their oracle is a grouping of the records by
  path, which is exact for paths with no wildcard or ``//`` step.
* Complementary pairs: a query with path selectivity a and value
  selectivity b next to its twin with the two swapped, for four path shapes
  over a grid of target selectivities.  Their oracle is ``scan``.
"""

from __future__ import annotations

import bisect
import math
import random
from collections import Counter
from dataclasses import dataclass

# Target selectivities of the pair grid; the realized ones are recorded.
SELECTIVITY_GRID = (1e-4, 1e-3, 1e-2, 1e-1, 0.5)
SHAPES = ("exact", "prefix_desc", "desc_label", "one_star")
# Pairs per shape and grid pair; at most VARIANTS x 5 x 4 distinct paths,
# inside the 256 entries of the compiled-matcher cache.
VARIANTS = 4
MISS_SHARE = 0.2
# Lookup ranges reach 1/256 of the stored value to either side of it.
NARROW = 256


@dataclass(frozen=True)
class Query:
    path: str
    low: int
    high: int
    sigma_path: float  # realized share of keys the path matches; 0 for a miss
    sigma_value: float  # realized share of keys the range selects
    # The path selectivity `costmodel.calibrate` asks for: the predicate cut
    # at its first wildcard or descendant step.
    sigma_path_calibration: float


@dataclass(frozen=True)
class Pair:
    shape: str
    first: Query
    twin: Query


def labels_of(path: str) -> tuple[str, ...]:
    return tuple(path.split("/")[1:])


def prefix_pattern(labels: tuple[str, ...]) -> str:
    return "/" + "/".join(labels) + "//"


class PathIndex:
    """The records grouped by path: lookup oracle and selectivity counts."""

    def __init__(self, records):
        groups: dict[str, list[tuple[int, int]]] = {}
        for rec in records:
            groups.setdefault(rec.path, []).append((rec.value, rec.ref))
        for rows in groups.values():
            rows.sort()
        self.groups = groups
        self.n = len(records)
        self.values = sorted(rec.value for rec in records)
        self.alphabet = sorted({lab for p in groups for lab in labels_of(p)})
        self.max_depth = max(len(labels_of(p)) for p in groups)

    def refs(self, path: str, low: int, high: int) -> list[int]:
        return sorted(ref for value, ref in self.groups.get(path, ()) if low <= value <= high)

    def value_share(self, low: int, high: int) -> float:
        count = bisect.bisect_right(self.values, high) - bisect.bisect_left(self.values, low)
        return count / self.n

    def value_range(self, target: float, position: float) -> tuple[int, int]:
        """A closed range over the sorted values selecting about `target`.

        The window starts at `position` (0..1) of the feasible starts.  A
        window that a block of tied values would stretch past 1.5x its length
        moves on past that block, so ties in the skewed value distribution do
        not inflate the selectivity.
        """
        values = self.values
        k = min(self.n, max(1, round(target * self.n)))
        s = round(position * (self.n - k))
        best = None
        while s + k <= self.n:
            s = bisect.bisect_left(values, values[s])
            low, high = values[s], values[s + k - 1]
            count = bisect.bisect_right(values, high) - s
            if best is None or count < best[0]:
                best = (count, low, high)
            if count <= 1.5 * k:
                break
            s = bisect.bisect_right(values, low)
        return best[1], best[2]

    def shape_counts(self) -> dict[str, Counter]:
        """Keys matched by every candidate query path of each shape."""
        counts = {shape: Counter() for shape in SHAPES}
        for path, rows in self.groups.items():
            labs = labels_of(path)
            c = len(rows)
            counts["exact"][path] += c
            counts["desc_label"]["//" + labs[-1]] += c
            for i in range(1, len(labs) + 1):
                counts["prefix_desc"][prefix_pattern(labs[:i])] += c
            for i in range(len(labs)):
                counts["one_star"]["/" + "/".join(labs[:i] + ("*",) + labs[i + 1 :])] += c
        return counts


def lookup_queries(index: PathIndex, rng: random.Random, count: int) -> list[Query]:
    """Distinct exact-path queries with narrow ranges around a stored value.

    A miss names a path over the data's own labels that no record has, so
    the evaluator still descends before it finds nothing.
    """
    paths = sorted(index.groups)
    out: list[Query] = []
    seen: set[str] = set()
    n_miss = round(count * MISS_SHARE)
    while len(out) < count:
        if len(out) < count - n_miss:
            path = rng.choice(paths)
            value = rng.choice(index.groups[path])[0]
        else:
            depth = rng.randint(2, index.max_depth)
            path = "/" + "/".join(rng.choice(index.alphabet) for _ in range(depth))
            value = rng.choice(index.values)
            if path in index.groups:
                continue
        if path in seen:
            continue
        seen.add(path)
        low, high = value - value // NARROW, value + value // NARROW
        sigma_path = len(index.groups.get(path, ())) / index.n
        out.append(Query(path, low, high, sigma_path, index.value_share(low, high), sigma_path))
    rng.shuffle(out)
    return out


def complementary_pairs(index: PathIndex, rng: random.Random) -> list[Pair]:
    """For each shape, grid pair a < b and variant: (P_a, σV≈σP(P_b)) and its twin.

    Variant i takes the i-th closest candidate path of the shape to a and to
    b, and places both value windows at the i-th of VARIANTS evenly spaced
    quantile positions.  Each value range targets the realized path
    selectivity of the other query, so the two queries swap their
    selectivities up to value ties.  Variants that land on the same two
    paths as an earlier one, or on one path twice, give no pair.
    """
    counts = index.shape_counts()
    prefixes = counts["prefix_desc"]

    def calibration_sigma(path: str, shape: str, sigma: float) -> float:
        if shape == "desc_label":
            return 1.0
        if shape == "one_star":
            labs = labels_of(path)
            head = labs[: labs.index("*")]
            return prefixes[prefix_pattern(head)] / index.n if head else 1.0
        return sigma

    out: list[Pair] = []
    for shape in SHAPES:
        candidates = sorted(counts[shape].items())
        rng.shuffle(candidates)  # seeded tie-break among equally close paths
        nearest = []
        for target in SELECTIVITY_GRID:
            ranked = sorted(candidates, key=lambda pc: abs(math.log(pc[1] / index.n / target)))
            nearest.append([(p, c / index.n) for p, c in ranked[:VARIANTS]])
        formed: set[tuple[str, str]] = set()
        for i, near_a in enumerate(nearest):
            for near_b in nearest[i + 1 :]:
                for v in range(VARIANTS):
                    pa, sa = near_a[v % len(near_a)]
                    pb, sb = near_b[v % len(near_b)]
                    if pa == pb or (pa, pb) in formed:
                        continue
                    formed.add((pa, pb))
                    position = (v + 0.5) / VARIANTS
                    twins = []
                    for path, sp, sv in ((pa, sa, sb), (pb, sb, sa)):
                        low, high = index.value_range(sv, position)
                        twins.append(
                            Query(
                                path,
                                low,
                                high,
                                sp,
                                index.value_share(low, high),
                                calibration_sigma(path, shape, sp),
                            )
                        )
                    out.append(Pair(shape, twins[0], twins[1]))
    return out
