"""Analytic search-cost model and robustness metrics.

The model idealizes the index as a complete tree with fanout o and height h
where level i partitions in dimension phi_i; a query follows the fraction
sigma_P of branches at path levels and sigma_V at value levels.  The
estimated cost, in visited nodes, is

    C = 1 + sum_{l=1..h} prod_{i=1..l} (o * sigma_{phi_i})

It is written once (`_cost`) and evaluated level by level: a running product
of the per-level factors o * sigma, added to the total at each level.  One
query's cost takes a float per level (`estimate_cost`); the exhaustive check
takes one array per level, with an entry for each of the 2**h dimension
vectors (`pair_costs`), so it needs O(2**h) memory and O(h * 2**h) time.

The complementary query swaps the two per-level selectivities
(`complementary_costs`); a scheme is robust when it keeps the average cost
over such a pair low.  The exhaustive check over all dimension vectors
confirms that the perfectly alternating vector minimizes the
complementary-pair cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .keys import Dimension


@dataclass(frozen=True)
class CostModelParams:
    fanout: float
    height: int
    dims: tuple[Dimension, ...]
    sel_path: float
    sel_value: float

    def __post_init__(self):
        if len(self.dims) != self.height:
            raise ValueError("dimension vector length must equal the height")
        for d in self.dims:
            if d not in (Dimension.P, Dimension.V):
                raise ValueError("levels partition in P or V only")


@dataclass(frozen=True)
class QuerySelectivities:
    """Whole-query selectivities as fractions of the key count.

    The conjunction cannot select more than either predicate alone, nor less
    than their overlap forces.
    """

    total: float
    path: float
    value: float

    def __post_init__(self):
        for field in (self.total, self.path, self.value):
            if not 0.0 <= field <= 1.0:
                raise ValueError("selectivities are fractions in [0, 1]")
        lo = max(0.0, self.path + self.value - 1.0)
        hi = min(self.path, self.value)
        if not lo - 1e-9 <= self.total <= hi + 1e-9:
            raise ValueError(
                f"inconsistent selectivities: total {self.total} outside [{lo}, {hi}]"
            )


def alternating_dims(height: int) -> tuple[Dimension, ...]:
    """The perfectly alternating vector (V, P, V, P, ...)."""
    return tuple(
        Dimension.V if i % 2 == 0 else Dimension.P for i in range(height)
    )


def _cost(factors, total=0.0):
    """The cost formula: `total` plus the running product of `factors`,
    added level by level.

    A factor is o * sigma of one level: a float for one dimension vector, or
    an array with one entry per vector.  Arrays are updated in place, so that
    memory stays at a few arrays whatever the height.
    """
    level = 1.0
    for factor in factors:
        level *= factor
        total += level
    return total


def estimate_cost(params: CostModelParams, include_root: bool = True) -> float:
    """Evaluate the cost formula; `include_root` adds the leading 1."""
    o, sp, sv = params.fanout, params.sel_path, params.sel_value
    root = 1.0 if include_root else 0.0
    return _cost((o * (sv if d is Dimension.V else sp) for d in params.dims), root)


def complementary_costs(params: CostModelParams, include_root: bool = True) -> tuple[float, float]:
    """Cost of the query and of its complementary query, which swaps the
    per-level selectivities sigma_P and sigma_V."""
    swapped = replace(params, sel_path=params.sel_value, sel_value=params.sel_path)
    return estimate_cost(params, include_root), estimate_cost(swapped, include_root)


def pair_stats(c1: float, c2: float) -> tuple[float, float]:
    """Average and sample standard deviation of two costs."""
    return (c1 + c2) / 2.0, abs(c1 - c2) / math.sqrt(2.0)


def robustness(params: CostModelParams, include_root: bool = True) -> tuple[float, float]:
    """Average and sample standard deviation of the cost over a query and its
    complementary query."""
    return pair_stats(*complementary_costs(params, include_root))


def pair_costs(
    fanout: float, height: int, sel_path: float, sel_value: float
) -> np.ndarray:
    """Complementary-pair cost of every dimension vector of a given height.

    Returns an array of length 2**height; index bit i set means level i+1
    partitions in P.  The root term cancels in comparisons and is omitted.
    The formula runs level by level over all vectors at once, one factor
    array per level, so memory is a few arrays of 2**height entries: a peak
    of 12 MiB at height 18 and 192 MiB at height 22 (tracemalloc).
    """
    vectors = np.arange(1 << height)

    def factors(sel_p, sel_v):
        return (np.where(vectors >> i & 1, fanout * sel_p, fanout * sel_v) for i in range(height))

    return _cost(factors(sel_path, sel_value), _cost(factors(sel_value, sel_path)))


def alternating_is_optimal(fanout: float, height: int, sel_path: float, sel_value: float) -> bool:
    """Exhaustively check that the alternating vector minimizes the
    complementary-pair cost over all 2**height dimension vectors.

    The check costs O(2**height) memory and O(height * 2**height) time (see
    `pair_costs`): at height 22 a peak of 192 MiB and 1.5 s on a 2-core x86
    host, at the limit of 24 four times the memory, 0.75 GiB.
    """
    if height < 1:
        raise ValueError("height must be at least 1")
    if height > 24:
        raise ValueError("exhaustive check is limited to height 24")
    costs = pair_costs(fanout, height, sel_path, sel_value)
    # alternating V,P,V,... -> P at odd levels -> bits 0b...1010
    idx = sum(1 << i for i in range(1, height, 2))
    dy = costs[idx]
    return bool(dy <= costs.min() * (1.0 + 1e-9) + 1e-12)


def calibrate(
    unique_keys: int,
    avg_node_depth: float,
    sigma_path: float,
    sigma_value: float,
) -> CostModelParams:
    """Derive model parameters from index statistics and query selectivities.

    The height is the average node depth truncated to an integer, the fanout
    the h-th root of the unique key count.  Per-level selectivities are the
    N-th roots of the whole-query selectivities, where N is the number of
    levels of that dimension in the alternating vector (the value dimension
    takes the ceiling because partitioning starts with it).  For a path
    predicate whose selectivity collapses under a descendant axis or
    wildcard, pass the selectivity of the predicate truncated at the first
    such step.
    """
    if unique_keys < 2:
        raise ValueError("need at least two unique keys")
    if not 0.0 < sigma_path <= 1.0 or not 0.0 < sigma_value <= 1.0:
        raise ValueError("selectivities must lie in (0, 1]")
    height = int(avg_node_depth)
    if height < 1:
        raise ValueError("average depth below 1 cannot be calibrated")
    fanout = unique_keys ** (1.0 / height)
    n_v = (height + 1) // 2
    n_p = height // 2
    sel_value = sigma_value ** (1.0 / n_v)
    sel_path = sigma_path ** (1.0 / n_p) if n_p else 1.0
    return CostModelParams(
        fanout=fanout,
        height=height,
        dims=alternating_dims(height),
        sel_path=sel_path,
        sel_value=sel_value,
    )


def error_factor(estimated: float, true: float) -> float:
    """Ratio by which the estimate is off: max of the two over the min."""
    if estimated <= 0 or true <= 0:
        raise ValueError("costs must be positive")
    return max(estimated, true) / min(estimated, true)
