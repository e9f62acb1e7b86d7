import math
import random
import tracemalloc

import numpy as np
import pytest

from rcas.costmodel import (
    CostModelParams,
    QuerySelectivities,
    alternating_dims,
    alternating_is_optimal,
    calibrate,
    complementary_costs,
    error_factor,
    estimate_cost,
    pair_costs,
    robustness,
)
from rcas.keys import Dimension

from reference import estimate_cost_loop

P, V = Dimension.P, Dimension.V


def vec(pattern: str) -> tuple[Dimension, ...]:
    return tuple(P if c == "P" else V for c in pattern)


REFERENCE_VECTORS = {
    "dy": alternating_dims(12),
    "pv": vec("PPPPPPVVVVVV"),
    "vp": vec("VVVVVVPPPPPP"),
    "i1": vec("VVVVPVPVPPPP"),
    "i2": vec("VVVPPVPVVPPP"),
}

# expected (cost of Q, cost of complementary Q') at o=10, h=12,
# sel_path=0.5, sel_value=0.1, root term excluded
REFERENCE_COSTS = {
    "dy": (23436, 39060),
    "pv": (113280, 19536),
    "vp": (19536, 113280),
    "i1": (19564, 85780),
    "i2": (19808, 67280),
}


def params_for(name, sel_path=0.5, sel_value=0.1):
    return CostModelParams(10.0, 12, REFERENCE_VECTORS[name], sel_path, sel_value)


class TestEstimate:
    @pytest.mark.parametrize("name", sorted(REFERENCE_COSTS))
    def test_reference_bars(self, name):
        want_q, want_qc = REFERENCE_COSTS[name]
        got_q = estimate_cost(params_for(name), include_root=False)
        got_qc = estimate_cost(params_for(name, 0.1, 0.5), include_root=False)
        assert got_q == pytest.approx(want_q, abs=1e-6)
        assert got_qc == pytest.approx(want_qc, abs=1e-6)

    def test_root_term_adds_exactly_one(self):
        p = params_for("dy")
        assert estimate_cost(p, True) == pytest.approx(estimate_cost(p, False) + 1.0)

    def test_equals_the_reference_loop(self):
        rng = random.Random(2801)
        for _ in range(2000):
            h = rng.randint(1, 40)
            dims = tuple(rng.choice((P, V)) for _ in range(h))
            o = rng.choice((rng.uniform(0.1, 100.0), 10 ** rng.uniform(-5, 30)))
            params = CostModelParams(o, h, dims, rng.random(), rng.random())
            for root in (True, False):
                assert estimate_cost(params, root) == estimate_cost_loop(params, root)

    def test_vector_length_enforced(self):
        with pytest.raises(ValueError):
            CostModelParams(10.0, 3, (V, P), 0.5, 0.1)
        with pytest.raises(ValueError):
            CostModelParams(10.0, 2, (V, Dimension.BOT), 0.5, 0.1)


class TestQuerySelectivities:
    def test_consistent_triple_accepted(self):
        sel = QuerySelectivities(total=0.1, path=0.3, value=0.2)
        assert sel.total == 0.1

    def test_total_bounded_by_each_predicate(self):
        with pytest.raises(ValueError):
            QuerySelectivities(total=0.4, path=0.3, value=0.9)

    def test_total_bounded_below_by_overlap(self):
        with pytest.raises(ValueError):
            QuerySelectivities(total=0.1, path=0.9, value=0.8)

    def test_fractions_only(self):
        with pytest.raises(ValueError):
            QuerySelectivities(total=0.5, path=1.5, value=0.9)


class TestRobustness:
    def test_alternating_vector_aggregates(self):
        avg, sd = robustness(params_for("dy"), include_root=False)
        assert avg == pytest.approx(31248, abs=1e-6)
        assert sd == pytest.approx(11047, abs=1)

    def test_concatenation_aggregates(self):
        avg, sd = robustness(params_for("pv"), include_root=False)
        assert avg == pytest.approx(66408, abs=1e-6)
        assert sd == pytest.approx(66287, abs=1)

    def test_equal_selectivities_have_zero_spread(self):
        _, sd = robustness(params_for("dy", 0.4, 0.4))
        assert sd == pytest.approx(0.0)


class TestAlternatingOptimality:
    def test_reference_parameters(self):
        assert alternating_is_optimal(10, 12, 0.5, 0.1)

    def test_equal_selectivities(self):
        assert alternating_is_optimal(7, 9, 0.3, 0.3)

    def test_random_draws(self):
        rng = random.Random(99)
        for _ in range(100):
            o = rng.uniform(1.1, 64)
            h = rng.randint(2, 12)
            sp = rng.uniform(0.01, 1.0)
            sv = rng.uniform(0.01, 1.0)
            assert alternating_is_optimal(o, h, sp, sv), (o, h, sp, sv)

    def test_scaling_does_not_move_the_minimizers(self):
        # ties between symmetric vectors are exact mathematically but not in
        # floats, so compare minimizer sets with a tolerance
        rng = random.Random(55)
        for _ in range(30):
            h = rng.randint(2, 10)
            o = rng.uniform(2, 16)
            sp = rng.uniform(0.05, 0.5)
            sv = rng.uniform(0.05, 0.5)
            c = rng.uniform(0.5, 2.0)
            if max(sp, sv) * c > 1.0:
                c = 1.0 / max(sp, sv)
            a = pair_costs(o, h, sp, sv)
            b = pair_costs(o, h, sp * c, sv * c)
            tight_a = set(np.nonzero(a <= a.min() * (1 + 1e-12))[0])
            loose_b = set(np.nonzero(b <= b.min() * (1 + 1e-6))[0])
            tight_b = set(np.nonzero(b <= b.min() * (1 + 1e-12))[0])
            loose_a = set(np.nonzero(a <= a.min() * (1 + 1e-6))[0])
            assert tight_a <= loose_b
            assert tight_b <= loose_a

    def test_pair_costs_are_complementary_costs(self):
        rng = random.Random(2802)
        for h in range(1, 9):
            for _ in range(3):
                o, sp, sv = rng.uniform(1.1, 64), rng.uniform(0.01, 1.0), rng.uniform(0.01, 1.0)
                costs = pair_costs(o, h, sp, sv)
                for v in range(1 << h):
                    dims = tuple(P if v >> i & 1 else V for i in range(h))
                    pair = complementary_costs(CostModelParams(o, h, dims, sp, sv), include_root=False)
                    assert costs[v] == pytest.approx(sum(pair), rel=1e-12), (h, v)

    def test_pair_costs_memory_is_a_few_arrays(self):
        # 2**18 float64 entries are 2 MiB; a (2**18 x 18) matrix would be 36
        tracemalloc.start()
        try:
            pair_costs(10, 18, 0.5, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 << 20

    def test_height_bounds(self):
        with pytest.raises(ValueError):
            alternating_is_optimal(10, 0, 0.5, 0.1)
        with pytest.raises(ValueError):
            alternating_is_optimal(10, 25, 0.5, 0.1)


class TestCalibration:
    def test_worked_numbers(self):
        params = calibrate(9_300_000, 13.2, sigma_path=0.02, sigma_value=0.329)
        assert params.height == 13
        assert params.fanout == pytest.approx(3.43, abs=0.01)
        assert params.sel_value == pytest.approx(0.85, abs=0.01)
        assert params.sel_path == pytest.approx(0.52, abs=0.01)
        assert params.dims == alternating_dims(13)

    def test_full_selectivity_is_fixed_point(self):
        params = calibrate(1000, 6.0, sigma_path=1.0, sigma_value=1.0)
        assert params.sel_path == pytest.approx(1.0)
        assert params.sel_value == pytest.approx(1.0)

    def test_value_levels_take_the_ceiling(self):
        params = calibrate(1000, 5.0, sigma_path=0.5, sigma_value=0.5)
        # h=5: three value levels, two path levels
        assert params.sel_value == pytest.approx(0.5 ** (1 / 3))
        assert params.sel_path == pytest.approx(0.5 ** (1 / 2))

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            calibrate(1, 5.0, 0.5, 0.5)
        with pytest.raises(ValueError):
            calibrate(100, 5.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            calibrate(100, 0.5, 0.5, 0.5)


class TestErrorFactor:
    @pytest.mark.parametrize(
        "est,true,want",
        [
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
        ],
    )
    def test_reference_rows(self, est, true, want):
        assert error_factor(est, true) == pytest.approx(want, abs=0.01)

    def test_equal_inputs(self):
        assert error_factor(10.0, 10.0) == 1.0

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            error_factor(0, 5)
