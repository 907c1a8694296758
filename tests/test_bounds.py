import math
from fractions import Fraction

import numpy as np
import pytest

from forestbalance.bounds import (
    BoundReport,
    crossing_epsilon,
    degree_offset,
    fits,
    margin_bound,
    optimized_midrange_bound,
    refined_bound,
    split_parity_star_imbalance,
    universal_bound,
)
from forestbalance.core import InvalidInputError


class TestUniversalBound:
    def test_pinned_values(self):
        assert universal_bound(16) == 26
        assert universal_bound(1) == Fraction(37, 2)

    def test_even_degree_is_integral(self):
        for k in range(1, 50):
            assert universal_bound(2 * k) == k + 18

    def test_rejects_bad_degree(self):
        with pytest.raises(InvalidInputError):
            universal_bound(0)


class TestRefinedBound:
    def test_low_degree_case(self):
        assert refined_bound(100, 10) == 14

    def test_high_degree_case(self):
        assert refined_bound(100, 60) == 39

    def test_middle_case(self):
        assert refined_bound(100, 20) == pytest.approx(-1 + math.sqrt(404), abs=1e-12)

    def test_case_boundaries(self):
        # delta = 15 uses the flat form, 16 the sqrt form (for large n)
        assert refined_bound(100, 15) == 16.5
        assert refined_bound(100, 16) != 17.0
        # at delta >= n/2 the flat form applies again
        assert refined_bound(100, 50) == 34

    def test_never_exceeds_universal_plus_one(self):
        for n in (32, 64, 100, 333, 1000, 10_000):
            for delta in range(1, min(n, 300)):
                assert refined_bound(n, delta) <= float(universal_bound(delta)) + 1

    def test_domain(self):
        with pytest.raises(InvalidInputError):
            refined_bound(10, 0)
        with pytest.raises(InvalidInputError):
            refined_bound(10, 10)


class TestOptimizedMidrange:
    def test_pinned_value_at_zero_offset(self):
        expected_eps = (-1 + math.sqrt(1601)) / 400
        expected_phi = 1.5 + math.sqrt(1601) / 2
        assert crossing_epsilon(100, 0.0) == pytest.approx(expected_eps, abs=1e-12)
        assert optimized_midrange_bound(100, 0.0) == pytest.approx(expected_phi, abs=1e-12)

    def test_crossing_identity(self):
        for n in (32, 100, 1000):
            lo = -0.25 + 16.0 / n
            for off in np.linspace(lo, 0.25, 20):
                eps = crossing_epsilon(n, float(off))
                f_val = 2 / eps + 1
                g_val = 2 + off * n + 2 * eps * n
                assert abs(f_val - g_val) <= 1e-9
                assert 1.0 / n - 1e-12 <= eps <= 0.125 + 1e-12

    def test_matches_grid_infimum(self):
        for n in (100, 1000):
            eps_grid = np.linspace(1.0 / n, 0.125, 4000)
            for off in np.linspace(-0.25 + 16.0 / n, 0.25, 15):
                t = off * n
                vals = np.maximum(1 + 2 / eps_grid, 2 + np.maximum(t + 2 * eps_grid * n, 0))
                closed = optimized_midrange_bound(n, float(off))
                assert vals.min() >= closed - 1e-9
                j = int(np.clip(np.searchsorted(eps_grid, crossing_epsilon(n, float(off))), 1, 3999))
                assert vals.min() <= max(vals[j - 1], vals[j]) + 1e-9

    def test_minimizing_midrange_over_eps_matches_closed_form(self):
        # the midrange bound at one eps: max(1 + 2/eps, 2 + max(delta - (1/4 - 2 eps) n, 0))
        n, delta = 100, 20
        off = degree_offset(n, delta)
        grid = np.linspace(1.0 / n, 0.125, 20_000)
        best = min(max(1 + 2 / e, 2 + max(delta - (0.25 - 2 * e) * n, 0.0)) for e in grid)
        assert best == pytest.approx(optimized_midrange_bound(n, off), abs=0.05)

    def test_domain(self):
        with pytest.raises(InvalidInputError):
            optimized_midrange_bound(31, 0.0)
        with pytest.raises(InvalidInputError):
            optimized_midrange_bound(100, 0.3)

    def test_crossing_epsilon_domain(self):
        with pytest.raises(InvalidInputError):
            crossing_epsilon(31, 0.0)
        with pytest.raises(InvalidInputError):
            crossing_epsilon(100, 0.3)
        with pytest.raises(InvalidInputError):
            crossing_epsilon(100, -0.25 + 16.0 / 100 - 0.01)


class TestMarginBound:
    def test_pinned_value(self):
        assert margin_bound(1000, 100, 0.1) == pytest.approx(4000 / 98)

    def test_limit_towards_4_over_eta(self):
        assert margin_bound(10**6, 100, 0.1) == pytest.approx(40, rel=0.01)

    def test_dominates_refined(self):
        assert refined_bound(1000, 150) <= margin_bound(1000, 150, 0.1)

    def test_domain(self):
        with pytest.raises(InvalidInputError):
            margin_bound(1000, 10, 0.1)
        with pytest.raises(InvalidInputError):
            margin_bound(1000, 100, 0.3)
        with pytest.raises(InvalidInputError):
            margin_bound(15, 15, 0.1)


class TestSplitParityStarImbalance:
    def test_values(self):
        assert split_parity_star_imbalance(8) == 3
        assert split_parity_star_imbalance(12) == 5

    def test_rejects_bad_n(self):
        with pytest.raises(InvalidInputError):
            split_parity_star_imbalance(10)


class TestSqrtInequality:
    @pytest.mark.parametrize("n", [32, 100, 1000, 10_000])
    def test_sqrt_form_below_linear(self, n):
        xs = np.linspace(-n / 4, n / 4, 2001)
        assert np.all(np.sqrt((xs / 2) ** 2 + 4 * n) <= n / 8 + 16 + 1e-9)


class TestReport:
    def test_report_fields(self):
        r = BoundReport.compute(100, 20)
        assert r.universal == 28
        assert r.refined == pytest.approx(-1 + math.sqrt(404))
        assert r.midrange_opt is not None and r.crossing_eps is not None
        data = r.to_json()
        assert data["universal_exact"] == "28"

    def test_report_with_margin(self):
        r = BoundReport.compute(1000, 100, eta=0.1)
        assert r.margin == pytest.approx(4000 / 98)

    def test_report_outside_midrange_domain(self):
        r = BoundReport.compute(20, 5)
        assert r.midrange_opt is None and r.crossing_eps is None

    def test_fits_is_robust_at_boundary(self):
        assert fits(16, 16.0)
        assert fits(16, 16.000000001)
        assert not fits(17, 16.9)
