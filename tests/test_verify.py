import dataclasses

import pytest

from forestbalance.core import InvalidInputError
from forestbalance.solver import find_signed_pair
from forestbalance.verify import (
    bench_csv,
    run_bench,
    run_verify,
    suite_anchored_expectation,
    suite_balanced_vertices,
    suite_bounds,
    suite_interpolation,
    suite_lower_bound,
    suite_partial_interpolation,
    suite_perturbed,
    suite_split_parity_star,
)


class TestSuitesSmall:
    def test_balanced_vertices(self):
        report = suite_balanced_vertices(n_list=(8, 9), trials=10, seed=1)
        assert report["passed"], report["violations"]
        assert report["details"]["checks"] > 0

    def test_interpolation(self):
        report = suite_interpolation(n_list=(8, 9), trials=40, seed=2)
        assert report["passed"], report["violations"]
        assert report["details"]["runs"] == 40

    @pytest.mark.parametrize("end", ["h_neg", "h_pos"])
    def test_interpolation_measures_the_result_from_the_pair_centre(self, end, monkeypatch):
        # a pair centred on one of its ends is met at once by that end, however far its sum lies from 0
        beyond_bound_from_zero = []

        def centred_on_an_end(forest, graph, rng, budget):
            pair = find_signed_pair(forest, graph, rng=rng, budget=budget)
            moved = dataclasses.replace(pair, centre=getattr(pair, end).colour_sum)
            beyond_bound_from_zero.append(abs(moved.centre) > moved.bound(forest))
            return moved

        monkeypatch.setattr("forestbalance.verify.find_signed_pair", centred_on_an_end)
        report = suite_interpolation(n_list=(12, 13), trials=30, seed=2)
        assert report["passed"], report["violations"]
        assert any(beyond_bound_from_zero)

    def test_interpolation_lets_a_programming_error_through(self, monkeypatch):
        def broken(forest, graph, rng, budget):
            raise TypeError("a defect, not a falsified property")

        monkeypatch.setattr("forestbalance.verify.find_signed_pair", broken)
        with pytest.raises(TypeError, match="a defect, not a falsified property"):
            suite_interpolation(n_list=(8,), trials=1)

    def test_partial_interpolation(self):
        report = suite_partial_interpolation(trials=40, seed=3)
        assert report["passed"], report["violations"]

    def test_bounds(self):
        report = suite_bounds(n_list=(100,), trials=12, grid_points=2000)
        assert report["passed"], report["violations"]

    def test_split_parity_star(self):
        report = suite_split_parity_star(n_list=(8, 12))
        assert report["passed"], report["violations"]
        assert report["details"]["values"] == {8: 3, 12: 5}

    def test_perturbed_small(self):
        report = suite_perturbed(n=400)
        assert report["passed"], report["violations"]

    def test_anchored_expectation_small(self):
        report = suite_anchored_expectation(n=32, trials=800, seed=4, delta=20)
        assert report["passed"], report["violations"]

    @pytest.mark.parametrize("trials", [0, 1])
    def test_anchored_expectation_needs_two_trials(self, trials):
        with pytest.raises(InvalidInputError, match=f"at least 2 trials, got {trials}"):
            suite_anchored_expectation(n=32, trials=trials, delta=20)

    def test_anchored_expectation_needs_a_large_degree_vertex(self):
        with pytest.raises(InvalidInputError, match="no large-degree vertex"):
            suite_anchored_expectation(n=32, trials=10, delta=15)

    def test_lower_bound(self):
        report = suite_lower_bound(n_list=(6, 8, 9), trials=30, seed=5)
        assert report["passed"], report["violations"]
        # n = 8 adds a split-parity check per trial
        assert report["details"]["checks"] == 4 * 30
        assert 0 < report["details"]["tight"] <= 4 * 30

    def test_lower_bound_reports_a_floor_above_the_optimum(self, monkeypatch):
        monkeypatch.setattr("forestbalance.verify.imbalance_floor", lambda forest, graph: forest.edge_count + 2)
        report = suite_lower_bound(n_list=(5,), trials=3)
        assert not report["passed"] and report["violation_count"] == 3
        assert report["details"]["tight"] == 0

    @pytest.mark.parametrize("n", [1, 11])
    def test_lower_bound_refuses_n_the_oracle_cannot_reach(self, n):
        with pytest.raises(InvalidInputError, match=f"lower-bound needs 2 <= n with n! <= 3628800, got {n}"):
            suite_lower_bound(n_list=(n,), trials=1)

    def test_run_verify_dispatch(self):
        report = run_verify("split-parity-star", n_list=(8,))
        assert report["suite"] == "split-parity-star" and report["passed"]

    def test_unknown_suite_rejected(self):
        with pytest.raises(InvalidInputError, match="unknown suite 'no-such-suite'; available: anchored-expectation, "):
            run_verify("no-such-suite")

    def test_negative_trial_count_rejected(self):
        with pytest.raises(InvalidInputError, match="trial count must be non-negative"):
            run_verify("interpolation", trials=-1)


class TestBench:
    def test_rows_sorted_and_within_bound(self):
        rows = run_bench(n_list=(16,), families=("path", "random"), seeds=2, seed=1,
                         redact_millis=True)
        assert len(rows) == 4
        assert rows == sorted(rows, key=lambda r: (r["n"], r["family"], r["seed"]))
        for row in rows:
            assert row["achieved"] <= float(row["bound"])
            assert row["mechanism"] in ("exact", "interpolation", "hub-split")
            assert row["achieved"] <= float(row["certified_value"])
            assert row["millis"] == 0

    def test_deterministic_with_redacted_millis(self):
        a = run_bench(n_list=(16,), families=("path",), seeds=2, seed=3, redact_millis=True)
        b = run_bench(n_list=(16,), families=("path",), seeds=2, seed=3, redact_millis=True)
        assert bench_csv(a) == bench_csv(b)

    def test_one_colouring_per_size_and_seed(self, monkeypatch):
        import forestbalance.verify as verify

        calls = []
        real = verify.random_balanced_colouring

        def counting(n, seed):
            calls.append((n, seed))
            return real(n, seed)

        monkeypatch.setattr(verify, "random_balanced_colouring", counting)
        rows = run_bench(n_list=(16, 17), families=("path", "star", "random"), seeds=2, seed=4,
                         redact_millis=True)
        assert len(rows) == 2 * 3 * 2
        assert len(calls) == len(set(calls)) == 2 * 2

    def test_odd_edge_count_rejected(self):
        with pytest.raises(InvalidInputError):
            run_bench(n_list=(6,), families=("path",), seeds=1)

    def test_default_grid_within_bounds(self):
        rows = run_bench(seeds=2, seed=7, redact_millis=True)
        assert len(rows) == 4 * 3 * 2
        for row in rows:
            assert row["achieved"] <= float(row["bound"])
            if row["family"] == "star":
                # stars have max degree n - 1 >= n/2: flat half-degree regime
                assert row["achieved"] <= 0.5 * row["delta"] + 9
