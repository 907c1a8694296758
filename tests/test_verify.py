import pytest

from forestbalance.core import InvalidInputError
from forestbalance.verify import (
    VerifySuiteSpec,
    bench_csv,
    run_bench,
    run_verify,
    suite_anchored_expectation,
    suite_balanced_vertices,
    suite_bounds,
    suite_interpolation,
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

    def test_partial_interpolation(self):
        report = suite_partial_interpolation(trials=40, seed=3)
        assert report["passed"], report["violations"]

    def test_bounds(self):
        report = suite_bounds(n_list=(100,), trials=12, seed=0, grid_points=2000)
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

    def test_run_verify_dispatch(self):
        report = run_verify(VerifySuiteSpec("split-parity-star", n_list=(8,)))
        assert report["suite"] == "split-parity-star" and report["passed"]

    def test_unknown_suite_rejected(self):
        with pytest.raises(InvalidInputError):
            VerifySuiteSpec("no-such-suite")


class TestBench:
    def test_rows_sorted_and_within_bound(self):
        rows = run_bench(n_list=(16,), families=("path", "random"), seeds=2, seed=1,
                         redact_millis=True)
        assert len(rows) == 4
        assert rows == sorted(rows, key=lambda r: (r["n"], r["family"], r["seed"]))
        for row in rows:
            assert row["achieved"] <= float(row["bound"])
            assert row["mechanism"] in ("exact", "interpolation", "greedy-star", "heuristic")
            if row["certified_value"]:
                assert row["achieved"] <= float(row["certified_value"])
            assert row["millis"] == 0

    def test_deterministic_with_redacted_millis(self):
        a = run_bench(n_list=(16,), families=("path",), seeds=2, seed=3, redact_millis=True)
        b = run_bench(n_list=(16,), families=("path",), seeds=2, seed=3, redact_millis=True)
        assert bench_csv(a) == bench_csv(b)

    def test_threads_agree_with_serial(self):
        kwargs = dict(n_list=(16,), families=("path", "star"), seeds=2, seed=5,
                      redact_millis=True)
        serial = run_bench(threads=1, **kwargs)
        parallel = run_bench(threads=2, **kwargs)
        assert bench_csv(serial) == bench_csv(parallel)

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
