"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import time
from fractions import Fraction

from forestbalance.bounds import fits, refined_bound, universal_bound
from forestbalance.generators import (
    ForestSpec,
    PerturbedParams,
    choose_density_ratio,
    make_forest,
    perturbed_colouring,
    random_balanced_colouring,
    split_parity_colouring,
)
from forestbalance.oracle import exact_min_imbalance
from forestbalance.solver import SolverConfig, solve
from forestbalance.verify import (
    suite_anchored_expectation,
    suite_balanced_vertices,
    suite_bounds,
    suite_interpolation,
    suite_partial_interpolation,
)


def _outcome(num: int, description: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f" ({extra})" if extra else ""
    print(f"[criterion {num:02d}] {status}: {description}{tail}")
    assert ok, f"criterion {num} failed: {description}{tail}"


def test_criterion_01_split_parity_star_exact():
    started = time.monotonic()
    ok = True
    values = {}
    for n in (8, 12, 16):
        g = split_parity_colouring(n)
        star = make_forest(ForestSpec("star", n))
        value, witness = exact_min_imbalance(star, g)
        values[n] = value
        ok = ok and value == (n - 2) // 2 and abs(witness.colour_sum) == value
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 10
    _outcome(1, "spanning-star minimum in the split-parity colouring is (n-2)/2",
             ok, f"values={values}, {elapsed:.2f}s")


def test_criterion_02_refined_bound_desk_scale():
    started = time.monotonic()
    sizes = (8, 9, 12, 13, 16, 17, 32, 33)
    families = ("star", "path", "random")
    seeds = 42
    instances = 0
    violations = 0
    for n in sizes:
        for family in families:
            for s in range(seeds):
                g = random_balanced_colouring(n, 7919 * n + 101 * s)
                if family == "random":
                    cap = 5 if n <= 17 else 12
                    forest = make_forest(ForestSpec("random", n, max_degree=cap, seed=s))
                    if forest.max_degree < 1:
                        forest = make_forest(ForestSpec("path", n))
                else:
                    forest = make_forest(ForestSpec(family, n))
                result = solve(forest, g, SolverConfig(seed=s))
                instances += 1
                if not fits(result.achieved, refined_bound(n, forest.max_degree)):
                    violations += 1
                if not result.achieved <= float(universal_bound(forest.max_degree)):
                    violations += 1
    elapsed = time.monotonic() - started
    ok = instances >= 1000 and violations == 0 and elapsed < 300
    _outcome(2, "solver stays within the refined and universal bounds on every instance",
             ok, f"{instances} instances, {violations} violations, {elapsed:.1f}s")


def test_criterion_03_interpolation_guarantee():
    report = suite_interpolation(n_list=(8, 9, 12, 13), trials=500, seed=11)
    ok = report["passed"] and report["details"]["runs"] >= 500
    _outcome(3, "every interpolation run lands within its certified window "
                "with bounded per-step changes",
             ok, f"runs={report['details']['runs']}, "
                 f"violations={report['violation_count']}")


def test_criterion_04_partial_interpolation_conclusions():
    report = suite_partial_interpolation(trials=120, seed=13)
    ok = report["passed"] and report["details"]["trials"] >= 100
    _outcome(4, "stepwise partial-embedding interpolation keeps all five "
                "structural conclusions",
             ok, f"trials={report['details']['trials']}, "
                 f"violations={report['violation_count']}")


def test_criterion_05_balanced_vertex_count():
    report = suite_balanced_vertices(n_list=(8, 9, 16, 25, 100), trials=100, seed=17)
    _outcome(5, "balanced colourings always contain at least eps*n + 1 "
                "nearly-balanced vertices",
             report["passed"],
             f"checks={report['details']['checks']}, "
             f"violations={report['violation_count']}")


def test_criterion_06_optimized_bound_grid():
    report = suite_bounds(n_list=(100, 1000), trials=100, grid_points=10_000)
    _outcome(6, "closed-form optimum matches a 10^4-point grid search and its "
                "crossing identities",
             report["passed"],
             f"checks={report['details']['checks']}, "
             f"violations={report['violation_count']}")


def test_criterion_07_perturbed_colouring():
    started = time.monotonic()
    n = 2000
    eps = Fraction(1, 10)
    d = choose_density_ratio(eps)
    ok = d == Fraction(2, 5)
    g = perturbed_colouring(PerturbedParams.for_ratio(n, eps, d))
    density = g.red_edge_count / g.edge_count
    ok = ok and 0.4 <= density <= 0.6
    floor_value = (0.5 + float(eps) ** 2) * n - 4
    worst = min(abs(g.signed_degree(v)) for v in range(n))
    ok = ok and worst >= floor_value
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 30
    _outcome(7, "perturbed colouring: near-balanced density, every star "
                "centre heavily skewed",
             ok, f"d={d}, density={density:.4f}, worst={worst}, "
                 f"floor={floor_value:.0f}, {elapsed:.1f}s")


def test_criterion_08_oracle_dominance():
    started = time.monotonic()
    sizes = (5, 8)  # balanced colourings need n = 0, 1 (mod 4)
    families = ("star", "path", "random")
    instances = 0
    violations = 0
    per_cell = 167
    for n in sizes:
        for family in families:
            for s in range(per_cell):
                g = random_balanced_colouring(n, 104_729 * n + s)
                if family == "random":
                    forest = make_forest(ForestSpec("random", n, max_degree=3, seed=s))
                else:
                    forest = make_forest(ForestSpec(family, n))
                optimum, _ = exact_min_imbalance(forest, g)
                exact_result = solve(forest, g, SolverConfig(seed=s, exact_threshold=8))
                sampled = solve(forest, g, SolverConfig(seed=s, exact_threshold=0))
                instances += 1
                if exact_result.achieved != optimum:
                    violations += 1
                if sampled.achieved < optimum:
                    violations += 1
                if forest.max_degree >= 1 and not fits(
                    optimum, refined_bound(n, forest.max_degree)
                ):
                    violations += 1
    elapsed = time.monotonic() - started
    ok = instances >= 1000 and violations == 0
    _outcome(8, "oracle minimum is reproduced at the exact threshold and never "
                "beaten by the sampling pipeline",
             ok, f"{instances} instances, {violations} violations, {elapsed:.1f}s")


def test_criterion_09_anchored_expectation():
    report = suite_anchored_expectation(n=64, trials=10_000, seed=23, delta=40)
    d = report["details"]
    _outcome(9, "mean |sum| of anchored uniform extensions stays within the "
                "expectation bound",
             report["passed"],
             f"mean={d['mean']:.2f} <= {d['limit']:.2f}")


def test_criterion_10_parity_floor():
    ok = True
    checked = 0
    for n in (8, 12, 16):
        forest = make_forest(ForestSpec("path", n))
        for s in range(20):
            g = random_balanced_colouring(n, 31 * n + s)
            result = solve(forest, g, SolverConfig(seed=s))
            checked += 1
            if result.achieved % 2 != 1 or result.achieved < 1:
                ok = False
    _outcome(10, "even-order spanning paths always report an odd imbalance of "
                 "at least 1",
              ok, f"{checked} runs")
