"""Property suites and the benchmark harness.

Each suite re-derives an expected property from scratch and reports every
violation it finds; a passing report means zero violations.  All suites are
seeded and deterministic.
"""

from __future__ import annotations

import inspect
import math
import random
import time
from fractions import Fraction

import numpy as np

from .bounds import (
    BoundReport,
    crossing_epsilon,
    optimized_midrange_bound,
    refined_bound,
    split_parity_star_imbalance,
    universal_bound,
)
from .core import (
    ColouredCompleteGraph,
    Embedding,
    Forest,
    InvalidInputError,
    PartialEmbedding,
    is_balanced,
    r_balanced_vertices,
    subgraph_sum,
)
from .generators import (
    FOREST_KINDS,
    ForestSpec,
    PerturbedParams,
    choose_density_ratio,
    make_forest,
    perturbed_colouring,
    perturbed_red_count,
    random_balanced_colouring,
    split_parity_colouring,
)
from .interpolate import (
    interpolate_traced,
    partial_interpolation_sequence,
)
from .oracle import DEFAULT_BUDGET, exact_min_imbalance, imbalance_floor
from .solver import (
    ExtensionSampler,
    SolverConfig,
    _sub_seed,
    find_signed_pair,
    large_degree_anchor,
    solve,
)


def _report(suite: str, violations: list, details: dict) -> dict:
    return {
        "suite": suite,
        "passed": not violations,
        "violations": violations[:20],
        "violation_count": len(violations),
        "details": details,
    }


# ---------------------------------------------------------------------------
# balanced-vertices: every balanced colouring has many nearly-balanced vertices
# ---------------------------------------------------------------------------


def _epsilon_grid(n: int, points: int = 5) -> list[Fraction]:
    lo = Fraction(1, n)
    hi = Fraction(1, 4)
    return [lo + (hi - lo) * Fraction(j, points) for j in range(points)]


def suite_balanced_vertices(n_list=(8, 9, 16, 25), trials=100, seed=0) -> dict:
    violations = []
    cells = 0
    for n in n_list:
        if n < 5:
            raise InvalidInputError("suite needs n >= 5")
        for t in range(trials):
            g = random_balanced_colouring(n, _sub_seed(seed, n * 10_000 + t))
            for eps in _epsilon_grid(n):
                r = math.ceil((Fraction(1, 4) - eps) * n)
                count = len(r_balanced_vertices(g, r))
                cells += 1
                if not count >= eps * n + 1:
                    violations.append(
                        {"n": n, "trial": t, "epsilon": str(eps), "count": count}
                    )
    return _report(
        "balanced-vertices", violations, {"n_list": list(n_list), "checks": cells}
    )


# ---------------------------------------------------------------------------
# interpolation: the swap walk always lands within its certified window
# ---------------------------------------------------------------------------


def _trial_forest(kind: str, n: int, seed: int) -> Forest:
    if kind == "random":
        return make_forest(ForestSpec("random", n, max_degree=max(2, n // 3), seed=seed))
    return make_forest(ForestSpec(kind, n))


def suite_interpolation(n_list=(8, 9, 12, 13), trials=500, seed=0) -> dict:
    violations = []
    families = ("path", "random", "star")
    budget = 2000
    for t in range(trials):
        n = n_list[t % len(n_list)]
        kind = families[t % len(families)]
        g = random_balanced_colouring(n, _sub_seed(seed, 2 * t))
        forest = _trial_forest(kind, n, _sub_seed(seed, 2 * t + 1))
        rng = random.Random(_sub_seed(seed, 90_000 + t))
        pair = find_signed_pair(forest, g, rng=rng, budget=budget)
        result, trace = interpolate_traced(pair, forest, g)
        bound = pair.bound(forest)
        if abs(result.colour_sum - pair.centre) > bound:
            violations.append({"trial": t, "kind": "result-bound", "sum": result.colour_sum})
        # replay the trace: every step must be a single transposition whose
        # recomputed sum matches the recorded one
        if trace.steps and trace.steps[0][0] is None and len(trace.steps) > 1:
            current = pair.h_pos
            if trace.steps[0][1] != current.colour_sum:
                violations.append({"trial": t, "kind": "trace-start"})
            prev_sum = trace.steps[0][1]
            for swap, recorded in trace.steps[1:]:
                fwd = list(current.forward)
                fwd[swap[0]], fwd[swap[1]] = fwd[swap[1]], fwd[swap[0]]
                current = Embedding.build(fwd, forest, g)
                if current.colour_sum != recorded:
                    violations.append({"trial": t, "kind": "trace-sum", "swap": swap})
                if abs(recorded - prev_sum) > 2 * bound:
                    violations.append({"trial": t, "kind": "step-delta", "swap": swap})
                prev_sum = recorded
            if current != result:
                violations.append({"trial": t, "kind": "trace-end"})
        if subgraph_sum(g, result, forest) != result.colour_sum:
            violations.append({"trial": t, "kind": "cached-sum"})
    return _report("interpolation", violations, {"runs": trials})


# ---------------------------------------------------------------------------
# partial-interpolation: stepwise rewrite of partial embeddings stays injective
# ---------------------------------------------------------------------------


def _build_partial_instance(rng: random.Random):
    u_size = rng.randint(6, 9)
    universe = sorted(rng.sample(range(14), u_size))
    m_size = rng.randint(3, u_size - 1)
    m_set = sorted(rng.sample(range(10), m_size))
    n_count = rng.randint(0, min(2, m_size - 1))
    n_set = sorted(rng.sample(m_set, n_count))
    g_vals = rng.sample(universe, m_size)
    g_map = PartialEmbedding(dict(zip(m_set, g_vals)))
    free = [v for v in m_set if v not in n_set]
    # force overlapping images: f mostly reuses g's free targets, shuffled,
    # with occasional fresh targets mixed in
    pool = [g_map[v] for v in free]
    rng.shuffle(pool)
    extra = [t for t in universe if t not in set(g_vals)]
    rng.shuffle(extra)
    f_vals = {v: g_map[v] for v in n_set}
    for i, v in enumerate(free):
        if extra and rng.random() < 0.4:
            f_vals[v] = extra.pop()
        else:
            f_vals[v] = pool[i]
    f_map = PartialEmbedding(f_vals)
    spare_pool = [t for t in universe if t not in g_map.image()]
    spare = rng.choice(spare_pool)
    return f_map, g_map, m_set, n_set, spare, universe


def suite_partial_interpolation(trials=100, seed=0) -> dict:
    violations = []
    spare_hits = 0
    for t in range(trials):
        rng = random.Random(_sub_seed(seed, t))
        f_map, g_map, m_set, n_set, spare, universe = _build_partial_instance(rng)
        seq = partial_interpolation_sequence(f_map, g_map, m_set, n_set, spare)
        free = sorted(v for v in m_set if v not in n_set)
        free.sort(key=lambda v: (f_map[v] == spare, v))
        r = len(free)
        if free and f_map[free[-1]] == spare:
            spare_hits += 1
        allowed = set(universe)
        if seq[0] != g_map or seq[-1] != f_map:
            violations.append({"trial": t, "kind": "endpoints"})
        if len(seq) != 3 * r + 1:
            violations.append({"trial": t, "kind": "length"})
        for k, h in enumerate(seq):
            vals = [h[v] for v in m_set]
            if len(set(vals)) != len(vals):
                violations.append({"trial": t, "kind": "injective", "k": k})
            if not set(vals) <= allowed | {spare}:
                violations.append({"trial": t, "kind": "image", "k": k})
            if k > 0:
                diff = [v for v in m_set if seq[k - 1][v] != h[v]]
                if len(diff) > 1:
                    violations.append({"trial": t, "kind": "one-vertex", "k": k})
            for v in n_set:
                if h[v] != g_map[v]:
                    violations.append({"trial": t, "kind": "core-moved", "k": k})
        for i in range(1, r + 1):
            h3i = seq[3 * i]
            if i < r and spare in {h3i[v] for v in m_set}:
                violations.append({"trial": t, "kind": "spare-occupied", "i": i})
            for j in range(1, i + 1):
                if h3i[free[j - 1]] != f_map[free[j - 1]]:
                    violations.append({"trial": t, "kind": "prefix-fixed", "i": i, "j": j})
    return _report(
        "partial-interpolation",
        violations,
        {"trials": trials, "spare_target_instances": spare_hits},
    )


# ---------------------------------------------------------------------------
# bounds: closed forms agree with grid search and stay in their stated ranges
# ---------------------------------------------------------------------------


def suite_bounds(n_list=(100, 1000), trials=100, grid_points=10_000) -> dict:
    for n in n_list:
        if n < 32:
            raise InvalidInputError(f"need n >= 32, got {n}")
    violations = []
    checks = 0
    for n in n_list:
        offsets = np.linspace(-0.25 + 16.0 / n, 0.25, trials)
        eps_grid = np.linspace(1.0 / n, 0.125, grid_points)
        for off in offsets:
            checks += 1
            t = off * n
            vals = np.maximum(1 + 2 / eps_grid, 2 + np.maximum(t + 2 * eps_grid * n, 0.0))
            grid_min = float(vals.min())
            closed = optimized_midrange_bound(n, float(off))
            eps_star = crossing_epsilon(n, float(off))
            if not 1.0 / n - 1e-12 <= eps_star <= 0.125 + 1e-12:
                violations.append({"n": n, "offset": float(off), "kind": "eps-range"})
            f_val = 2 / eps_star + 1
            g_val = 2 + t + 2 * eps_star * n
            if abs(f_val - g_val) > 1e-9:
                violations.append({"n": n, "offset": float(off), "kind": "crossing"})
            if grid_min < closed - 1e-9:
                violations.append({"n": n, "offset": float(off), "kind": "grid-below-closed"})
            j = int(np.searchsorted(eps_grid, eps_star))
            j = max(1, min(j, grid_points - 1))
            step_var = max(vals[j - 1], vals[j]) - closed
            if grid_min - closed > step_var + 1e-9:
                violations.append({"n": n, "offset": float(off), "kind": "grid-step"})
    # refined <= universal on a sample of the shared domain
    for n in (32, 100, 1000, 10_000):
        for delta in range(1, min(n, 400)):
            if 2 * delta < n:
                checks += 1
                if refined_bound(n, delta) > float(universal_bound(delta)) + 1e-9:
                    violations.append({"n": n, "delta": delta, "kind": "refined-vs-universal"})
    # sqrt((x/2)^2 + 4n) <= n/8 + 16 over a dense grid of |x| <= n/4
    for n in (32, 100, 1000, 10_000):
        xs = np.linspace(-n / 4, n / 4, 1001)
        lhs = np.sqrt((xs / 2) ** 2 + 4 * n)
        checks += 1
        if not np.all(lhs <= n / 8 + 16 + 1e-9):
            violations.append({"n": n, "kind": "sqrt-inequality"})
    return _report("bounds", violations, {"checks": checks})


# ---------------------------------------------------------------------------
# split-parity-star: the adversarial colouring pins the star imbalance exactly
# ---------------------------------------------------------------------------


def suite_split_parity_star(n_list=(8, 12, 16)) -> dict:
    violations = []
    values = {}
    for n in n_list:
        g = split_parity_colouring(n)
        star = make_forest(ForestSpec("star", n))
        value, witness = exact_min_imbalance(star, g)
        expected = split_parity_star_imbalance(n)
        values[n] = value
        if value != expected:
            violations.append({"n": n, "got": value, "expected": expected})
        if abs(subgraph_sum(g, witness, star)) != value:
            violations.append({"n": n, "kind": "witness"})
        if not is_balanced(g):
            violations.append({"n": n, "kind": "unbalanced"})
    return _report("split-parity-star", violations, {"values": values})


# ---------------------------------------------------------------------------
# perturbed: near-balanced density with every vertex heavily colour-skewed
# ---------------------------------------------------------------------------


def suite_perturbed(n=2000, epsilon=Fraction(1, 10)) -> dict:
    violations = []
    eps = Fraction(epsilon)
    d = choose_density_ratio(eps)
    params = PerturbedParams.for_ratio(n, eps, d)
    g = perturbed_colouring(params)
    red_count = g.red_edge_count
    density = red_count / g.edge_count
    lo, hi = float(Fraction(1, 2) - eps), float(Fraction(1, 2) + eps)
    if not lo <= density <= hi:
        violations.append({"kind": "density", "density": density})
    if red_count != perturbed_red_count(params):
        violations.append({"kind": "red-count"})
    floor_value = float((Fraction(1, 2) + eps * eps) * n) - 4
    worst = int(np.abs(g.signed_degrees()).min())
    if worst < floor_value:
        violations.append({"kind": "star-imbalance", "worst": worst, "floor": floor_value})
    return _report(
        "perturbed",
        violations,
        {"n": n, "d": str(d), "density": density, "worst_star": worst},
    )


# ---------------------------------------------------------------------------
# anchored-expectation: mean |sum| of anchored uniform extensions stays small
# ---------------------------------------------------------------------------


def suite_anchored_expectation(n=64, trials=10_000, seed=0, delta=None) -> dict:
    """Mean |sum| of uniform extensions of the anchor the solver itself uses.

    The broom's max degree defaults to min(40, 3n/4), so any n with a
    large-degree vertex works.
    """
    if trials < 2:
        raise InvalidInputError(f"anchored-expectation needs at least 2 trials, got {trials}")
    if delta is None:
        delta = min(40, 3 * n // 4)
    violations = []
    forest = make_forest(ForestSpec("broom", n, max_degree=delta))
    g = random_balanced_colouring(n, _sub_seed(seed, 77))
    anchor = large_degree_anchor(forest, g, BoundReport.compute(n, forest.max_degree))
    if anchor is None:
        raise InvalidInputError(
            f"a broom on {n} vertices with max degree {delta} has no large-degree vertex to anchor"
        )
    rng = random.Random(_sub_seed(seed, 78))
    blocks = ExtensionSampler(forest, g, anchor).blocks(rng, trials)
    sums = np.abs(np.concatenate([block_sums for _, block_sums in blocks]))
    mean = float(sums.mean())
    se = float(sums.std(ddof=1) / math.sqrt(trials))
    limit = 0.5 * delta + 4 + 3 * se
    if mean > limit:
        violations.append({"mean": mean, "limit": limit})
    return _report(
        "anchored-expectation",
        violations,
        {"n": n, "delta": delta, "mean": mean, "stderr": se, "limit": limit},
    )


# ---------------------------------------------------------------------------
# lower-bound: the proven floor never exceeds the exact optimum
# ---------------------------------------------------------------------------


def suite_lower_bound(n_list=(5, 6, 7, 8, 9), trials=50, seed=0) -> dict:
    """imbalance_floor <= exact_min_imbalance on every instance drawn, at n the oracle reaches.

    Each trial draws a colouring whose edges are red with a probability drawn
    uniformly from [0, 1] (so near-monochromatic ones, where the colour
    counts bind, come up) and a broom or a random forest whose max degree
    (cap) is drawn from [1, n - 1], so paths and stars come up too.  At n
    divisible by 4 the same forest is also checked on the split-parity
    colouring, where the max-degree star floor can bind.  ``tight`` counts
    the checks whose floor equals the optimum.
    """
    for n in n_list:
        if n < 2 or math.factorial(n) > DEFAULT_BUDGET:
            raise InvalidInputError(f"lower-bound needs 2 <= n with n! <= {DEFAULT_BUDGET}, got {n}")
    violations = []
    checks = tight = 0
    for n in n_list:
        for t in range(trials):
            rng = random.Random(_sub_seed(seed, n * 10_000 + t))
            p_red = rng.random()
            red = np.triu(np.array([[rng.random() < p_red for _ in range(n)] for _ in range(n)]), 1)
            kind = rng.choice(("broom", "random"))
            forest = make_forest(ForestSpec(kind, n, max_degree=rng.randint(1, n - 1), seed=t))
            graphs = [("random", ColouredCompleteGraph.from_red_matrix(red | red.T))]
            if n % 4 == 0:
                graphs.append(("split-parity", split_parity_colouring(n)))
            for colouring, g in graphs:
                floor = imbalance_floor(forest, g)
                value, _ = exact_min_imbalance(forest, g)
                checks += 1
                tight += floor == value
                if floor > value:
                    violations.append({"n": n, "trial": t, "colouring": colouring, "forest": kind,
                                       "floor": floor, "optimum": value})
    return _report("lower-bound", violations, {"n_list": list(n_list), "checks": checks, "tight": tight})


SUITES = {
    "balanced-vertices": suite_balanced_vertices,
    "interpolation": suite_interpolation,
    "partial-interpolation": suite_partial_interpolation,
    "bounds": suite_bounds,
    "split-parity-star": suite_split_parity_star,
    "perturbed": suite_perturbed,
    "anchored-expectation": suite_anchored_expectation,
    "lower-bound": suite_lower_bound,
}


def run_verify(suite: str, n_list=(), trials=0, seed=0) -> dict:
    """Execute one named suite with the given sizes, trial count and seed.

    A suite whose signature has ``n`` takes exactly one size and one with
    neither ``n`` nor ``n_list`` takes none; any other count is refused.  A
    non-default trial count or seed is refused by a suite that takes none.
    """
    if suite not in SUITES:
        raise InvalidInputError(f"unknown suite {suite!r}; available: {', '.join(sorted(SUITES))}")
    if trials < 0:
        raise InvalidInputError("trial count must be non-negative")
    fn = SUITES[suite]
    params = inspect.signature(fn).parameters
    kwargs = {}
    if n_list:
        if "n_list" in params:
            kwargs["n_list"] = tuple(n_list)
        elif "n" in params and len(n_list) == 1:
            kwargs["n"] = n_list[0]
        else:
            takes = "one size" if "n" in params else "no size"
            sizes = ",".join(map(str, n_list))
            raise InvalidInputError(f"suite {suite!r} takes {takes} in --n, got {sizes}")
    for name, value in (("trials", trials), ("seed", seed)):
        if not value:
            continue
        if name not in params:
            raise InvalidInputError(f"suite {suite!r} takes no --{name}, got {value}")
        kwargs[name] = value
    return fn(**kwargs)


# ---------------------------------------------------------------------------
# benchmark harness
# ---------------------------------------------------------------------------

BENCH_COLUMNS = (
    "n",
    "delta",
    "family",
    "seed",
    "achieved",
    "bound",
    "mechanism",
    "certified_value",
    "millis",
)


def _bench_cell(
    g: ColouredCompleteGraph, colour_seed: int, family: str, seed: int, base_seed: int, redact: bool
) -> dict:
    n = g.n
    if family == "random":
        forest = make_forest(
            ForestSpec("random", n, max_degree=max(2, n // 8), seed=colour_seed + 1)
        )
    elif family == "broom":
        forest = make_forest(ForestSpec("broom", n, max_degree=3 * n // 4))
    else:
        forest = make_forest(ForestSpec(family, n))
    started = time.perf_counter()
    result = solve(forest, g, SolverConfig(seed=_sub_seed(base_seed, seed)))
    millis = 0 if redact else int((time.perf_counter() - started) * 1000)
    return {
        "n": n,
        "delta": forest.max_degree,
        "family": family,
        "seed": seed,
        "achieved": result.achieved,
        "bound": f"{result.bound_report.refined:.6f}",
        "mechanism": result.certified,
        "certified_value": f"{result.certified_value:.6f}",
        "millis": millis,
    }


def run_bench(
    n_list=(16, 32, 48, 64),
    families=("path", "star", "random"),
    seeds=3,
    seed=0,
    redact_millis=False,
) -> list[dict]:
    """Run the solver over a grid and return one row per cell, sorted.

    The whole grid is checked before the first solve: a repeated size or
    family, an unknown family or a size with an odd edge count is refused.
    """
    for what, values in (("size", list(n_list)), ("family", list(families))):
        for i, value in enumerate(values):
            if value in values[:i]:
                raise InvalidInputError(f"bench grid names the {what} {value} twice")
    for family in families:
        if family not in FOREST_KINDS:
            raise InvalidInputError(f"unknown forest family {family!r}; known: {', '.join(FOREST_KINDS)}")
    for n in n_list:
        if (n * (n - 1) // 2) % 2 != 0:
            raise InvalidInputError(f"bench needs balanced colourings; n={n} has odd edge count")
    rows = []
    for n in n_list:
        for s in range(seeds):
            # one colouring per (n, seed), shared by every family
            colour_seed = _sub_seed(seed, n * 101 + s)
            g = random_balanced_colouring(n, colour_seed)
            rows.extend(_bench_cell(g, colour_seed, family, s, seed, redact_millis) for family in families)
    rows.sort(key=lambda r: (r["n"], r["family"], r["seed"]))
    return rows


def bench_csv(rows: list[dict]) -> str:
    lines = [",".join(BENCH_COLUMNS)]
    for row in rows:
        lines.append(",".join(str(row[c]) for c in BENCH_COLUMNS))
    return "\n".join(lines) + "\n"
