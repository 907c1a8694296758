import math
import random

import pytest

from forestbalance.bounds import BoundReport, refined_bound
from forestbalance.core import (
    BLUE,
    RED,
    ColouredCompleteGraph,
    Embedding,
    Forest,
    InvalidInputError,
    PartialEmbedding,
    PreconditionError,
    is_balanced,
    subgraph_sum,
)
from forestbalance.generators import ForestSpec, make_forest, random_balanced_colouring, split_parity_colouring
from forestbalance.oracle import exact_min_imbalance
from forestbalance.solver import (
    CERT_EXACT,
    CERT_GREEDY_STAR,
    CERT_HEURISTIC,
    CERT_INTERPOLATION,
    ExtensionSampler,
    SignSearchFailure,
    SolverConfig,
    find_signed_pair,
    greedy_star_balance,
    greedy_star_certificate,
    large_degree_anchor,
    large_degree_set,
    local_search,
    sample_extension,
    solve,
)


def all_red(n):
    return ColouredCompleteGraph.from_pair_function(n, lambda i, j: RED)


def double_star(n, k=None):
    """Two adjacent centres of degree k and n - k; by default ceil(n/2) and floor(n/2)."""
    k = (n + 1) // 2 if k is None else k
    edges = [(0, 1)]
    edges.extend((0, i) for i in range(2, k + 1))
    edges.extend((1, i) for i in range(k + 1, n))
    return Forest(n, edges)


def red_poor_adversary(n, start_seed=0):
    """Balanced colouring with vertex 0 red-poor and some balanced red-rich vertex.

    Built by draining red edges at vertex 0 from a random balanced colouring
    and re-adding the same number of red edges elsewhere.
    """
    target = n // 8
    r_threshold = math.ceil(n / 4 - 1)
    for seed in range(start_seed, start_seed + 200):
        base = random_balanced_colouring(n, seed)
        red_at_zero = [v for v in range(1, n) if base.colour(0, v) == RED]
        excess = len(red_at_zero) - target
        if excess <= 0:
            continue
        drop = set(red_at_zero[:excess])
        blue_pairs = [
            (i, j)
            for i in range(2, n)
            for j in range(1, i)
            if base.colour(i, j) == BLUE
        ]
        add = set(blue_pairs[:excess])
        if len(add) < excess:
            continue

        def colour(i, j, base=base, drop=drop, add=add):
            lo, hi = min(i, j), max(i, j)
            if lo == 0 and hi in drop:
                return BLUE
            if (hi, lo) in add:
                return RED
            return base.colour(i, j)

        g = ColouredCompleteGraph.from_pair_function(n, colour)
        if not is_balanced(g):
            continue
        if g.red_degree(0) * 4 >= n:
            continue
        ok_x = any(
            min(g.red_degree(x), g.blue_degree(x)) >= r_threshold
            and 2 * g.red_degree(x) >= n - 1
            for x in range(1, n)
        )
        if ok_x:
            return g
    raise AssertionError("no adversarial colouring found")


class TestFindSignedPair:
    def test_edgeless_forest_zero_serves_both(self):
        g = random_balanced_colouring(8, 1)
        forest = Forest(8, [])
        pair = find_signed_pair(forest, g, cfg=SolverConfig(sample_budget=5))
        assert pair.h_neg.colour_sum == 0 == pair.h_pos.colour_sum

    def test_all_red_fails_with_best_sample(self):
        g = all_red(6)
        forest = make_forest(ForestSpec("path", 6))
        with pytest.raises(SignSearchFailure) as err:
            find_signed_pair(forest, g, cfg=SolverConfig(sample_budget=50))
        assert err.value.samples == 50
        assert err.value.best is not None
        assert err.value.best.colour_sum == forest.edge_count  # every sum is +m

    def test_success_rate_on_balanced_paths(self):
        forest = make_forest(ForestSpec("path", 9))
        cfg = SolverConfig(sample_budget=5000)
        successes = 0
        for seed in range(200):
            g = random_balanced_colouring(9, seed)
            try:
                find_signed_pair(forest, g, cfg=cfg, rng=random.Random(seed))
                successes += 1
            except SignSearchFailure:
                pass
        assert successes >= 198

    def test_anchor_respected(self):
        g = random_balanced_colouring(9, 4)
        forest = make_forest(ForestSpec("path", 9))
        anchor = PartialEmbedding({0: 5})
        pair = find_signed_pair(forest, g, anchor, SolverConfig(sample_budget=5000))
        assert pair.h_neg.forward[0] == 5 == pair.h_pos.forward[0]
        assert 0 not in pair.disagreement

    def test_stats_tracking(self):
        g = random_balanced_colouring(8, 2)
        forest = make_forest(ForestSpec("path", 8))
        stats = {}
        find_signed_pair(forest, g, cfg=SolverConfig(sample_budget=100), stats=stats)
        assert stats["samples_drawn"] >= 1


class TestExtensionSampler:
    def test_rows_are_bijections_extending_the_anchor(self):
        g = random_balanced_colouring(12, 3)
        forest = make_forest(ForestSpec("random", 12, max_degree=4, seed=1))
        anchor = PartialEmbedding({2: 7, 5: 0})
        for images, sums in ExtensionSampler(forest, g, anchor).blocks(random.Random(4), 100):
            assert images.shape == (len(sums), 12)
            for row in images.tolist():
                assert sorted(row) == list(range(12))
                assert row[2] == 7 and row[5] == 0

    def test_block_sums_equal_subgraph_sum(self):
        g = random_balanced_colouring(16, 5)
        for forest, anchor in ((make_forest(ForestSpec("path", 16)), None),
                               (make_forest(ForestSpec("star", 16)), PartialEmbedding({0: 9})),
                               (Forest(16, []), None)):
            for images, sums in ExtensionSampler(forest, g, anchor).blocks(random.Random(6), 60):
                for row, s in zip(images.tolist(), sums.tolist()):
                    assert s == subgraph_sum(g, Embedding(row, s), forest)

    @pytest.mark.parametrize("total", [1, 4, 5, 50, 5000])
    def test_blocks_draw_exactly_the_total(self, total):
        g = random_balanced_colouring(16, 1)
        sizes = [len(s) for _, s in ExtensionSampler(make_forest(ForestSpec("path", 16)), g).blocks(
            random.Random(0), total)]
        assert sum(sizes) == total
        assert sizes[0] == min(4, total) and max(sizes) <= 8192 // 16

    def test_permutations_are_uniform(self):
        g = random_balanced_colouring(4, 0)
        forest = make_forest(ForestSpec("path", 4))
        counts = {}
        for images, _ in ExtensionSampler(forest, g).blocks(random.Random(8), 24_000):
            for row in map(tuple, images.tolist()):
                counts[row] = counts.get(row, 0) + 1
        assert len(counts) == 24
        assert all(800 < c < 1200 for c in counts.values())  # mean 1000, sd ~31

    def test_pair_is_first_of_each_sign_in_stream_order(self):
        forest = make_forest(ForestSpec("path", 9))
        for seed in range(20):
            g = random_balanced_colouring(9, seed)
            stats = {}
            pair = find_signed_pair(forest, g, cfg=SolverConfig(sample_budget=5000),
                                    rng=random.Random(seed), stats=stats)
            # scalar replay of the same blocks, one row at a time
            rows = (
                (row, s)
                for images, sums in ExtensionSampler(forest, g).blocks(random.Random(seed), 5000)
                for row, s in zip(images.tolist(), sums.tolist())
            )
            non_neg = non_pos = None
            for k, (row, s) in enumerate(rows):
                if s >= 0 and non_neg is None:
                    non_neg = row
                if s <= 0 and non_pos is None:
                    non_pos = row
                if non_neg is not None and non_pos is not None:
                    break
            assert list(pair.h_pos.forward) == non_neg
            assert list(pair.h_neg.forward) == non_pos
            assert stats["samples_drawn"] == k + 1

    @pytest.mark.parametrize("budget", [5, 50, 5000])
    def test_anchored_star_spends_the_exact_budget(self, budget):
        # with its centre anchored, every extension of a star sums to the
        # host's signed degree, which is odd at even n
        g = random_balanced_colouring(16, 2)
        star = make_forest(ForestSpec("star", 16))
        anchor = PartialEmbedding({0: 3})
        stats = {}
        with pytest.raises(SignSearchFailure) as err:
            find_signed_pair(star, g, anchor, SolverConfig(sample_budget=budget), stats=stats)
        assert err.value.samples == budget == stats["samples_drawn"]
        assert err.value.best.colour_sum == g.signed_degree(3)
        assert err.value.best.forward[0] == 3

    def test_same_seed_same_pair(self):
        g = random_balanced_colouring(32, 3)
        forest = make_forest(ForestSpec("random", 32, max_degree=6, seed=3))
        pairs = [find_signed_pair(forest, g, rng=random.Random(12)) for _ in range(2)]
        assert pairs[0].h_pos == pairs[1].h_pos and pairs[0].h_neg == pairs[1].h_neg

    def test_anchor_out_of_range_rejected(self):
        g = random_balanced_colouring(8, 1)
        forest = make_forest(ForestSpec("path", 8))
        for anchor in (PartialEmbedding({0: 8}), PartialEmbedding({8: 0})):
            with pytest.raises(InvalidInputError):
                find_signed_pair(forest, g, anchor)


class TestLargeDegreeSet:
    def test_path_is_empty_at_eighth(self):
        forest = make_forest(ForestSpec("path", 20))
        assert large_degree_set(forest, 0.125) == []

    def test_star_centre_only(self):
        forest = make_forest(ForestSpec("star", 20))
        assert large_degree_set(forest, 0.125) == [0]

    def test_size_cap_over_grid(self):
        for seed in range(20):
            forest = make_forest(ForestSpec("random", 40, max_degree=10, seed=seed))
            for k in range(1, 6):
                eps = 1 / 40 + (0.125 - 1 / 40) * k / 6
                out = large_degree_set(forest, eps)
                assert len(out) <= eps * 40


class TestGreedyStarBalance:
    def test_adversarial_double_star_n32(self):
        n = 32
        g = red_poor_adversary(n)
        forest = double_star(n)
        x = next(
            v
            for v in range(n)
            if min(g.red_degree(v), g.blue_degree(v)) >= math.ceil(n / 4 - 1)
            and 2 * g.red_degree(v) >= n - 1
        )
        emb = greedy_star_balance(forest, g, x, 0, seed=3)
        assert abs(emb.colour_sum) <= n / 4 + 4
        assert emb.colour_sum == subgraph_sum(g, emb, forest)
        assert emb.forward[0] == x and emb.forward[1] == 0

    def test_certificate_accounts_for_edges(self):
        n = 32
        forest = double_star(n)
        assert greedy_star_certificate(forest) <= n / 4 + 4

    def test_preconditions(self):
        n = 32
        g = red_poor_adversary(n)
        path = make_forest(ForestSpec("path", n))
        with pytest.raises(PreconditionError):
            greedy_star_balance(path, g, 1, 0)
        forest = double_star(n)
        with pytest.raises(PreconditionError):
            greedy_star_balance(forest, g, 1, 1)


class TestSolve:
    def test_exact_dispatch_matches_oracle(self):
        # balanced colourings need n = 0,1 mod 4; use 5 and 8
        for seed in range(20):
            for n in (5, 8):
                g = random_balanced_colouring(n, seed)
                forest = make_forest(ForestSpec("random", n, max_degree=3, seed=seed))
                result = solve(forest, g, SolverConfig(seed=seed, exact_threshold=8))
                value, _ = exact_min_imbalance(forest, g)
                assert result.achieved == value
                assert result.certified == CERT_EXACT

    def test_star_split_parity_every_strategy(self):
        for n in (8, 12):
            g = split_parity_colouring(n)
            star = make_forest(ForestSpec("star", n))
            for strategy in ("auto", "interpolate-only", "local-search"):
                cfg = SolverConfig(seed=1, strategy=strategy, sample_budget=400, max_restarts=3)
                result = solve(star, g, cfg)
                assert result.achieved == (n - 2) // 2, (n, strategy)
                assert result.within_bound

    def test_deterministic(self):
        g = random_balanced_colouring(16, 6)
        forest = make_forest(ForestSpec("random", 16, max_degree=5, seed=2))
        cfg = SolverConfig(seed=42)
        a = solve(forest, g, cfg)
        b = solve(forest, g, cfg)
        assert a.embedding == b.embedding
        assert a.achieved == b.achieved
        assert a.stats == b.stats

    def test_interpolation_certificate_holds(self):
        for seed in range(40):
            n = (16, 17)[seed % 2]
            g = random_balanced_colouring(n, seed)
            forest = make_forest(ForestSpec("random", n, max_degree=6, seed=seed))
            if forest.max_degree < 1:
                continue
            result = solve(forest, g, SolverConfig(seed=seed))
            assert result.achieved <= refined_bound(n, forest.max_degree)
            if result.certified == CERT_INTERPOLATION:
                assert result.achieved <= result.certified_value
                assert result.certified_value <= forest.max_degree + 1

    def test_bounds_hold_up_to_n64(self):
        for n in (16, 32, 48, 64):
            for family in ("path", "star", "random"):
                for seed in range(10):
                    g = random_balanced_colouring(n, 1000 * n + seed)
                    if family == "random":
                        forest = make_forest(
                            ForestSpec("random", n, max_degree=max(2, n // 8), seed=seed)
                        )
                        if forest.max_degree < 1:
                            continue
                    else:
                        forest = make_forest(ForestSpec(family, n))
                    result = solve(forest, g, SolverConfig(seed=seed))
                    assert result.achieved <= refined_bound(n, forest.max_degree)
                    if result.certified == CERT_INTERPOLATION:
                        assert result.achieved <= result.certified_value

    def test_parity_floor_on_even_paths(self):
        for n in (8, 12, 16):
            forest = make_forest(ForestSpec("path", n))
            for seed in range(10):
                g = random_balanced_colouring(n, seed)
                result = solve(forest, g, SolverConfig(seed=seed))
                assert result.achieved % 2 == 1
                assert result.achieved >= 1

    def test_greedy_branch_fires_on_adversary(self):
        n = 32
        g = red_poor_adversary(n)
        forest = double_star(n)
        result = solve(forest, g, SolverConfig(seed=0, strategy="greedy-star"))
        assert result.certified == CERT_GREEDY_STAR
        assert result.achieved <= n / 4 + 4
        assert result.within_bound

    def test_greedy_branch_fires_after_negation(self):
        n = 32
        g = red_poor_adversary(n).negated()
        forest = double_star(n)
        result = solve(forest, g, SolverConfig(seed=0, strategy="greedy-star"))
        assert result.certified == CERT_GREEDY_STAR
        assert result.achieved <= n / 4 + 4

    def test_negation_built_only_when_first_orientation_fails(self, monkeypatch):
        n = 32
        g = red_poor_adversary(n)
        flipped = g.negated()
        calls = []
        real = ColouredCompleteGraph.negated
        monkeypatch.setattr(ColouredCompleteGraph, "negated", lambda self: calls.append(self) or real(self))
        cfg = SolverConfig(seed=0, strategy="greedy-star")
        assert solve(double_star(n), g, cfg).certified == CERT_GREEDY_STAR
        assert calls == []
        assert solve(double_star(n), flipped, cfg).certified == CERT_GREEDY_STAR
        assert calls == [flipped]

    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_auto_certifies_the_red_poor_adversary(self, n):
        # greedy-star's preconditions hold here, but auto never runs it:
        # the sign search (L-anchored at n = 64 and 128) certifies the refined bound
        g = red_poor_adversary(n)
        for graph in (g, g.negated()):
            result = solve(double_star(n), graph, SolverConfig(seed=0))
            assert result.certified == CERT_INTERPOLATION
            assert result.certified_value <= result.bound_report.refined
            assert result.stats["strategy"] == "auto"

    def test_forced_greedy_strategy_raises_without_preconditions(self):
        g = random_balanced_colouring(16, 3)
        path = make_forest(ForestSpec("path", 16))
        with pytest.raises(PreconditionError):
            solve(path, g, SolverConfig(strategy="greedy-star"))

    def test_unbalanced_input_degrades_to_heuristic(self):
        g = all_red(12)
        forest = make_forest(ForestSpec("path", 12))
        result = solve(forest, g, SolverConfig(seed=0, sample_budget=100, max_restarts=5))
        assert result.certified == CERT_HEURISTIC
        assert result.achieved == forest.edge_count  # every embedding is all-red
        assert result.stats["samples_drawn"] >= 100

    def test_local_search_strategy(self):
        g = random_balanced_colouring(13, 8)
        forest = make_forest(ForestSpec("random", 13, max_degree=4, seed=1))
        cfg = SolverConfig(seed=5, strategy="local-search", max_restarts=4, sample_budget=500)
        result = solve(forest, g, cfg)
        assert result.certified == CERT_HEURISTIC
        assert result.achieved == abs(result.embedding.colour_sum)
        assert result.stats["restarts_used"] == 4

    def test_edgeless_forest(self):
        g = random_balanced_colouring(8, 3)
        forest = Forest(8, [])
        result = solve(forest, g, SolverConfig())
        assert result.achieved == 0 and result.certified == CERT_EXACT

    def test_mismatched_sizes_rejected(self):
        g = random_balanced_colouring(8, 3)
        forest = make_forest(ForestSpec("path", 9))
        with pytest.raises(InvalidInputError):
            solve(forest, g)


class TestSolverConfig:
    @pytest.mark.parametrize("threshold", [-1, -3])
    def test_negative_exact_threshold_rejected(self, threshold):
        with pytest.raises(InvalidInputError, match=f"exact_threshold must be non-negative, got {threshold}"):
            SolverConfig(exact_threshold=threshold)


class TestLocalSearch:
    def test_budget_respected_and_improves(self):
        g = random_balanced_colouring(12, 9)
        forest = make_forest(ForestSpec("random", 12, max_degree=4, seed=3))
        rng = random.Random(0)
        start = sample_extension(rng, forest, g)
        out, evals = local_search(forest, g, start, budget=300)
        assert evals <= 300
        assert abs(out.colour_sum) <= abs(start.colour_sum)
        assert out.colour_sum == subgraph_sum(g, out, forest)

    def test_star_reaches_global_optimum(self):
        n = 12
        g = random_balanced_colouring(n, 17)
        star = make_forest(ForestSpec("star", n))
        rng = random.Random(1)
        start = sample_extension(rng, star, g)
        out, _ = local_search(star, g, start, budget=5000)
        best = min(abs(g.signed_degree(x)) for x in range(n))
        assert abs(out.colour_sum) == best


    def test_start_at_parity_floor_is_returned_unsearched(self):
        g = random_balanced_colouring(12, 9)
        path = make_forest(ForestSpec("path", 12))
        rng = random.Random(0)
        start = sample_extension(rng, path, g)
        while abs(start.colour_sum) != path.edge_count % 2:
            start = sample_extension(rng, path, g)
        out, evals = local_search(path, g, start, budget=5000)
        assert evals == 0
        assert out == start and out.colour_sum == start.colour_sum


class TestAnchoredPolish:
    def test_anchored_interpolation_result_is_polished(self, monkeypatch):
        # Centres of degree 71 and 55 on a plain balanced colouring: both
        # are in the large-degree set, so anchored interpolation runs.  The
        # walk's result, whatever its sum, must go through the polish pass.
        n = 128
        a, b = n // 2 + 7, n // 2 - 9
        edges = [(0, 1)] + [(0, v) for v in range(2, a + 1)] + [(1, v) for v in range(a + 1, a + b)]
        edges += [(v - 1, v) for v in range(a + b, n)]
        perm = list(range(n))
        random.Random(25334).shuffle(perm)
        forest = Forest(n, [(perm[u], perm[v]) for u, v in edges])
        g = random_balanced_colouring(n, 844)
        starts = []

        def recording(forest, graph, start, budget):
            starts.append(start)
            return local_search(forest, graph, start, budget)

        monkeypatch.setattr("forestbalance.solver.local_search", recording)
        result = solve(forest, g, SolverConfig(seed=25334))
        assert result.certified == CERT_INTERPOLATION
        assert starts == [result.trace.result]
        assert result.achieved <= min(abs(result.trace.result.colour_sum), result.certified_value)
        assert result.within_bound


# Runs under ``python -O``; each forged violation must still raise.
_FORGED_CERTIFICATES = """
import importlib
import sys
from types import SimpleNamespace

import forestbalance.bounds as bounds
import forestbalance.oracle as oracle
import forestbalance.solver as solver
from forestbalance.core import CertificateError, Embedding, PartialEmbedding, parse_colouring, parse_forest
from forestbalance.generators import ForestSpec, make_forest, random_balanced_colouring

if __debug__:
    sys.exit("not running under -O")


def forged(fwd):
    return Embedding(fwd, 10**6)


def expect(name, call):
    try:
        call()
    except CertificateError:
        print(name, "raised")
    else:
        print(name, "passed silently")


# the package rebinds the name ``interpolate`` to the function
interpolate_mod = importlib.import_module("forestbalance.interpolate")
g = random_balanced_colouring(16, 1)
path = make_forest(ForestSpec("path", 16))
pair = solver.find_signed_pair(path, g)
real_walk = interpolate_mod.interpolate_traced
interpolate_mod.interpolate_traced = lambda pair, forest, graph: (forged(pair.h_pos.forward), None)
expect("interpolate", lambda: interpolate_mod.interpolate(pair, path, g))
interpolate_mod.interpolate_traced = real_walk

solver.local_search = lambda forest, graph, start, budget: (forged(start.forward), 0)
expect("finish", lambda: solver.solve(path, g))


class ForgedBuild(Embedding):
    @classmethod
    def build(cls, forward, forest, graph):
        return forged(forward)


adversary = parse_colouring(open(sys.argv[1]).read())
double = parse_forest(open(sys.argv[2]).read())
x = int(sys.argv[3])
solver.Embedding = ForgedBuild
expect("greedy", lambda: solver.greedy_star_balance(double, adversary, x, 0))

# the top vertex lists one neighbour twice, across the red/blue block border
v1, v2 = solver._top_two_degree_vertices(double)
top = [v for v in double.neighbours[v1] if v != v2]
cut = (3 * double.n) // 8
neighbours = list(double.neighbours)
neighbours[v1] = (*top[:cut], top[cut - 1], *top[cut:])
repeated = SimpleNamespace(n=double.n, degree=double.degree, neighbours=tuple(neighbours))
expect("greedy blocks", lambda: solver.greedy_star_balance(repeated, adversary, x, 0))

expect("large-degree set", lambda: solver.large_degree_set(SimpleNamespace(n=32, degree=(20,) * 32), 1 / 8))

expect("sign verdict", lambda: oracle.SignVerdict(1, 0, None, None, 1))

# once the sign-fixing test is forged, a triangle has no leaf to drop
oracle.is_sign_fixing = lambda forest, graph, l_set, u_set, budget: oracle.SignFixingResult(len(l_set) == 3)
triangle = SimpleNamespace(neighbours=((1, 2), (0, 2), (0, 1)))
expect("sign-fixing core", lambda: oracle.minimal_sign_fixing_subset(triangle, g, [0, 1, 2], [0, 1, 2]))


class Shifted(PartialEmbedding):
    def __init__(self, mapping):
        super().__init__({v: t + 100 for v, t in mapping.items()})


interpolate_mod.PartialEmbedding = Shifted
source, target = PartialEmbedding({0: 1, 5: 2}), PartialEmbedding({0: 1, 5: 3})
expect("partial sequence", lambda: interpolate_mod.partial_interpolation_sequence(target, source, [0, 5], [0], 9))

bounds._check_offset_domain = lambda n, offset: None
expect("crossing epsilon", lambda: bounds.crossing_epsilon(32, 10.0))
bounds.refined_bound = lambda n, delta: 1e9
expect("bound report", lambda: bounds.BoundReport.compute(64, 8))
"""


class TestCertificateChecks:
    def test_forged_violations_raise_under_optimisation(self, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import forestbalance
        from forestbalance.core import serialize_colouring, serialize_forest

        n = 32
        g = red_poor_adversary(n)
        x = next(
            v
            for v in range(n)
            if min(g.red_degree(v), g.blue_degree(v)) >= math.ceil(n / 4 - 1)
            and 2 * g.red_degree(v) >= n - 1
        )
        cpath, fpath = tmp_path / "c.txt", tmp_path / "f.txt"
        cpath.write_text(serialize_colouring(g))
        fpath.write_text(serialize_forest(double_star(n)))
        src = str(Path(forestbalance.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-O", "-c", _FORGED_CERTIFICATES, str(cpath), str(fpath), str(x)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        checks = ["interpolate", "finish", "greedy", "greedy blocks", "large-degree set", "sign verdict",
                  "sign-fixing core", "partial sequence", "crossing epsilon", "bound report"]
        assert proc.stdout.splitlines() == [f"{name} raised" for name in checks]


def spider(n, hubs):
    """A path of ``hubs`` hub vertices; every other vertex is a leaf of hub v % hubs."""
    edges = [(h, h + 1) for h in range(hubs - 1)]
    edges += [(v % hubs, v) for v in range(hubs, n)]
    return Forest(n, edges)


class TestLargeDegreeAnchor:
    def test_none_below_max_degree_16(self):
        g = random_balanced_colouring(33, 1)
        for forest in (make_forest(ForestSpec("path", 33)), make_forest(ForestSpec("broom", 33, 15))):
            assert large_degree_anchor(forest, g, BoundReport.compute(33, forest.max_degree)) is None
        star16 = make_forest(ForestSpec("star", 16))
        assert large_degree_anchor(star16, random_balanced_colouring(16, 1), BoundReport.compute(16, 15)) is None

    def test_large_vertices_in_degree_order_on_least_signed_hosts(self):
        n = 128
        g = random_balanced_colouring(n, 7)
        # centres of degree 71 and 55, relabelled so the larger has the larger index
        edges = [(1, 0)] + [(1, v) for v in range(2, 72)] + [(0, v) for v in range(72, 126)]
        edges += [(126, 127), (125, 126)]
        forest = Forest(n, edges)
        report = BoundReport.compute(n, forest.max_degree)
        anchor = large_degree_anchor(forest, g, report)
        assert report.crossing_eps is None
        assert large_degree_set(forest, 1 / 8) == [0, 1]
        ranked = sorted(range(n), key=lambda v: (abs(g.signed_degree(v)), v))
        assert [anchor[1], anchor[0]] == ranked[:2]

    def test_ties_broken_by_index(self):
        n = 64
        g = random_balanced_colouring(n, 3)
        forest = spider(n, 2)  # two hubs of degree 32
        anchor = large_degree_anchor(forest, g, BoundReport.compute(n, forest.max_degree))
        assert list(anchor.domain) == [0, 1]
        hosts = [anchor[0], anchor[1]]
        ranked = sorted(range(n), key=lambda v: (abs(g.signed_degree(v)), v))
        assert hosts == ranked[:2]
        # both hosts tie at the least |signed degree|, so index order decides
        assert abs(g.signed_degree(hosts[0])) == abs(g.signed_degree(hosts[1])) == 1
        assert hosts[0] < hosts[1]

    def test_uses_crossing_epsilon_in_the_middle_regime(self):
        n = 256
        g = random_balanced_colouring(n, 5)
        forest = spider(n, 8)  # eight hubs of degree 33 or 32
        report = BoundReport.compute(n, forest.max_degree)
        anchor = large_degree_anchor(forest, g, report)
        assert report.crossing_eps is not None
        assert set(anchor.domain) == set(large_degree_set(forest, report.crossing_eps))
        assert len(anchor) == 8


def _refined_cases():
    for n in (33, 64, 65, 128, 256):
        for d in sorted({16, 17, n // 4, n // 2 - 1, n // 2, n // 2 + 1, 3 * n // 4, n - 2}):
            yield f"broom{d}", make_forest(ForestSpec("broom", n, d))
        for k in ((n + 1) // 2, n // 2 + 7):
            yield f"double-star{k}", double_star(n, k)
        for hubs in range(2, 9):
            yield f"spider{hubs}", spider(n, hubs)


class TestRefinedCertificate:
    def test_every_regime_certifies_the_refined_bound(self):
        failures = []
        for k, (name, forest) in enumerate(_refined_cases()):
            n = forest.n
            g = random_balanced_colouring(n, 500 + k)
            result = solve(forest, g, SolverConfig(seed=k))
            if result.certified_value is None or not result.certified_value <= result.bound_report.refined:
                failures.append((n, name, result.certified, result.certified_value))
        assert failures == []
