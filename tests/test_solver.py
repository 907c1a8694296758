import itertools
import math
import random
import tracemalloc
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from forestbalance.bounds import BoundReport, fits, refined_bound
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
    parse_colouring,
    parse_forest,
    serialize_colouring,
    serialize_forest,
    subgraph_sum,
)
from forestbalance.generators import (
    ForestSpec,
    PerturbedParams,
    make_forest,
    perturbed_colouring,
    random_balanced_colouring,
    split_parity_colouring,
)
from forestbalance.oracle import exact_min_imbalance
from forestbalance.solver import (
    CERT_EXACT,
    CERT_HUB_SPLIT,
    CERT_INTERPOLATION,
    SAMPLE_BUDGET,
    ExtensionSampler,
    SolverConfig,
    anchored_mean,
    find_signed_pair,
    greedy_star_balance,
    greedy_star_certificate,
    large_degree_anchor,
    large_degree_set,
    local_search,
    pin_hub_leaves,
    sample_extension,
    solve,
)

DATA = Path(__file__).resolve().parent / "data"


def all_red(n):
    return ColouredCompleteGraph.from_red_matrix(np.ones((n, n), dtype=bool))


def blue_degree(g, v):
    return g.n - 1 - g.red_degree(v)


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
        red_at_zero = [v for v in range(1, n) if base.matrix[0, v] == RED]
        excess = len(red_at_zero) - target
        if excess <= 0:
            continue
        drop = set(red_at_zero[:excess])
        blue_pairs = [
            (i, j)
            for i in range(2, n)
            for j in range(1, i)
            if base.matrix[i, j] == BLUE
        ]
        add = blue_pairs[:excess]
        if len(add) < excess:
            continue
        red = base.matrix == RED
        for v in drop:
            red[0, v] = red[v, 0] = False
        for i, j in add:
            red[i, j] = red[j, i] = True
        g = ColouredCompleteGraph.from_red_matrix(red)
        if not is_balanced(g):
            continue
        if g.red_degree(0) * 4 >= n:
            continue
        ok_x = any(
            min(g.red_degree(x), blue_degree(g, x)) >= r_threshold
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
        pair = find_signed_pair(forest, g, budget=5)
        assert pair.h_neg.colour_sum == 0 == pair.h_pos.colour_sum

    def test_all_red_spends_the_cap_and_centres_on_the_one_sum(self):
        # every sum is +m, so the range drawn never meets 0: the whole budget
        # goes, and the centre is 0 clipped to [m, m]
        g = all_red(6)
        forest = make_forest(ForestSpec("path", 6))
        stats = {}
        pair = find_signed_pair(forest, g, stats=stats, budget=50)
        assert stats == {"samples_drawn": 50, "hub_split": False}
        assert pair.centre == pair.h_neg.colour_sum == pair.h_pos.colour_sum == 5
        assert pair.h_neg == pair.h_pos and pair.disagreement == ()

    @pytest.mark.parametrize("budget", [0, -3])
    def test_budget_without_a_sample_rejected(self, budget):
        g = random_balanced_colouring(8, 1)
        with pytest.raises(InvalidInputError, match="budget must be at least 1 sample"):
            find_signed_pair(make_forest(ForestSpec("path", 8)), g, budget=budget)

    def test_success_rate_on_balanced_paths(self):
        forest = make_forest(ForestSpec("path", 9))
        # both signs seen, so the centre is 0
        successes = sum(
            find_signed_pair(forest, random_balanced_colouring(9, seed), rng=random.Random(seed)).centre == 0
            for seed in range(200)
        )
        assert successes >= 198

    def test_anchor_respected(self):
        g = random_balanced_colouring(9, 4)
        forest = make_forest(ForestSpec("path", 9))
        anchor = PartialEmbedding({0: 5})
        pair = find_signed_pair(forest, g, anchor)
        assert pair.h_neg.forward[0] == 5 == pair.h_pos.forward[0]
        assert 0 not in pair.disagreement

    def test_stats_tracking(self):
        g = random_balanced_colouring(8, 2)
        forest = make_forest(ForestSpec("path", 8))
        stats = {}
        find_signed_pair(forest, g, stats=stats, budget=100)
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

    @pytest.mark.parametrize("n", [2, 9, 64, 65, 130, 512])
    def test_draw_sums_match_a_numpy_reference(self, n):
        lower = np.tril(np.random.default_rng(n).random((n, n)) < 0.5, k=-1)
        red = lower | lower.T
        g = parse_colouring(serialize_colouring(ColouredCompleteGraph.from_red_matrix(red)))
        forests = [make_forest(ForestSpec("path", n)),
                   make_forest(ForestSpec("random", n, max_degree=max(2, n // 8), seed=n))]
        for forest, anchor in zip(forests, (None, PartialEmbedding({0: n - 1}))):
            edges = np.array(forest.edges, dtype=np.intp).reshape(-1, 2)
            images, sums = ExtensionSampler(forest, g, anchor).draw(random.Random(n), 6)
            hits = red[images[:, edges[:, 0]], images[:, edges[:, 1]]]
            assert sums.dtype == np.int64
            assert sums.tolist() == (2 * hits.sum(axis=1) - len(edges)).tolist()
        assert g._matrix is None

    @pytest.mark.parametrize("n", [2, 16, 129, 512])
    def test_draw_is_byte_identical_to_the_fancy_index_formula(self, n):
        # the formula the sampler followed before it gathered with take: the same keys and argsort,
        # then images[:, us] and triangle[off[max] + min]
        lower = np.tril(np.random.default_rng(n).random((n, n)) < 0.5, k=-1)
        g = ColouredCompleteGraph.from_red_matrix(lower | lower.T)
        forest = make_forest(ForestSpec("random", n, max_degree=max(2, n // 8), seed=n))
        us, vs = forest.edge_array.T
        i = np.arange(n)
        off = i * (i + 1) // 2
        for fixed in ({}, {0: n - 1}, {0: n - 1, n // 2: 0}):
            anchor = PartialEmbedding(fixed) if fixed else None
            free_vs = [v for v in range(n) if v not in fixed]
            free_ts = np.array(sorted(set(range(n)) - set(fixed.values())), dtype=np.intp)
            for size in (1, 4, 7):
                images, sums = ExtensionSampler(forest, g, anchor).draw(random.Random(n + size), size)
                keys = np.frombuffer(random.Random(n + size).randbytes(8 * size * len(free_vs)), dtype=np.uint64)
                expected = np.empty((size, n), dtype=np.intp)
                expected[:, list(fixed)] = list(fixed.values())
                expected[:, free_vs] = free_ts[keys.reshape(size, len(free_vs)).argsort(axis=1)]
                a, b = expected[:, us], expected[:, vs]
                colours = g.triangle[off[np.maximum(a, b)] + np.minimum(a, b)]
                assert images.dtype == expected.dtype and images.tobytes() == expected.tobytes()
                assert sums.dtype == np.int64
                assert sums.tobytes() == colours.sum(axis=1, dtype=np.int64).tobytes()

    def test_unanchored_sampler_builds_no_arrays(self):
        g = random_balanced_colouring(16, 1)
        forest = make_forest(ForestSpec("path", 16))
        for anchor in (None, PartialEmbedding({})):
            sampler = ExtensionSampler(forest, g, anchor)
            assert sampler.base is sampler.free_vs is sampler.free_ts is None
        assert ExtensionSampler(forest, g, PartialEmbedding({3: 5})).free_ts.tolist() == [t for t in range(16) if t != 5]

    def test_path_solve_at_512_never_builds_the_matrix(self):
        n = 512
        g = parse_colouring(serialize_colouring(random_balanced_colouring(n, 4)))
        forest = make_forest(ForestSpec("path", n))
        result = solve(forest, g, SolverConfig(seed=1))
        assert result.certified == CERT_INTERPOLATION and result.within_bound
        assert g._matrix is None
        assert result.embedding.colour_sum == subgraph_sum(g, result.embedding, forest)
        assert g._matrix is None

    def test_parsed_path_solve_at_512_never_builds_a_tuple_per_vertex_or_edge(self):
        n = 512
        g = parse_colouring(serialize_colouring(random_balanced_colouring(n, 4)))
        tree = make_forest(ForestSpec("path", n))
        forest = parse_forest(serialize_forest(tree))
        result = solve(forest, g, SolverConfig(seed=3))  # a seed whose walk takes steps
        assert result.certified == CERT_INTERPOLATION and len(result.trace.steps) > 1
        # the walk and the polish read the flat adjacency, the sampler the arrays
        assert forest._edges is forest._neighbours is forest._degree is None
        assert forest._adjacency is not None
        assert result.embedding.colour_sum == subgraph_sum(g, result.embedding, tree)
        assert solve(tree, g, SolverConfig(seed=3)).embedding == result.embedding

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

    @pytest.mark.parametrize("red_share", [None, 0.1, 0.8, 0.9])
    def test_pair_is_the_nearest_sample_on_each_side_earlier_on_a_tie(self, red_share):
        # balanced colourings (None) meet 0 in a block or two; blue- and red-heavy ones draw
        # several blocks, or the whole budget with every sum below or above 0
        forest = make_forest(ForestSpec("path", 9))
        ties = 0
        for seed in range(20):
            if red_share is None:
                g = random_balanced_colouring(9, seed)
            else:
                lower = np.tril(np.random.default_rng(seed).random((9, 9)) < red_share, k=-1)
                g = ColouredCompleteGraph.from_red_matrix(lower | lower.T)
            stats = {}
            pair = find_signed_pair(forest, g, rng=random.Random(seed), stats=stats, budget=60)
            # scalar replay of the same blocks, one row at a time, through the block that sees both signs
            # or to the end of the budget
            rows, lo, hi = [], math.inf, -math.inf
            for images, sums in ExtensionSampler(forest, g).blocks(random.Random(seed), 60):
                for row, s in zip(images.tolist(), sums.tolist()):
                    rows.append((row, s))
                    lo, hi = min(lo, s), max(hi, s)
                if lo <= 0 <= hi:
                    break
            c = min(max(0, lo), hi)
            below, minus_k = max((s, -k) for k, (_, s) in enumerate(rows) if s <= c)
            above, k = min((s, k) for k, (_, s) in enumerate(rows) if s >= c)
            assert pair.centre == c
            assert list(pair.h_neg.forward) == rows[-minus_k][0] and pair.h_neg.colour_sum == below
            assert list(pair.h_pos.forward) == rows[k][0] and pair.h_pos.colour_sum == above
            assert stats["samples_drawn"] == len(rows)
            ties += [s for _, s in rows].count(below) > 1 and [s for _, s in rows].count(above) > 1
        assert ties  # some seeds draw the nearest sum on each side twice, so the earlier-wins rule ran

    @given(st.integers(2, 40), st.sampled_from(["path", "star", "random"]), st.booleans(), st.booleans(),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_no_drawn_sample_lies_between_an_end_and_the_centre(self, n, kind, balanced, anchored, seed):
        if balanced:
            assume(n * (n - 1) // 4 * 2 == n * (n - 1) // 2)  # an even number of pairs can split evenly
            g = random_balanced_colouring(n, seed)
        else:  # a red density anywhere in (0, 1), so the sums may all fall on one side
            lower = np.tril(np.random.default_rng(seed).random((n, n)) < (seed % 97 + 1) / 98, k=-1)
            g = ColouredCompleteGraph.from_red_matrix(lower | lower.T)
        forest = make_forest(ForestSpec(kind, n, seed=seed))
        anchor = PartialEmbedding({n - 1: seed % n}) if anchored else None
        drawn = []  # (sampler, sums) per block; a hub split restarts the search on a new sampler
        draw = ExtensionSampler.draw

        def recording_draw(sampler, rng, size):
            images, sums = draw(sampler, rng, size)
            drawn.append((sampler, sums.tolist()))
            return images, sums

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ExtensionSampler, "draw", recording_draw)
            stats = {}
            pair = find_signed_pair(forest, g, anchor, random.Random(seed), stats, budget=200)
        candidates = [s for sampler, sums in drawn if sampler is drawn[-1][0] for s in sums]
        neg, c, pos = pair.h_neg.colour_sum, pair.centre, pair.h_pos.colour_sum
        assert neg <= c <= pos
        assert c == min(max(0, min(candidates)), max(candidates))
        assert not any(neg < s < c or c < s < pos for s in candidates)
        assert stats["samples_drawn"] == sum(len(sums) for _, sums in drawn)

    @pytest.mark.parametrize("budget", [5, 50, 5000])
    def test_anchored_star_spends_the_exact_budget(self, budget):
        # with its centre anchored, every extension of a star sums to the
        # host's signed degree, -1 here: the mean is that far from 0, no
        # further than the leaves' degree plus the min degree, so nothing is
        # pinned, the range never meets the target 0 and the budget goes;
        # the centre is the one sum
        g = random_balanced_colouring(16, 2)
        star = make_forest(ForestSpec("star", 16))
        anchor = PartialEmbedding({0: 3})
        stats = {}
        pair = find_signed_pair(star, g, anchor, stats=stats, budget=budget)
        assert stats == {"samples_drawn": budget, "hub_split": False}
        assert anchored_mean(star, g, anchor) == g.signed_degree(3) == pair.centre == -1
        assert pair.disagreement == ()

    def test_capped_search_keeps_no_block_after_it_returns(self):
        # every extension of the anchored star sums to the host's signed degree, +-1, so the search
        # spends the whole cap; keeping every block would hold 5000 x 512 intp cells, 20 MB
        n = 512
        g = random_balanced_colouring(n, 1)
        star = make_forest(ForestSpec("star", n))
        anchor = PartialEmbedding({0: int(np.flatnonzero(np.abs(g.signed_degrees()) == 1)[0])})
        star.edge_array, star.degree_array  # built before tracing, as a solve has them
        stats = {}
        tracemalloc.start()
        try:
            pair = find_signed_pair(star, g, anchor, random.Random(1), stats)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stats == {"samples_drawn": SAMPLE_BUDGET, "hub_split": False}
        assert pair.h_neg == pair.h_pos and abs(pair.centre) == 1
        # one block is 8192 intp cells, 64 KB: what stays is the pair's two forward tuples
        assert retained < 64 << 10 and peak < 1 << 20

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

    @pytest.mark.parametrize("n", [9, 17])
    def test_forest_of_another_size_rejected(self, n):
        g = random_balanced_colouring(16, 1)
        forest = make_forest(ForestSpec("path", n))
        with pytest.raises(InvalidInputError, match=f"forest has {n} vertices but graph has 16"):
            find_signed_pair(forest, g)
        with pytest.raises(InvalidInputError, match=f"forest has {n} vertices but graph has 16"):
            ExtensionSampler(forest, g)


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
            if min(g.red_degree(v), blue_degree(g, v)) >= math.ceil(n / 4 - 1)
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
            result = solve(star, g, SolverConfig(seed=1))
            assert result.achieved == (n - 2) // 2, n
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

    @pytest.mark.parametrize("n", [16, 32, 64, 128])
    def test_auto_certifies_the_red_poor_adversary(self, n):
        # greedy-star's preconditions hold here, but solve never runs it: the
        # sign search (L-anchored at n = 64 and 128) certifies the refined
        # bound, in both orientations, and reaches a |sum| no larger than the
        # block construction's on the same input
        forest = double_star(n)
        for seed in range(3):
            g = red_poor_adversary(n, seed)
            x = next(
                v
                for v in range(n)
                if min(g.red_degree(v), blue_degree(g, v)) >= math.ceil(n / 4 - 1)
                and 2 * g.red_degree(v) >= n - 1
            )
            greedy = abs(greedy_star_balance(forest, g, x, 0, seed=seed).colour_sum)
            for graph in (g, ColouredCompleteGraph.from_red_matrix(g.matrix < 0)):
                result = solve(forest, graph, SolverConfig(seed=seed))
                assert result.certified == CERT_INTERPOLATION
                assert result.certified_value <= result.bound_report.refined
                assert result.achieved <= greedy

    def test_unbalanced_input_centres_on_the_range_it_drew(self):
        # every embedding is all-red and nothing is anchored, so the search
        # spends its cap; the centre is 0 clipped to the one sum, 11, and
        # the window's half-width is 0 + 1
        g = all_red(12)
        forest = make_forest(ForestSpec("path", 12))
        result = solve(forest, g, SolverConfig(seed=0))
        assert result.certified == CERT_INTERPOLATION
        assert result.achieved == forest.edge_count == 11
        assert result.certified_value == 12.0
        assert result.stats == {"samples_drawn": SAMPLE_BUDGET}

    def test_hub_split_search_walks_and_polishes_its_pair_once(self, monkeypatch):
        # on the paper's split-parity colouring the Delta = 24 broom's hub
        # sits on a host whose leaves lean one way: the first block misses 0,
        # the anchored mean is far off, and the search pins the hub's leaves;
        # its one pair is walked, and the walk's result is polished once
        # under the walk's certificate
        g = split_parity_colouring(32)
        forest = make_forest(ForestSpec("broom", 32, 24))
        searched, polished = [], []

        def recording_pair(*args, **kwargs):
            searched.append((find_signed_pair(*args, **kwargs), dict(args[4])))
            return searched[-1][0]

        def recording_polish(forest, graph, start, budget):
            polished.append((start, budget))
            return local_search(forest, graph, start, budget)

        monkeypatch.setattr("forestbalance.solver.find_signed_pair", recording_pair)
        monkeypatch.setattr("forestbalance.solver.local_search", recording_polish)
        result = solve(forest, g, SolverConfig(seed=3))
        [(pair, search)] = searched
        assert search["hub_split"] and result.certified == CERT_HUB_SPLIT
        assert result.certified_value == abs(pair.centre) + pair.bound(forest)
        assert result.certified_value <= result.bound_report.refined
        assert polished == [(result.trace.result, SAMPLE_BUDGET)]
        assert result.stats == {"samples_drawn": search["samples_drawn"]}
        assert result.stats["samples_drawn"] < SAMPLE_BUDGET

    def test_edgeless_forest(self):
        g = random_balanced_colouring(8, 3)
        forest = Forest(8, [])
        result = solve(forest, g, SolverConfig())
        assert result.achieved == 0 and result.certified == CERT_EXACT

    @pytest.mark.parametrize("forest, threshold, certified, samples", [
        (Forest(64, []), 0, CERT_EXACT, 0),
        (Forest(65, []), 0, CERT_EXACT, 0),
        (Forest(33, [(5, v) for v in range(10, 30)]), 8, CERT_EXACT, 0),
        (make_forest(ForestSpec("path", 8)), 8, CERT_EXACT, 0),
        (make_forest(ForestSpec("path", 32)), 8, CERT_INTERPOLATION, None),
    ], ids=["edgeless-64", "edgeless-65", "star-with-isolated", "path-8", "sampled-path-32"])
    def test_one_stats_shape(self, forest, threshold, certified, samples):
        g = random_balanced_colouring(forest.n, 4)
        result = solve(forest, g, SolverConfig(seed=2, exact_threshold=threshold))
        assert result.certified == certified
        assert result.stats.keys() == {"samples_drawn"}
        if samples is None:
            assert result.stats["samples_drawn"] >= 1
        else:
            assert result.stats["samples_drawn"] == samples

    def test_mismatched_sizes_rejected(self):
        g = random_balanced_colouring(8, 3)
        forest = make_forest(ForestSpec("path", 9))
        with pytest.raises(InvalidInputError):
            solve(forest, g)


def red_poor_colouring(n, seed):
    """Balanced colouring in which vertex 0 keeps only n // 8 red edges.

    The red edges dropped at vertex 0 are re-added at random among the blue
    edges that avoid it, so the colouring stays balanced.
    """
    red = random_balanced_colouring(n, seed).matrix > 0
    drop = np.flatnonzero(red[0])[n // 8:]
    red[0, drop] = red[drop, 0] = False
    iu, ju = np.triu_indices(n, 1)
    blue = np.flatnonzero(~red[iu, ju] & (iu > 0))
    add = np.random.default_rng(seed).choice(blue, len(drop), replace=False)
    red[iu[add], ju[add]] = red[ju[add], iu[add]] = True
    g = ColouredCompleteGraph.from_red_matrix(red)
    assert is_balanced(g) and g.red_degree(0) == n // 8
    return g


def reference_star_witness(graph, centre):
    """The spanning-star witness the oracle gives, by its documented rule.

    The centre goes to the lowest-index host of least |signed degree|, and
    the leaves, ascending, to the other hosts, ascending.
    """
    n = graph.n
    x = min(range(n), key=lambda t: (abs(graph.signed_degree(t)), t))
    rest = iter(t for t in range(n) if t != x)
    return tuple(x if v == centre else next(rest) for v in range(n))


def scalar_star_optimum(graph, forest):
    """min over hosts of the reachable |2k - d|, by a loop over every k."""
    n, d = forest.n, forest.max_degree
    return min(
        abs(2 * k - d)
        for x in range(n)
        for k in range(d + 1)
        if k <= graph.red_degree(x) and d - k <= blue_degree(graph, x)
    )


class TestStarExact:
    @pytest.mark.parametrize("n", [16, 33, 64, 128, 257])
    @pytest.mark.parametrize("colouring", ["balanced", "red-poor"])
    def test_spanning_star_is_solved_exactly(self, n, colouring):
        g = random_balanced_colouring(n, n) if colouring == "balanced" else red_poor_colouring(n, n)
        result = solve(make_forest(ForestSpec("star", n)), g, SolverConfig(seed=n))
        best = min(abs(g.signed_degree(x)) for x in range(n))
        assert result.certified == CERT_EXACT
        assert result.certified_value == result.achieved == best
        assert result.stats["samples_drawn"] == 0 and result.trace is None
        assert result.within_bound

    def test_star_path_draws_no_sample(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a star solve must not sample")

        monkeypatch.setattr("forestbalance.solver.find_signed_pair", refuse)
        monkeypatch.setattr(ExtensionSampler, "draw", refuse)
        for n, centre, leaves in ((33, 0, 32), (64, 17, 63), (64, 5, 20), (128, 127, 1)):
            forest = Forest(n, [(centre, v) for v in range(n) if v != centre][:leaves])
            g = random_balanced_colouring(n, leaves)
            result = solve(forest, g, SolverConfig(seed=3))
            assert result.certified == CERT_EXACT, (n, leaves)
            assert result.certified_value == result.achieved == scalar_star_optimum(g, forest)

    @pytest.mark.parametrize("n, centre", [(33, 0), (33, 7), (64, 63), (128, 40)])
    def test_spanning_star_witness_is_unchanged(self, n, centre):
        g = random_balanced_colouring(n, 3 * n + centre)
        star = Forest(n, [(centre, v) for v in range(n) if v != centre])
        expected = reference_star_witness(g, centre)
        assert exact_min_imbalance(star, g)[1].forward == expected
        assert solve(star, g, SolverConfig(seed=1)).embedding.forward == expected


class TestSolverConfig:
    @pytest.mark.parametrize("threshold", [-1, -3])
    def test_negative_exact_threshold_rejected(self, threshold):
        with pytest.raises(InvalidInputError, match=f"exact_threshold must be non-negative, got {threshold}"):
            SolverConfig(exact_threshold=threshold)

    @pytest.mark.parametrize("threshold", [11, 16])
    def test_exact_threshold_past_the_oracle_guard_rejected(self, threshold):
        with pytest.raises(InvalidInputError, match=f"^exact_threshold must be at most 10, the largest n whose n! embeddings fit the "
                           f"oracle's budget of 3628800, got {threshold}$"):
            SolverConfig(exact_threshold=threshold)

    def test_exact_threshold_at_the_oracle_guard_solves_exactly(self):
        g = random_balanced_colouring(9, 4)
        forest = make_forest(ForestSpec("random", 9, max_degree=3, seed=2))
        result = solve(forest, g, SolverConfig(exact_threshold=10))
        assert result.certified == CERT_EXACT
        assert result.achieved == exact_min_imbalance(forest, g)[0]

    @pytest.mark.parametrize("strategy", ["local-search", "interpolate-only", "greedy-star", "auto"])
    def test_removed_strategies_rejected(self, strategy):
        with pytest.raises(TypeError, match="unexpected keyword argument 'strategy'"):
            SolverConfig(strategy=strategy)

    def test_two_fields_and_no_sample_budget(self):
        assert [f.name for f in fields(SolverConfig)] == ["seed", "exact_threshold"]
        with pytest.raises(TypeError, match="unexpected keyword argument 'sample_budget'"):
            SolverConfig(sample_budget=5000)


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
import sys
from types import SimpleNamespace

import numpy as np

import forestbalance.bounds as bounds
import forestbalance.interpolate as interpolate
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


g = random_balanced_colouring(16, 1)
path = make_forest(ForestSpec("path", 16))
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

# all 32 vertices have degree 20 >= 2 / eps = 16, far more than eps * n = 4
many_large = SimpleNamespace(n=32, degree=(20,) * 32, degree_array=np.full(32, 20, dtype=np.intp))
expect("large-degree set", lambda: solver.large_degree_set(many_large, 1 / 8))

expect("sign verdict", lambda: oracle.SignVerdict(1, 0, None, None, 1))


class Shifted(PartialEmbedding):
    def __init__(self, mapping):
        super().__init__({v: t + 100 for v, t in mapping.items()})


interpolate.PartialEmbedding = Shifted
source, target = PartialEmbedding({0: 1, 5: 2}), PartialEmbedding({0: 1, 5: 3})
expect("partial sequence", lambda: interpolate.partial_interpolation_sequence(target, source, [0, 5], [0], 9))

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
            if min(g.red_degree(v), blue_degree(g, v)) >= math.ceil(n / 4 - 1)
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
        checks = ["finish", "greedy", "greedy blocks", "large-degree set", "sign verdict",
                  "partial sequence", "crossing epsilon", "bound report"]
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
        assert list(anchor.mapping) == [0, 1]
        sd = [g.signed_degree(x) for x in range(n)]
        # hub 0 takes the lowest-index host of least |sd|; hub 1 the host that
        # cancels it, the lowest-index one of that |sd|
        assert anchor[0] == min(range(n), key=lambda x: (abs(sd[x]), x)) == 0 and sd[0] == 1
        assert sd[anchor[1]] == -1 and anchor[1] == min(x for x in range(n) if sd[x] == -1)

    @pytest.mark.parametrize("n, colouring", [(64, "random"), (128, "random"), (129, "perturbed"), (128, "split")])
    def test_hosts_match_the_scalar_rule(self, n, colouring):
        # every vertex of L, in descending degree, takes the free host x of least
        # (|running + deg * sd(x)|, |sd(x)|, x), with running summed in exact integers
        g = {"random": lambda: random_balanced_colouring(n, n),
             "perturbed": lambda: perturbed_colouring(PerturbedParams.for_ratio(n, Fraction(1, 10))),
             "split": lambda: split_parity_colouring(n)}[colouring]()
        for hubs in (1, 2, 3):
            forest = spider(n, hubs)
            anchor = large_degree_anchor(forest, g, BoundReport.compute(n, forest.max_degree))
            sd = [g.signed_degree(x) for x in range(n)]
            running, expected = 0, {}
            for v in sorted(anchor.mapping, key=lambda v: (-forest.degree[v], v)):
                d = forest.degree[v]
                x = min((x for x in range(n) if x not in expected.values()),
                        key=lambda x: (abs(running + d * sd[x]), abs(sd[x]), x))
                expected[v], running = x, running + d * sd[x]
            assert list(anchor.mapping.items()) == list(expected.items()), hubs

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
            if not result.certified_value <= result.bound_report.refined:
                failures.append((n, name, result.certified, result.certified_value))
        assert failures == []


def _split_parity_cases(n):
    for d in (n // 2, 3 * n // 4, n - 3):
        yield f"broom{d}", make_forest(ForestSpec("broom", n, d))
    for k in (n // 2, 3 * n // 4):
        yield f"double-star{k}", double_star(n, k)
    for hubs in (2, 3, 4, 6):
        yield f"spider{hubs}", spider(n, hubs)


class TestHubSplit:
    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_split_parity_certifies_the_refined_bound(self, n):
        # the paper's extremal colouring: the anchored mean lies far from 0 on
        # about half of these, and the pinned search's certificate still proves the refined bound
        g = split_parity_colouring(n)
        failures = []
        for name, forest in _split_parity_cases(n):
            result = solve(forest, g, SolverConfig(seed=0))
            assert result.certified in (CERT_INTERPOLATION, CERT_HUB_SPLIT), name
            if not (result.certified_value <= result.bound_report.refined
                    and fits(result.achieved, result.certified_value)):
                failures.append((name, result.certified, result.achieved, result.certified_value))
        assert failures == []

    def test_pinned_star_splits_its_leaves_nearest_zero(self):
        # with its centre on host 3, a star's 8 leaves (7 vertices isolated)
        # go k onto red and 8 - k onto blue neighbours of the host; the other
        # edges are none, so the pinned map's mean is its sum 2k - 8, nearest 0
        g = random_balanced_colouring(16, 2)
        star = Forest(16, [(0, v) for v in range(1, 9)])
        pinned = pin_hub_leaves(star, g, PartialEmbedding({0: 3}))
        red, blue = g.red_neighbours(3), g.blue_neighbours(3)
        k = min(range(max(0, 8 - len(blue)), min(8, len(red)) + 1), key=lambda k: abs(2 * k - 8))
        assert list(pinned.mapping) == list(range(9))
        assert sum(pinned[v] in red for v in range(1, 9)) == k
        assert anchored_mean(star, g, pinned) == 2 * k - 8

    def test_pins_take_the_least_mean_over_both_orders_and_every_k(self):
        # a scalar replay of the rule with anchored_mean on each candidate map
        for n, g in ((33, perturbed_colouring(PerturbedParams.for_ratio(33, Fraction(1, 10)))),
                     (64, split_parity_colouring(64)), (65, random_balanced_colouring(65, 2))):
            for forest in (make_forest(ForestSpec("broom", n, 3 * n // 4)), spider(n, 2), double_star(n, n // 2 + 7)):
                anchor = large_degree_anchor(forest, g, BoundReport.compute(n, forest.max_degree))
                fwd = dict(anchor.mapping)
                for v, x in anchor.mapping.items():
                    leaves = [u for u in forest.neighbours[v] if u not in fwd]
                    d, used = len(leaves), set(fwd.values())
                    red = [t for t in g.red_neighbours(x) if t not in used]
                    blue = [t for t in g.blue_neighbours(x) if t not in used]
                    best = None
                    for sign in (-1, 1):
                        def by_sd(hosts):
                            return sorted(hosts, key=lambda t: (sign * g.signed_degree(t), t))
                        for k in range(max(0, d - len(blue)), min(d, len(red)) + 1):
                            trial = {**fwd, **dict(zip(leaves, by_sd(red)[:k] + by_sd(blue)[: d - k]))}
                            mean = abs(anchored_mean(forest, g, PartialEmbedding(trial)))
                            if best is None or mean < best[0]:
                                best = mean, trial
                    fwd = best[1] if best else fwd
                assert pin_hub_leaves(forest, g, anchor) == PartialEmbedding(fwd), (n, forest)

    def test_hubs_are_pinned_in_descending_degree(self):
        # four hubs 0-1-2-3 on a path, every other vertex a leaf of hub v % 4:
        # degrees 64, 65, 65, 64, so the anchor and the leaf pins take hubs 1, 2, 0, 3
        n = 256
        spider = Forest(n, [(0, 1), (1, 2), (2, 3), *((v % 4, v) for v in range(4, n))])
        g = perturbed_colouring(PerturbedParams.for_ratio(n, Fraction(1, 10)))
        anchor = large_degree_anchor(spider, g, BoundReport.compute(n, spider.max_degree))
        assert list(anchor.mapping) == [1, 2, 0, 3]
        pinned = list(pin_hub_leaves(spider, g, anchor).mapping)
        assert pinned == [1, 2, 0, 3, *range(5, n, 4), *range(6, n, 4), *range(4, n, 4), *range(7, n, 4)]
        # the hosts' degree-weighted signed degrees cancel to a mean of -2, so
        # nothing is pinned and the search's first block already meets 0
        assert anchored_mean(spider, g, anchor) == -2
        result = solve(spider, g, SolverConfig(seed=0))
        assert result.certified == CERT_INTERPOLATION
        assert result.achieved == 1 and result.certified_value == 2.0

    def test_pair_straddles_its_centre(self):
        # the hub's anchored mean is -491/21, far beyond the leaves' degree 1
        # plus 1, so its leaves are pinned; the centre lies between 0 and the
        # pinned map's mean truncated toward 0
        g = split_parity_colouring(64)
        forest = make_forest(ForestSpec("broom", 64, 48))
        anchor = large_degree_anchor(forest, g, BoundReport.compute(64, 48))
        assert anchored_mean(forest, g, anchor) == Fraction(-491, 21)
        stats = {}
        pair = find_signed_pair(forest, g, anchor, random.Random(1), stats)
        target = int(anchored_mean(forest, g, pin_hub_leaves(forest, g, anchor)))
        assert stats["hub_split"]
        assert min(0, target) <= pair.centre <= max(0, target)
        assert pair.h_neg.colour_sum <= pair.centre <= pair.h_pos.colour_sum
        assert all(pair.h_neg.forward[v] == pair.h_pos.forward[v] == t for v, t in anchor.mapping.items())
        assert all(pair.h_neg.forward[v] == pair.h_pos.forward[v] for v in forest.neighbours[0])
        for emb in (pair.h_neg, pair.h_pos):
            assert subgraph_sum(g, emb, forest) == emb.colour_sum


    @pytest.mark.parametrize("budget, split", [(1, False), (4, False), (5, True)])
    def test_a_first_block_that_spends_the_budget_pins_nothing(self, budget, split):
        # the first block holds 4 samples; pinning needs a sample left to draw after it
        g = split_parity_colouring(64)
        forest = make_forest(ForestSpec("broom", 64, 48))
        anchor = large_degree_anchor(forest, g, BoundReport.compute(64, 48))
        stats = {}
        pair = find_signed_pair(forest, g, anchor, random.Random(1), stats, budget)
        assert stats == {"samples_drawn": budget, "hub_split": split}
        assert pair.h_neg.colour_sum <= pair.centre <= pair.h_pos.colour_sum


class TestAnchoredMean:
    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_matches_the_mean_over_every_extension(self, n):
        # balanced and unbalanced colourings; maps that leave 1-4 hosts free
        # (1 and 2 free hosts give the free-free term's C(k, 2) its edge cases)
        rng = random.Random(n)
        colourings = [random_balanced_colouring(n, n) if n % 4 in (0, 1) else split_parity_colouring(4),
                      perturbed_colouring(PerturbedParams.for_ratio(max(n, 8), Fraction(1, 10)))]
        red = np.triu(np.random.default_rng(n).random((n, n)) < 0.8, 1)
        colourings = [g for g in colourings if g.n == n] + [ColouredCompleteGraph.from_red_matrix(red | red.T)]
        assert {is_balanced(g) for g in colourings} == ({True, False} if n in (5, 8) else {False})
        for g in colourings:
            for forest in (make_forest(ForestSpec("path", n)), make_forest(ForestSpec("random", n, 3, seed=n)),
                           Forest(n, [(0, v) for v in range(1, n - 2)])):
                for free in (1, 2, 3, 4):
                    vs, hosts = rng.sample(range(n), n - free), rng.sample(range(n), n - free)
                    anchor = PartialEmbedding(dict(zip(vs, hosts)))
                    free_vs = [v for v in range(n) if v not in anchor]
                    sums = []
                    for image in itertools.permutations(sorted(set(range(n)) - set(hosts))):
                        fwd = [0] * n
                        for v, t in [*anchor.mapping.items(), *zip(free_vs, image)]:
                            fwd[v] = t
                        sums.append(Embedding.build(fwd, forest, g).colour_sum)
                    assert anchored_mean(forest, g, anchor) == Fraction(sum(sums), len(sums)), (free, forest)

    def test_unanchored_mean_is_the_edge_share_of_the_total(self):
        # no anchor: every edge's expected colour is total / C(n, 2)
        for n, g in ((8, random_balanced_colouring(8, 1)), (9, all_red(9))):
            forest = make_forest(ForestSpec("random", n, 3, seed=2))
            expected = Fraction(forest.edge_count * g.total_sum(), n * (n - 1) // 2)
            assert anchored_mean(forest, g, None) == anchored_mean(forest, g, PartialEmbedding({})) == expected


class TestBalancedFixtures:
    def test_split_parity_caterpillar_certifies_the_refined_bound(self):
        # split_parity_colouring(64) with red edges (2, 38), (32, 35), (41, 46),
        # (53, 58) turned blue and blue edges (5, 31), (7, 13), (10, 12), (25, 26)
        # turned red: still balanced.  The caterpillar's two hubs of degree 32
        # once both sat on hosts of signed degree -29, and every anchored
        # extension then summed into [-31, -27]: certified 30 against 25
        g = parse_colouring((DATA / "split_parity_64_eight_flips.colouring").read_text())
        forest = parse_forest((DATA / "caterpillar_64.forest").read_text())
        assert is_balanced(g) and sorted(forest.degree)[-2:] == [32, 32]
        for seed in range(4):
            result = solve(forest, g, SolverConfig(seed=seed))
            assert result.bound_report.refined == 25.0
            assert result.certified_value <= result.bound_report.refined, seed
            assert fits(result.achieved, result.certified_value)
