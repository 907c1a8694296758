import random
import time
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from forestbalance.core import (
    BLUE,
    RED,
    ColouredCompleteGraph,
    InvalidInputError,
    ParityError,
    is_balanced,
    r_balanced_vertices,
)
from forestbalance import generators
from forestbalance.generators import (
    ForestSpec,
    PerturbedParams,
    choose_density_ratio,
    degree_interval,
    density_interval,
    make_forest,
    perturbed_colouring,
    perturbed_red_count,
    random_balanced_colouring,
    split_parity_colouring,
)

# the cases pinned before the generator ran only the red-deciding half of the shuffle
_PINNED_SHUFFLE_CASES = [(4, 0), (5, 3), (8, 11), (9, 123), (16, 7), (17, 2), (32, 5)]
# n = 0 and 1 (mod 4) up to 256, seeds 0-4, and two sizes of the benchmark's on numpy's route
_SHUFFLE_CASES = _PINNED_SHUFFLE_CASES + [
    case
    for case in product((4, 5, 8, 9, 12, 13, 16, 17, 32, 33, 64, 65, 128, 129, 256), range(5))
    if case not in _PINNED_SHUFFLE_CASES
] + [(512, 0), (513, 1)]
# seeds of every kind random.Random takes: negative, at least 2^32, str
_KERNEL_SEEDS = (0, 7, -5, 2**32 + 3, 10**12, "abc")


def mod_to_one_based(value: int, y: int) -> int:
    """The representative of value mod y within {1, ..., y}."""
    r = value % y
    return y if r == 0 else r


def reference_red_count(params: PerturbedParams) -> int:
    """perturbed_red_count by counting every cross pair, one at a time."""
    x = params.d.numerator
    y = params.d.denominator
    size_a = len(params.part_a)
    size_b = len(params.part_b)
    cross = sum(
        1
        for i in range(1, size_a + 1)
        for j in range(1, size_b + 1)
        if mod_to_one_based(i + j, y) <= x
    )
    return size_b * (size_b - 1) // 2 + cross


def reference_random_forest(n: int, cap: int, seed: int) -> list[tuple[int, int]]:
    """make_forest's random kind, rebuilding the list of vertices below the cap for every v."""
    rng = random.Random(seed)
    degree = [0] * n
    edges = []
    for v in range(1, n):
        if rng.random() >= 0.9:
            continue
        eligible = [u for u in range(v) if degree[u] < cap]
        if not eligible:
            continue
        u = rng.choice(eligible)
        edges.append((u, v))
        degree[u] += 1
        degree[v] += 1
    return sorted(edges)


class TestRandomBalanced:
    def test_half_red_at_n4(self):
        g = random_balanced_colouring(4, 0)
        assert g.red_edge_count == 3
        assert is_balanced(g)

    def test_parity_error_names_requirement(self):
        with pytest.raises(ParityError, match=r"0 or 1 \(mod 4\)"):
            random_balanced_colouring(6, 0)

    def test_deterministic_per_seed(self):
        a = random_balanced_colouring(9, 123)
        b = random_balanced_colouring(9, 123)
        c = random_balanced_colouring(9, 124)
        assert a == b
        assert a != c
        assert is_balanced(a)

    @pytest.mark.parametrize("n,seed", _SHUFFLE_CASES)
    def test_matches_edge_shuffle_reference(self, n, seed):
        # reference construction: shuffle the edge tuples, paint the first half red
        rng = random.Random(seed)
        edges = [(i, j) for i in range(1, n) for j in range(i)]
        rng.shuffle(edges)
        red = np.zeros((n, n), dtype=bool)
        for i, j in edges[: len(edges) // 2]:
            red[i, j] = red[j, i] = True
        expected = ColouredCompleteGraph.from_red_matrix(red)
        assert random_balanced_colouring(n, seed) == expected

    @pytest.mark.parametrize("n", [4, 5, 8, 9, 12, 13, 16, 17])
    def test_balanced_for_valid_n(self, n):
        assert is_balanced(random_balanced_colouring(n, 7))

    @pytest.mark.parametrize("k", range(1, 33))
    def test_randbytes_words_are_the_getrandbits_draws(self, k):
        # the numpy route reads getrandbits(k) as randbytes' little-endian uint32 words >> (32 - k)
        a, b = random.Random(11), random.Random(11)
        draws = [a.getrandbits(k) for _ in range(64)]
        words = np.frombuffer(b.randbytes(4 * 64), dtype="<u4") >> (32 - k)
        assert words.tolist() == draws
        assert a.getrandbits(32) == b.getrandbits(32)  # both streams stand at the same word

    @pytest.mark.parametrize("n", [n for n in range(4, 66) if n % 4 in (0, 1)])
    def test_numpy_route_matches_the_loop(self, n):
        npairs = n * (n - 1) // 2
        for seed in _KERNEL_SEEDS:
            loop = generators._shuffle_signs_loop(npairs, seed)
            signs = generators._shuffle_signs_numpy(npairs, seed)
            assert signs.dtype == np.int8 and np.array_equal(signs, loop), seed
            assert (signs == RED).sum() == npairs // 2

    @pytest.mark.parametrize("n, route", [(9, "loop"), (64, "loop"), (128, "loop"), (129, "numpy"),
                                          (256, "numpy")])
    def test_route_by_pair_count(self, n, route, monkeypatch):
        taken = []
        for name in ("loop", "numpy"):
            fn = getattr(generators, f"_shuffle_signs_{name}")
            monkeypatch.setattr(generators, f"_shuffle_signs_{name}",
                                lambda npairs, seed, name=name, fn=fn: taken.append(name) or fn(npairs, seed))
        assert (n * (n - 1) // 2 >= generators._NUMPY_PAIRS) == (route == "numpy")
        assert is_balanced(random_balanced_colouring(n, 3))
        assert taken == [route]

    def test_refuses_2_to_the_32_pairs_before_allocating(self):
        # BEHAVIOUR CHANGE: K_92684 has 4,295,115,586 >= 2^32 pairs, past what one 32-bit word numbers
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(InvalidInputError, match="^K_92684 has 4295115586 edges; .* fewer than 2\\^32$"):
                random_balanced_colouring(92684, 0)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20 and elapsed < 0.1


class TestSplitParity:
    def test_n8_is_balanced_with_14_red(self):
        g = split_parity_colouring(8)
        assert is_balanced(g)
        assert g.red_edge_count == 14

    def test_every_vertex_skew_is_half_n_minus_1(self):
        g = split_parity_colouring(8)
        for v in range(8):
            assert abs(g.signed_degree(v)) == 3

    def test_every_vertex_is_quarter_balanced_at_n8(self):
        g = split_parity_colouring(8)
        assert all(min(g.red_degree(v), 7 - g.red_degree(v)) == 2 for v in range(8))
        assert r_balanced_vertices(g, 2) == list(range(8))
        assert r_balanced_vertices(g, 3) == []

    def test_first_class_edges_are_blue(self):
        for n in (4, 8, 12):
            g = split_parity_colouring(n)
            half = n // 2
            for i in range(half):
                for j in range(i):
                    assert g.matrix[i, j] == BLUE
                    assert g.matrix[half + i, half + j] == RED

    def test_cross_rule(self):
        n = 8
        g = split_parity_colouring(n)
        for i in range(4):
            for j in range(4):
                expected = BLUE if ((i + 1) + (j + 1)) % 2 == 1 else RED
                assert g.matrix[i, 4 + j] == expected

    @pytest.mark.parametrize("n", list(range(4, 65, 4)))
    def test_balanced_up_to_64(self, n):
        assert is_balanced(split_parity_colouring(n))

    def test_rejects_bad_n(self):
        with pytest.raises(InvalidInputError):
            split_parity_colouring(10)


class TestDensityRatio:
    def test_epsilon_one_tenth_gives_two_fifths(self):
        assert choose_density_ratio(Fraction(1, 10)) == Fraction(2, 5)

    def test_interval_endpoints_at_one_tenth(self):
        lo, hi = degree_interval(Fraction(1, 10))
        assert lo == Fraction(31, 80)
        assert hi == Fraction(49, 120)

    @pytest.mark.parametrize("k", range(1, 50))
    def test_strictly_admissible_on_grid(self, k):
        eps = Fraction(k, 100)
        d = choose_density_ratio(eps)
        lo1, hi1 = degree_interval(eps)
        lo2, hi2 = density_interval(eps)
        assert lo1 < d < hi1
        assert lo2 < d < hi2

    @pytest.mark.parametrize("eps", [Fraction(1, 10), Fraction(1, 4), Fraction(3, 10)])
    def test_no_smaller_denominator_is_admissible(self, eps):
        d = choose_density_ratio(eps)
        lo1, hi1 = degree_interval(eps)
        lo2, hi2 = density_interval(eps)
        for q in range(1, d.denominator):
            for p in range(1, q):
                cand = Fraction(p, q)
                assert not (lo1 < cand < hi1 and lo2 < cand < hi2)

    def test_rejects_out_of_range_epsilon(self):
        with pytest.raises(InvalidInputError):
            choose_density_ratio(Fraction(1, 2))


class TestPerturbed:
    def test_mod_to_one_based(self):
        assert mod_to_one_based(5, 5) == 5
        assert mod_to_one_based(6, 5) == 1
        assert [mod_to_one_based(k, 3) for k in (1, 2, 3, 4)] == [1, 2, 3, 1]

    def test_red_count_matches_closed_form(self):
        params = PerturbedParams.for_ratio(50, Fraction(1, 10))
        g = perturbed_colouring(params)
        assert g.red_edge_count == perturbed_red_count(params)

    @pytest.mark.parametrize("k", [1, 5, 10, 17, 25, 33, 40, 49])
    def test_red_count_matches_pairwise_count(self, k):
        eps = Fraction(k, 100)
        for n in (3, 7, 20, 51, 100, 333):
            if (Fraction(1, 2) - eps) * n >= 1:  # otherwise A would be empty
                params = PerturbedParams.for_ratio(n, eps)
                assert perturbed_red_count(params) == reference_red_count(params), n
        # a ratio outside the admissible window, with a residue class wider than one
        params = PerturbedParams(90, eps, Fraction(4, 5), range(0, 37), range(37, 90))
        assert perturbed_red_count(params) == reference_red_count(params)

    def test_block_colours(self):
        params = PerturbedParams.for_ratio(20, Fraction(1, 10))
        g = perturbed_colouring(params)
        a = len(params.part_a)
        assert all(
            g.matrix[i, j] == BLUE for i in range(a) for j in range(i)
        )
        assert all(
            g.matrix[i, j] == RED
            for i in range(a, 20)
            for j in range(a, i)
        )

    def test_near_full_ratio_boundary_rule(self):
        # d = 4/5 is outside the admissible window but the modular rule must
        # still apply: all cross edges red except residue y
        params = PerturbedParams(10, Fraction(1, 10), Fraction(4, 5), range(0, 4), range(4, 10))
        g = perturbed_colouring(params)
        for i in range(4):
            for j in range(6):
                expected = BLUE if mod_to_one_based((i + 1) + (j + 1), 5) == 5 else RED
                assert g.matrix[i, 4 + j] == expected

    def test_density_and_degree_split_midsize(self):
        n = 200
        eps = Fraction(1, 10)
        params = PerturbedParams.for_ratio(n, eps, Fraction(2, 5))
        g = perturbed_colouring(params)
        density = g.red_edge_count / g.edge_count
        assert 0.4 <= density <= 0.6
        c = 4
        hi = (0.75 + 0.005) * n - c
        lo = (0.25 - 0.005) * n + c
        for v in range(n):
            assert g.red_degree(v) >= hi or g.red_degree(v) <= lo

    def test_for_ratio_rejects_inadmissible_d(self):
        with pytest.raises(InvalidInputError):
            PerturbedParams.for_ratio(100, Fraction(1, 10), Fraction(4, 5))

    def test_constructor_rejects_bad_parts(self):
        with pytest.raises(InvalidInputError):
            PerturbedParams(10, Fraction(1, 10), Fraction(2, 5), range(0, 4), range(5, 10))
        with pytest.raises(InvalidInputError):
            PerturbedParams(10, Fraction(1, 10), Fraction(0, 5), range(0, 4), range(4, 10))


class TestMakeForest:
    def test_star(self):
        f = make_forest(ForestSpec("star", 8))
        assert f.max_degree == 7 and f.edge_count == 7

    def test_star_with_wrong_degree_rejected(self):
        with pytest.raises(InvalidInputError):
            make_forest(ForestSpec("star", 8, max_degree=5))

    def test_path(self):
        f = make_forest(ForestSpec("path", 5))
        assert f.max_degree == 2 and f.min_degree == 1 and f.edge_count == 4

    def test_broom(self):
        f = make_forest(ForestSpec("broom", 12, max_degree=7))
        assert f.max_degree == 7
        assert f.edge_count == 11  # spanning tree
        assert f.degree[0] == 7

    def test_broom_is_star_at_full_degree(self):
        assert make_forest(ForestSpec("broom", 6, max_degree=5)) == make_forest(
            ForestSpec("star", 6)
        )

    def test_broom_needs_degree(self):
        with pytest.raises(InvalidInputError):
            make_forest(ForestSpec("broom", 6))

    def test_random_respects_cap_and_seed(self):
        a = make_forest(ForestSpec("random", 20, max_degree=5, seed=3))
        b = make_forest(ForestSpec("random", 20, max_degree=5, seed=3))
        c = make_forest(ForestSpec("random", 20, max_degree=5, seed=4))
        assert a == b
        assert a != c
        assert a.max_degree <= 5

    @pytest.mark.parametrize("n", range(1, 65))
    def test_random_matches_per_vertex_rebuild(self, n):
        for cap in sorted({1, 2, 3, n // 8, n - 1} - {0}):
            for seed in range(6):
                forest = make_forest(ForestSpec("random", n, max_degree=cap, seed=seed))
                assert list(forest.edges) == reference_random_forest(n, cap, seed), (cap, seed)

    def test_random_cap_respected_over_many_seeds(self):
        for seed in range(50):
            f = make_forest(ForestSpec("random", 15, max_degree=3, seed=seed))
            assert f.max_degree <= 3

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidInputError):
            ForestSpec("cycle", 5)
