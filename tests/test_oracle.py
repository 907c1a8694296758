import math
import random
import tracemalloc
from functools import cache
from itertools import chain, count, islice, permutations

import numpy as np
import pytest

from forestbalance import oracle
from forestbalance.core import (
    RED,
    ColouredCompleteGraph,
    Forest,
    PartialEmbedding,
    subgraph_sum,
)
from forestbalance.generators import (
    ForestSpec,
    make_forest,
    random_balanced_colouring,
    split_parity_colouring,
)
from forestbalance.oracle import (
    BudgetExceededError,
    exact_min_imbalance,
    exact_sign,
    imbalance_floor,
    is_sign_fixing,
)
from forestbalance.core import CertificateError, PreconditionError


def all_red(n):
    return ColouredCompleteGraph.from_red_matrix(np.ones((n, n), dtype=bool))


def random_colouring(n, seed, red=0.5):
    """Each pair (i, j), i > j, red with probability ``red``, drawn in the order (1, 0), (2, 0), (2, 1), ..."""
    rng = random.Random(seed)
    lower = np.array([[j < i and rng.random() < red for j in range(n)] for i in range(n)])
    return ColouredCompleteGraph.from_red_matrix(lower | lower.T)


def biased_colouring(n, seed, red=0.85):
    return random_colouring(n, seed, red)


def scalar_sum(rows, forest, fwd):
    return sum(rows[fwd[u]][fwd[v]] for u, v in forest.edges)


def brute_min(forest, graph):
    """Independent scalar scan of every permutation, no early exit.

    Returns the minimum |sum| and the first permutation in lexicographic
    order that reaches it.
    """
    rows = graph.matrix.tolist()
    best = best_perm = None
    for perm in permutations(range(forest.n)):
        s = abs(scalar_sum(rows, forest, perm))
        if best is None or s < best:
            best, best_perm = s, perm
    return best, best_perm


def brute_sign(forest, graph, partial):
    """Independent scalar scan of every extension of partial.

    Free vertices in ascending order take the free targets in the order of
    itertools.permutations.  Returns (min, max, first argmin map, first
    argmax map, number of extensions).
    """
    rows = graph.matrix.tolist()
    free_vs = [v for v in range(forest.n) if v not in partial]
    free_ts = sorted(set(range(forest.n)) - partial.image())
    lo = hi = None
    count = 0
    for assignment in permutations(free_ts):
        fwd = dict(partial.mapping)
        fwd.update(zip(free_vs, assignment))
        fwd = tuple(fwd[v] for v in range(forest.n))
        s = scalar_sum(rows, forest, fwd)
        count += 1
        if lo is None or s < lo[0]:
            lo = (s, fwd)
        if hi is None or s > hi[0]:
            hi = (s, fwd)
    return lo[0], hi[0], lo[1], hi[1], count


def forest_of(kind, n):
    if kind == "random":
        return make_forest(ForestSpec("random", n, max_degree=3, seed=n))
    if kind == "relabelled-path":
        # a path whose ends are not its lowest and highest vertices
        order = list(range(n))
        random.Random(n).shuffle(order)
        return Forest(n, list(zip(order, order[1:])))
    return make_forest(ForestSpec(kind, n))


def partials(n):
    """Partial maps with 0, 1, 2 and n - 1 fixed vertices."""
    # v -> k * v + 1 is a bijection mod n for any k coprime to n; 5 unless 5 divides n
    k = next(k for k in count(5) if math.gcd(k, n) == 1)
    return [
        {},
        {0: n - 1},
        {1: 0, n - 1: 2},
        {v: (k * v + 1) % n for v in range(n - 1)},
    ]


def count_chunks(monkeypatch):
    """Route oracle._extensions through a wrapper; the returned list gets each yielded chunk's row count."""
    yielded = []
    real = oracle._extensions

    def counting(*args):
        for order, slots, sums in real(*args):
            yielded.append(len(sums))
            yield order, slots, sums

    monkeypatch.setattr(oracle, "_extensions", counting)
    return yielded


def chunk_images(order, tails):
    """Every row's free images in an oracle._extensions chunk, as a (rows, free) array."""
    lead = len(order) - tails.shape[1]
    return np.hstack([np.broadcast_to(order[:lead], (len(tails), lead)), order[lead:][tails]])


class TestExactMinImbalance:
    def test_star_in_split_parity(self):
        g = split_parity_colouring(8)
        star = make_forest(ForestSpec("star", 8))
        value, witness = exact_min_imbalance(star, g)
        assert value == 3
        assert abs(subgraph_sum(g, witness, star)) == 3

    def test_edgeless_is_zero(self):
        g = random_colouring(6, 1)
        value, _ = exact_min_imbalance(Forest(6, []), g)
        assert value == 0

    def test_p4_is_odd_and_positive(self):
        for seed in range(10):
            g = random_colouring(4, seed)
            value, _ = exact_min_imbalance(make_forest(ForestSpec("path", 4)), g)
            assert value % 2 == 1 and value >= 1

    @pytest.mark.parametrize("kind", ["star", "path", "random"])
    def test_matches_independent_brute_force_at_n6(self, kind):
        for seed in range(8):
            g = random_colouring(6, 100 + seed)
            if kind == "random":
                forest = make_forest(ForestSpec("random", 6, max_degree=3, seed=seed))
            else:
                forest = make_forest(ForestSpec(kind, 6))
            value, witness = exact_min_imbalance(forest, g)
            assert value == brute_min(forest, g)[0]
            assert abs(subgraph_sum(g, witness, forest)) == value

    @pytest.mark.parametrize("n", [6, 7, 8])
    @pytest.mark.parametrize("kind", ["path", "star", "random", "relabelled-path"])
    def test_witness_is_first_lexicographic_optimum(self, kind, n):
        forest = forest_of(kind, n)
        for g in (random_colouring(n, 300 + n), biased_colouring(n, 400 + n)):
            value, witness = exact_min_imbalance(forest, g)
            assert (value, witness.forward) == brute_min(forest, g)
            assert witness.colour_sum == subgraph_sum(g, witness, forest)

    def test_parity_floor_stops_the_scan_inside_a_later_chunk(self, monkeypatch):
        # Target 0 is all red, so with the broom's hub (5 of the 8 edges) on
        # it the sum is at least 2: the first zero sum lies past the first
        # lead prefix, at a row in the middle of its chunk, and the scan
        # reads no row past that chunk.
        n = 9
        forest = make_forest(ForestSpec("broom", n, max_degree=5))
        g = random_colouring(n, 7)
        assert (g.matrix[0, 1:] == RED).all()
        rows = g.matrix.tolist()
        first = next(p for p in permutations(range(n)) if scalar_sum(rows, forest, p) == 0)
        images, sums = canonical_reference(forest, g, {})
        rank = int(np.flatnonzero(sums == 0)[0])
        assert tuple(images[rank].tolist()) == first

        yielded = count_chunks(monkeypatch)
        value, witness = exact_min_imbalance(forest, g)
        assert value == 0 and witness.forward == first
        start = sum(yielded[:-1])
        assert len(sums) // n <= start < rank < start + yielded[-1] - 1
        assert sum(yielded) < len(sums)

    def test_refuses_large_n(self):
        g = random_colouring(11, 2)
        forest = make_forest(ForestSpec("path", 11))
        with pytest.raises(BudgetExceededError, match="^39916800 extensions exceed the budget of 3628800$"):
            exact_min_imbalance(forest, g)
        with pytest.raises(BudgetExceededError, match="^120 extensions exceed the budget of 119$"):
            exact_min_imbalance(make_forest(ForestSpec("path", 5)), random_colouring(5, 2), budget=119)

    def test_star_bypasses_guard(self):
        g = split_parity_colouring(16)
        star = make_forest(ForestSpec("star", 16))
        value, _ = exact_min_imbalance(star, g, budget=1)
        assert value == 7

    @pytest.mark.parametrize("n", range(3, 10))
    def test_star_with_isolated_vertices_matches_enumeration(self, n):
        # budget=1 forbids enumeration: the closed form must answer every d < n - 1, d = 0 included
        perms = np.array(list(permutations(range(n))), dtype=np.intp)
        for k, g in enumerate((random_colouring(n, 500 + n), biased_colouring(n, 600 + n))):
            rng = random.Random(700 + 10 * n + k)
            for d in range(n - 1):
                centre = rng.randrange(n)
                leaves = rng.sample([v for v in range(n) if v != centre], d)
                forest = Forest(n, [(centre, v) for v in leaves])
                sums = sum(g.matrix[perms[:, centre], perms[:, v]].astype(np.int64) for v in leaves)
                value, witness = exact_min_imbalance(forest, g, budget=1)
                assert value == int(np.abs(sums).min()), (n, d)
                assert abs(witness.colour_sum) == abs(subgraph_sum(g, witness, forest)) == value

    def test_edgeless_forest_keeps_the_identity(self):
        value, witness = exact_min_imbalance(Forest(7, []), random_colouring(7, 3), budget=1)
        assert value == 0 and witness.forward == tuple(range(7))


def colour_count_range(forest, graph):
    """[m - 2 min(m, blue), m - 2 max(0, m - red)], with red and blue counted off the upper triangle."""
    m = forest.edge_count
    upper = graph.matrix[np.triu_indices(graph.n, 1)]
    red, blue = int((upper == RED).sum()), int((upper != RED).sum())
    return m - 2 * min(m, blue), m - 2 * max(0, m - red)


def one_blue(n):
    red = np.ones((n, n), dtype=bool)
    red[0, 1] = red[1, 0] = False
    return ColouredCompleteGraph.from_red_matrix(red)


class TestImbalanceFloor:
    @staticmethod
    def check(forest, g):
        floor = imbalance_floor(forest, g)
        value, _ = exact_min_imbalance(forest, g)
        assert floor <= value
        assert floor % 2 == forest.edge_count % 2
        low, high = colour_count_range(forest, g)
        assert floor >= max(low, -high, forest.edge_count % 2)
        return floor, value

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    @pytest.mark.parametrize("kind", ["path", "star", "random", "relabelled-path"])
    def test_never_exceeds_the_optimum_on_random_colourings(self, kind, n):
        for seed in range(6):
            self.check(forest_of(kind, n), random_colouring(n, 2000 + 10 * n + seed))

    @pytest.mark.parametrize("p_red", [0.85, 0.9, 0.95, 0.99])
    def test_never_exceeds_the_optimum_on_biased_colourings(self, p_red):
        for n in (5, 6, 7, 8):
            for seed in range(4):
                g = biased_colouring(n, 2100 + 10 * n + seed, red=p_red)
                for kind in ("path", "random", "relabelled-path"):
                    self.check(forest_of(kind, n), g)

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_is_the_optimum_on_all_red_and_one_blue(self, n):
        # all red: every sum is m; one blue edge: the least sum m - 2 is reached
        for kind in ("path", "random", "relabelled-path"):
            forest = forest_of(kind, n)
            m = forest.edge_count
            assert self.check(forest, all_red(n)) == (m, m)
            assert self.check(forest, one_blue(n)) == (m - 2, m - 2)

    @pytest.mark.parametrize("delta", range(2, 8))
    def test_is_the_optimum_on_split_parity_brooms(self, delta):
        # every |sd| is 3, so the star floor 2*delta - 11 first passes parity at delta = 7
        forest = make_forest(ForestSpec("broom", 8, delta))
        floor, value = self.check(forest, split_parity_colouring(8))
        assert floor == value == (3 if delta == 7 else 1)

    def test_star_floor_ends_the_broom_scan_at_n12(self, monkeypatch):
        # |sd| = 5 everywhere and the delta = 10 hub misses one host edge: |sum| >= 5 - 1 - 1 = 3
        forest = make_forest(ForestSpec("broom", 12, 10))
        g = split_parity_colouring(12)
        assert imbalance_floor(forest, g) == 3
        yielded = count_chunks(monkeypatch)
        value, witness = exact_min_imbalance(forest, g, budget=math.factorial(12))
        assert value == abs(subgraph_sum(g, witness, forest)) == 3
        assert len(yielded) < 12 * 11 * 10 * 9

    def test_colour_count_floor_ends_the_min_scan_after_one_chunk(self, monkeypatch):
        # two blue edges: every sum of the 8 edges lies in [4, 8], and the
        # first chunk already reaches 4
        n = 9
        forest = forest_of("random", n)
        g = biased_colouring(n, 0, red=0.93)
        assert colour_count_range(forest, g) == (4, 8)
        maps, sums = numpy_extensions(forest, g, {})
        i = int(np.abs(sums).argmin())
        yielded = count_chunks(monkeypatch)
        value, witness = exact_min_imbalance(forest, g)
        assert (value, witness.forward) == (4, tuple(maps[i].tolist()))
        # the first block of the first lead prefix: 7! rows, not all 8! of the prefix
        assert len(yielded) == 1 and sum(yielded) <= math.factorial(7)

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_sign_extremes_lie_in_the_colour_count_range(self, n):
        for kind in ("path", "random", "star"):
            forest = forest_of(kind, n)
            for g in (random_colouring(n, 2200 + n), biased_colouring(n, 2300 + n, red=0.95), one_blue(n)):
                low, high = colour_count_range(forest, g)
                for mapping in partials(n):
                    v = exact_sign(forest, g, PartialEmbedding(mapping))
                    assert low <= v.min_sum <= v.max_sum <= high

    def test_sign_scan_ends_once_both_ends_of_the_range_are_reached(self, monkeypatch):
        # -8 and +8 have both appeared by the third lead prefix of nine; the
        # scan reads no row past the chunk that holds the later of the two
        n = 9
        forest = forest_of("random", n)
        g = random_colouring(n, 8)
        expected = numpy_verdict(forest, g, {})
        _, sums = canonical_reference(forest, g, {})
        last = max(int(np.flatnonzero(sums == -8)[0]), int(np.flatnonzero(sums == 8)[0]))
        assert last // (len(sums) // n) == 2
        yielded = count_chunks(monkeypatch)
        v = exact_sign(forest, g, PartialEmbedding({}))
        assert verdict_tuple(v) == expected
        assert (v.min_sum, v.max_sum) == (-8, 8)
        assert sum(yielded[:-1]) <= last < sum(yielded) < len(sums)


class TestExactSign:
    def test_full_embedding_is_degenerate(self):
        g = random_colouring(6, 3)
        forest = make_forest(ForestSpec("path", 6))
        partial = PartialEmbedding({v: v for v in range(6)})
        verdict = exact_sign(forest, g, partial)
        s = subgraph_sum(g, _full_embedding(partial, forest, g), forest)
        assert verdict.min_sum == verdict.max_sum == s
        assert verdict.extensions == 1

    def test_all_red_is_red(self):
        g = all_red(5)
        forest = make_forest(ForestSpec("path", 5))
        verdict = exact_sign(forest, g, PartialEmbedding({}))
        assert verdict.is_red and not verdict.is_blue
        assert verdict.min_sum == forest.edge_count

    def test_empty_partial_on_balanced_is_mixed(self):
        g = random_balanced_colouring(8, 5)
        forest = make_forest(ForestSpec("path", 8))
        verdict = exact_sign(forest, g, PartialEmbedding({}), budget=50_000)
        assert verdict.kind == "mixed"
        assert verdict.min_sum < 0 < verdict.max_sum
        assert subgraph_sum(g, verdict.min_witness, forest) == verdict.min_sum
        assert subgraph_sum(g, verdict.max_witness, forest) == verdict.max_sum

    def test_negation_duality(self):
        g = random_colouring(6, 9)
        forest = make_forest(ForestSpec("random", 6, max_degree=3, seed=4))
        a = exact_sign(forest, g, PartialEmbedding({}))
        b = exact_sign(forest, ColouredCompleteGraph.from_red_matrix(g.matrix < 0), PartialEmbedding({}))
        assert a.min_sum == -b.max_sum
        assert a.max_sum == -b.min_sum

    def test_budget_refusal(self):
        g = random_colouring(9, 2)
        forest = make_forest(ForestSpec("path", 9))
        with pytest.raises(BudgetExceededError):
            exact_sign(forest, g, PartialEmbedding({}), budget=1000)

    @pytest.mark.parametrize("n", [6, 7, 8])
    @pytest.mark.parametrize("kind", ["path", "star", "random"])
    def test_matches_scalar_reference(self, kind, n):
        forest = forest_of(kind, n)
        g = random_colouring(n, 500 + n)
        for mapping in partials(n):
            partial = PartialEmbedding(mapping)
            v = exact_sign(forest, g, partial)
            got = (v.min_sum, v.max_sum, v.min_witness.forward, v.max_witness.forward, v.extensions)
            assert got == brute_sign(forest, g, partial), mapping
            assert v.min_witness.colour_sum == v.min_sum
            assert v.max_witness.colour_sum == v.max_sum


# Leaves of one parent, and isolated vertices, are twins: swapping their
# images changes no sum.  Each forest keeps a twin group among its last 8
# free vertices under every partial of twin_partials.
TWIN_LEAF_FORESTS = {
    "broom-6": make_forest(ForestSpec("broom", 6, max_degree=4)),
    "broom-9": make_forest(ForestSpec("broom", 9, max_degree=5)),
    "spider-7": Forest(7, [(6, 0), (6, 4), (6, 5), (6, 1), (1, 2), (2, 3)]),
    "spider-8": Forest(8, [(3, 0), (3, 1), (3, 2), (3, 4), (4, 5), (3, 6), (6, 7)]),
    "caterpillar-9": Forest(9, [(0, 4), (4, 8), (0, 1), (0, 6), (4, 2), (4, 7), (8, 3), (8, 5)]),
    "caterpillar-10": Forest(10, [(2, 5), (5, 7), (2, 0), (2, 9), (5, 1), (5, 3), (5, 8), (7, 4), (7, 6)]),
    "isolated-7": Forest(7, [(3, 0), (3, 5), (5, 1), (5, 4)]),
    "isolated-8": Forest(8, [(0, 1), (1, 2), (3, 4), (3, 5)]),
    "isolated-10": Forest(10, [(4, 0), (4, 2), (4, 9), (1, 3), (3, 5)]),
}


def twin_groups(forest, free_vs):
    """Twin groups among the last _TAIL free vertices, as lists of indices into free_vs."""
    lead = max(len(free_vs) - oracle._TAIL, 0)
    groups = {}
    for j in range(lead, len(free_vs)):
        v = free_vs[j]
        if forest.degree[v] <= 1:
            groups.setdefault(forest.neighbours[v], []).append(j)
    return list(groups.values())


def twin_pairs(forest, free_vs):
    return [(a, b) for group in twin_groups(forest, free_vs) for a, b in zip(group, group[1:])]


def canonical_permutations(forest, fixed):
    """The free images of permutations(free targets) that are ascending on every tail twin group."""
    free_vs = [v for v in range(forest.n) if v not in fixed]
    pairs = twin_pairs(forest, free_vs)
    free_ts = sorted(set(range(forest.n)) - set(fixed.values()))
    return (p for p in permutations(free_ts) if all(p[a] < p[b] for a, b in pairs))


def twin_partials(forest):
    """0, 1 and 2 fixed vertices: a twin leaf, its parent, and both; no empty partial past n = 9."""
    n = forest.n
    leaf = next(v for v in range(n) if forest.degree[v] == 1
                and sum(forest.degree[u] == 1 for u in forest.neighbours[forest.neighbours[v][0]]) >= 2)
    parent = forest.neighbours[leaf][0]
    mappings = [{leaf: n - 1}, {parent: 0}, {parent: 1, leaf: n - 2}]
    return mappings if n > 9 else [{}, *mappings]


def canonical_reference(forest, graph, fixed):
    """The free images and sums of numpy_extensions' rows that are ascending on every tail twin group."""
    maps, sums = numpy_extensions(forest, graph, fixed)
    free_vs = [v for v in range(forest.n) if v not in fixed]
    keep = np.ones(len(maps), bool)
    for a, b in twin_pairs(forest, free_vs):
        keep &= maps[:, free_vs[a]] < maps[:, free_vs[b]]
    return maps[keep][:, free_vs], sums[keep]


class TestExtensionChunks:
    @pytest.mark.parametrize("fixed", [{}, {4: 7}, {0: 9, 5: 0}])
    def test_chunks_are_capped_and_continue_lexicographic_order(self, fixed):
        n = 10
        g = random_colouring(n, 11)
        rows = g.matrix.tolist()
        free_vs = [v for v in range(n) if v not in fixed]
        cap = math.factorial(oracle._TAIL)
        # the random tree has no twin tail leaves; the caterpillar has two or three groups.
        # Six chunks cross from the first lead prefix's blocks into whole later prefixes.
        for forest in (make_forest(ForestSpec("random", n, max_degree=3, seed=5)), TWIN_LEAF_FORESTS["caterpillar-10"]):
            expected = canonical_permutations(forest, fixed)
            for order, tails, sums in islice(oracle._extensions(forest, g, fixed), 6):
                images = chunk_images(order, tails)
                assert images.shape == (len(sums), len(free_vs))
                assert 0 < len(sums) <= cap
                assert np.array_equal(images, np.array(list(islice(expected, len(sums)))))
                for i in range(0, len(sums), 499):
                    assert oracle._free_images(order, tails, i).tolist() == images[i].tolist()
                    full = oracle._full_map(fixed, images[i])
                    assert [full[v] for v in fixed] == list(fixed.values())
                    assert [full[v] for v in free_vs] == images[i].tolist()
                    assert sums[i] == scalar_sum(rows, forest, full)

    @pytest.mark.parametrize(
        "forest, fixings",
        [
            *((forest, twin_partials(forest)) for forest in TWIN_LEAF_FORESTS.values() if 8 <= forest.n <= 10),
            (make_forest(ForestSpec("path", 9)), [{}, {0: 8}, {1: 0, 8: 2}]),
            (make_forest(ForestSpec("random", 10, max_degree=3, seed=5)), [{0: 9}, {1: 0, 9: 2}]),
        ],
        ids=[*(name for name, forest in TWIN_LEAF_FORESTS.items() if 8 <= forest.n <= 10), "path-9", "random-10"],
    )
    def test_first_prefix_blocks_double_and_match_the_numpy_reference(self, forest, fixings):
        # the first lead prefix comes in blocks of 7!, 2 * 7!, ... kept rows,
        # each later prefix as one chunk of all its kept rows; the path and
        # the random tree keep every table column
        n = forest.n
        g = biased_colouring(n, 1500 + n)
        for fixed in fixings:
            images, sums = canonical_reference(forest, g, fixed)
            free = n - len(fixed)
            w = min(free, oracle._TAIL)
            prefixes = math.perm(free, free - w)
            per_prefix = len(sums) // prefixes
            blocks, size = [], math.factorial(oracle._TAIL - 1)
            while sum(blocks) < per_prefix:
                blocks.append(min(size, per_prefix - sum(blocks)))
                size *= 2
            chunks = list(oracle._extensions(forest, g, fixed))
            assert [len(chunk_sums) for _, _, chunk_sums in chunks] == blocks + [per_prefix] * (prefixes - 1)
            start = 0
            for order, tails, chunk_sums in chunks:
                end = start + len(chunk_sums)
                assert np.array_equal(chunk_images(order, tails), images[start:end]), (fixed, start)
                assert np.array_equal(chunk_sums, sums[start:end]), (fixed, start)
                start = end


class TestTwinLeafOrbits:
    """One map per twin-leaf orbit: the same answers as a scan of every extension."""

    @pytest.mark.parametrize("name", TWIN_LEAF_FORESTS)
    def test_extensions_are_the_canonical_subsequence(self, name):
        forest = TWIN_LEAF_FORESTS[name]
        n = forest.n
        g = biased_colouring(n, 1000 + n)
        for fixed in twin_partials(forest):
            free_vs = [v for v in range(n) if v not in fixed]
            groups = twin_groups(forest, free_vs)
            assert max(map(len, groups)) >= 2, fixed
            images, sums = canonical_reference(forest, g, fixed)
            w = min(len(free_vs), oracle._TAIL)
            rows = math.factorial(w) // math.prod(math.factorial(len(group)) for group in groups)
            chunks = list(oracle._extensions(forest, g, fixed))
            lead_prefixes = math.perm(len(free_vs), len(free_vs) - w)
            assert sum(len(chunk_sums) for _, _, chunk_sums in chunks) == rows * lead_prefixes == len(sums)
            assert np.array_equal(np.concatenate([chunk_images(order, tails) for order, tails, _ in chunks]), images)
            assert np.array_equal(np.concatenate([chunk_sums for _, _, chunk_sums in chunks]), sums)

    @pytest.mark.parametrize("name", TWIN_LEAF_FORESTS)
    def test_exact_sign_matches_every_extension(self, name):
        forest = TWIN_LEAF_FORESTS[name]
        n = forest.n
        for g in (random_colouring(n, 1100 + n), biased_colouring(n, 1200 + n)):
            for fixed in twin_partials(forest):
                partial = PartialEmbedding(fixed)
                v = exact_sign(forest, g, partial)
                assert verdict_tuple(v) == numpy_verdict(forest, g, fixed), fixed
                assert v.extensions == math.factorial(n - len(fixed))
                if n <= 7:
                    assert verdict_tuple(v) == brute_sign(forest, g, partial), fixed

    @pytest.mark.parametrize("name", [name for name, forest in TWIN_LEAF_FORESTS.items() if forest.n <= 9])
    def test_exact_min_matches_every_embedding(self, name):
        forest = TWIN_LEAF_FORESTS[name]
        n = forest.n
        for g in (random_colouring(n, 1300 + n), biased_colouring(n, 1400 + n, red=0.93)):
            maps, sums = numpy_extensions(forest, g, {})
            score = np.abs(sums)
            i = int(score.argmin())
            value, witness = exact_min_imbalance(forest, g)
            assert (value, witness.forward) == (score[i], tuple(maps[i].tolist()))
            if n <= 7:
                assert (value, witness.forward) == brute_min(forest, g)


@cache
def lexicographic_permutations(k):
    return np.fromiter(chain.from_iterable(permutations(range(k))), np.int8).reshape(math.factorial(k), k)


def numpy_extensions(forest, graph, mapping):
    """Every extension of mapping as full maps, in the order of brute_sign, with their sums."""
    n = forest.n
    free_vs = [v for v in range(n) if v not in mapping]
    free_ts = np.array(sorted(set(range(n)) - set(mapping.values())), np.int16)
    maps = np.empty((math.factorial(len(free_vs)), n), np.int16)
    maps[:, free_vs] = free_ts[lexicographic_permutations(len(free_vs))]
    for v, t in mapping.items():
        maps[:, v] = t
    sums = np.zeros(len(maps), np.int32)
    for u, v in forest.edges:
        sums += graph.matrix[maps[:, u], maps[:, v]]
    return maps, sums


def numpy_verdict(forest, graph, mapping):
    """(min, max, first argmin map, first argmax map, extensions) from numpy_extensions."""
    maps, sums = numpy_extensions(forest, graph, mapping)
    lo, hi = int(sums.argmin()), int(sums.argmax())
    return sums[lo], sums[hi], tuple(maps[lo].tolist()), tuple(maps[hi].tolist()), len(maps)


def verdict_tuple(v):
    return v.min_sum, v.max_sum, v.min_witness.forward, v.max_witness.forward, v.extensions


def scattered(n, k, seed):
    """k vertices fixed on k targets, both drawn at random."""
    rng = random.Random(seed)
    return dict(zip(rng.sample(range(n), k), rng.sample(range(n), k)))


def hub_red(n):
    """Target 0's edges red, every other edge blue."""
    red = np.zeros((n, n), dtype=bool)
    red[0] = red[:, 0] = True
    return ColouredCompleteGraph.from_red_matrix(red)


# Vertex 3 is fixed and vertex 0 leads, so (0, 3) joins two head vertices.
HEAD_EDGE_TREE = Forest(10, [(0, 3), (3, 1), (1, 2), (3, 4), (4, 5), (5, 6), (0, 7), (7, 8), (8, 9)])


class TestHeadSlots:
    """Scans with a head (fixed or leading free vertices) beside the permuted tail."""

    # t counts a row's terms (one per tail vertex with head neighbours, one
    # per tail edge); an odd t leaves one term unpaired.  t is 9 for
    # head-edge-10 and path-10, 7 for random-10, 8 for path-9 and random-9,
    # and 0 for the all-fixed partial
    @pytest.mark.parametrize(
        "forest, mapping",
        [
            (HEAD_EDGE_TREE, {3: 6}),
            (make_forest(ForestSpec("path", 10)), {3: 6}),
            (make_forest(ForestSpec("random", 10, max_degree=3, seed=2)), {0: 4}),
            (make_forest(ForestSpec("path", 9)), {}),
            (make_forest(ForestSpec("random", 9, max_degree=3, seed=9)), {}),
            (make_forest(ForestSpec("random", 32, max_degree=3, seed=32)), scattered(32, 25, 1)),
            (make_forest(ForestSpec("random", 32, max_degree=3, seed=32)), scattered(32, 25, 0)),
            (make_forest(ForestSpec("star", 64)), {v: (v + 5) % 64 for v in range(8, 64)}),
            (make_forest(ForestSpec("path", 10)), {v: (3 * v + 1) % 10 for v in range(10)}),
            (make_forest(ForestSpec("path", 10)), {v: (3 * v + 1) % 10 for v in range(10) if v != 4}),
        ],
        ids=["head-edge-10", "path-10", "random-10", "path-9", "random-9",
             "random-32-25-fixed-t7", "random-32-25-fixed-t8", "star-64-centre-and-7-leaves-free-t8",
             "path-10-all-fixed", "path-10-one-free-t1"],
    )
    def test_exact_sign_matches_numpy_reference(self, forest, mapping):
        n = forest.n
        for g in (random_colouring(n, 800 + n), biased_colouring(n, 900 + n)):
            v = exact_sign(forest, g, PartialEmbedding(mapping))
            assert verdict_tuple(v) == numpy_verdict(forest, g, mapping)

    def test_star_sums_past_int8_match_numpy_reference(self):
        # the centre on the all-red target 0 scores +199, elsewhere -197:
        # both out of int8 range
        n = 200
        forest = make_forest(ForestSpec("star", n))
        mapping = {v: v for v in range(8, n)}
        g = hub_red(n)
        v = exact_sign(forest, g, PartialEmbedding(mapping))
        assert (v.min_sum, v.max_sum) == (-197, 199)
        assert verdict_tuple(v) == numpy_verdict(forest, g, mapping)

    def test_head_heavy_sign_stays_small_at_n256(self):
        # 8 free positions among 256: a byte per vertex or per edge for each
        # of the 8! rows would already pass 10 MB
        n = 256
        forest = make_forest(ForestSpec("path", n))
        mapping = {v: n - 1 - v for v in range(n - 8)}
        g = random_colouring(n, 256)
        expected = numpy_verdict(forest, g, mapping)
        oracle._permutation_table(8)
        tracemalloc.start()
        try:
            v = exact_sign(forest, g, PartialEmbedding(mapping))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict_tuple(v) == expected
        assert peak < 10_000_000

    @pytest.mark.parametrize("kind", ["path", "random"])
    def test_exact_min_matches_numpy_reference(self, kind):
        n = 9
        forest = forest_of(kind, n)
        for g in (hub_red(n), biased_colouring(n, 0, red=0.93), random_colouring(n, 17)):
            maps, sums = numpy_extensions(forest, g, {})
            score = np.abs(sums)
            i = int(score.argmin())
            value, witness = exact_min_imbalance(forest, g)
            assert (value, witness.forward) == (score[i], tuple(maps[i].tolist()))

    def test_hub_red_path_witness_lies_past_the_first_chunk(self):
        # the path's end 0 may not sit on the all-red target 0, so the first
        # optimum puts vertex 0 on target 1: the second chunk
        value, witness = exact_min_imbalance(make_forest(ForestSpec("path", 9)), hub_red(9))
        assert value == 4 and witness.forward[:2] == (1, 0)

    def test_min_scan_stays_under_the_int32_images_peak(self, monkeypatch):
        # the scan runs to the end (optimum 2 > floor 0: 8 red edges allow
        # sums in [-8, 8]); materialising each chunk's full maps as int32
        # peaks at 4.59 MB here
        oracle._permutation_table(8)
        n = 9
        forest = forest_of("random", n)
        g = hub_red(n)
        assert imbalance_floor(forest, g) == 0
        groups = twin_groups(forest, list(range(n)))
        yielded = count_chunks(monkeypatch)
        tracemalloc.start()
        try:
            value, _ = exact_min_imbalance(forest, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == 2
        assert sum(yielded) == n * math.factorial(8) // math.prod(math.factorial(len(group)) for group in groups)
        assert peak < 4_500_000


def _full_embedding(partial, forest, graph):
    from forestbalance.core import Embedding

    fwd = [partial[v] for v in range(forest.n)]
    return Embedding.build(fwd, forest, graph)


def spanning_star_with_mixed_degrees(n=6, start_seed=0):
    """Colouring where the per-vertex colour skew takes both signs."""
    for seed in range(start_seed, start_seed + 100):
        g = random_colouring(n, seed)
        skews = [g.signed_degree(v) for v in range(n)]
        if any(s > 0 for s in skews) and any(s < 0 for s in skews):
            return g
    raise AssertionError("no suitable colouring found")


class TestSignFixing:
    def test_all_red_empty_set_fixing(self):
        g = all_red(5)
        forest = make_forest(ForestSpec("path", 5))
        assert is_sign_fixing(forest, g, [], list(range(5)))

    def test_balanced_k4_path_not_fixing(self):
        g = random_balanced_colouring(4, 3)
        forest = make_forest(ForestSpec("path", 4))
        res = is_sign_fixing(forest, g, [], list(range(4)))
        assert not res
        v = res.verdict
        assert v.min_sum < 0 < v.max_sum

    def test_vacuous_when_l_bigger_than_u(self):
        g = random_colouring(5, 1)
        forest = make_forest(ForestSpec("path", 5))
        assert is_sign_fixing(forest, g, [0, 1, 2], [0, 1])

    def test_star_centre_fixes_sign(self):
        g = spanning_star_with_mixed_degrees()
        star = make_forest(ForestSpec("star", 6))
        u = list(range(6))
        assert is_sign_fixing(star, g, [0], u)
        assert not is_sign_fixing(star, g, [], u)

    def test_monotone_supersets_at_n6(self):
        g = spanning_star_with_mixed_degrees()
        star = make_forest(ForestSpec("star", 6))
        u = list(range(6))
        from itertools import combinations

        others = [1, 2, 3, 4, 5]
        for k in range(len(others) + 1):
            for extra in combinations(others, k):
                sup = [0, *extra]
                if len(sup) <= len(u):
                    assert is_sign_fixing(star, g, sup, u), sup

    def test_budget_refusal(self):
        g = random_colouring(8, 4)
        forest = make_forest(ForestSpec("path", 8))
        with pytest.raises(BudgetExceededError):
            is_sign_fixing(forest, g, [0], list(range(8)), budget=100)


def minimal_sign_fixing_subset(forest, graph, l_set, u_set):
    """Inclusion-minimal sign-fixing subset of l_set, by greedy ascending removal.

    Also returns the vertices of the result whose degree inside the forest
    restricted to the result is at least 2; that subset is always proper.
    A PreconditionError carries the counterexample when l_set is not
    sign-fixing.
    """
    l_list = sorted(set(l_set))
    start = is_sign_fixing(forest, graph, l_list, u_set)
    if not start:
        raise PreconditionError("the given set is not sign-fixing", start.placement)
    m_set = list(l_list)
    for v in l_list:
        candidate = [x for x in m_set if x != v]
        if is_sign_fixing(forest, graph, candidate, u_set):
            m_set = candidate
    members = set(m_set)
    n_set = [v for v in m_set if len(members.intersection(forest.neighbours[v])) >= 2]
    if m_set and not set(n_set) < set(m_set):
        raise CertificateError("high-degree core must be a proper subset")
    return m_set, n_set


class TestMinimalSignFixing:
    def test_all_red_minimises_to_empty(self):
        g = all_red(5)
        forest = make_forest(ForestSpec("path", 5))
        m_set, n_set = minimal_sign_fixing_subset(forest, g, [0, 2, 4], list(range(5)))
        assert m_set == [] and n_set == []

    def test_star_centre_is_minimal(self):
        g = spanning_star_with_mixed_degrees()
        star = make_forest(ForestSpec("star", 6))
        m_set, n_set = minimal_sign_fixing_subset(star, g, [0], list(range(6)))
        assert m_set == [0]
        assert n_set == []  # no edges inside the single-vertex induced forest

    def test_precondition_error_carries_counterexample(self):
        g = random_balanced_colouring(4, 3)
        forest = make_forest(ForestSpec("path", 4))
        with pytest.raises(PreconditionError) as err:
            minimal_sign_fixing_subset(forest, g, [], list(range(4)))
        assert err.value.args[1] is not None

    def test_high_degree_core_is_proper_subset(self):
        g = spanning_star_with_mixed_degrees(start_seed=50)
        star = make_forest(ForestSpec("star", 6))
        for l_set in ([0], [0, 1], [0, 1, 2]):
            m_set, n_set = minimal_sign_fixing_subset(star, g, l_set, list(range(6)))
            if m_set:
                assert set(n_set) < set(m_set)
