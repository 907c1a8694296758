import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestbalance.core import (
    BLUE,
    RED,
    ColouredCompleteGraph,
    Embedding,
    Forest,
    InvalidInputError,
    PartialEmbedding,
    embedding_from_json,
    embedding_to_json,
    is_balanced,
    parse_colouring,
    parse_forest,
    r_balanced_vertices,
    serialize_colouring,
    serialize_forest,
    subgraph_sum,
    swap_images,
)
from forestbalance.generators import ForestSpec, make_forest, random_balanced_colouring


def all_red(n):
    return ColouredCompleteGraph.from_pair_function(n, lambda i, j: RED)


def random_colouring(n, seed):
    rng = random.Random(seed)
    return ColouredCompleteGraph.from_pair_function(
        n, lambda i, j: RED if rng.random() < 0.5 else BLUE
    )


def random_instance(n, seed):
    g = random_colouring(n, seed)
    forest = make_forest(ForestSpec("random", n, max_degree=max(2, n // 2), seed=seed + 1))
    rng = random.Random(seed + 2)
    fwd = list(range(n))
    rng.shuffle(fwd)
    return g, forest, Embedding.build(fwd, forest, g)


class TestColouredCompleteGraph:
    def test_symmetry_and_degrees(self):
        g = random_colouring(9, 3)
        for i in range(9):
            for j in range(9):
                if i != j:
                    assert g.colour(i, j) == g.colour(j, i)
        for v in range(9):
            red = sum(1 for u in range(9) if u != v and g.colour(u, v) == RED)
            assert g.red_degree(v) == red
            assert g.red_degree(v) + g.blue_degree(v) == 8

    def test_degree_sum_counts_red_edges_twice(self):
        g = random_colouring(10, 7)
        assert sum(g.red_degree(v) for v in range(10)) == 2 * g.red_edge_count

    def test_self_loop_rejected(self):
        g = all_red(4)
        with pytest.raises(InvalidInputError):
            g.colour(2, 2)

    def test_too_small(self):
        with pytest.raises(InvalidInputError):
            all_red(1)

    def test_negated(self):
        g = random_colouring(7, 11)
        ng = g.negated()
        for i in range(7):
            for j in range(i):
                assert ng.colour(i, j) == -g.colour(i, j)
        assert ng.red_edge_count == g.edge_count - g.red_edge_count

    def test_matrix_invariants(self):
        import numpy as np

        g = random_colouring(8, 5)
        m = g.matrix
        assert m.dtype == np.int8 and m.shape == (8, 8)
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[1, 0] = 0
        assert np.array_equal(m, m.T)
        assert not m.diagonal().any()
        assert g.rows() == m.tolist()
        for i in range(8):
            for j in range(8):
                if i != j:
                    assert g.colour(i, j) in (RED, BLUE)
                    assert m[i, j] == g.colour(i, j)

    def test_from_red_matrix_matches_pair_function(self):
        import numpy as np

        rng = random.Random(13)
        n = 11
        red = np.zeros((n, n), dtype=bool)
        for i in range(1, n):
            for j in range(i):
                red[i, j] = red[j, i] = rng.random() < 0.5
        a = ColouredCompleteGraph.from_red_matrix(red)
        b = ColouredCompleteGraph.from_pair_function(
            n, lambda i, j: RED if red[i, j] else BLUE
        )
        assert a == b
        assert [a.red_degree(v) for v in range(n)] == [b.red_degree(v) for v in range(n)]


class TestBalance:
    def test_all_red_k4_not_balanced(self):
        assert not is_balanced(all_red(4))

    def test_three_of_six_red_is_balanced(self):
        reds = {(1, 0), (2, 0), (2, 1)}
        g = ColouredCompleteGraph.from_pair_function(
            4, lambda i, j: RED if (i, j) in reds else BLUE
        )
        assert is_balanced(g)

    def test_r_zero_is_everything(self):
        g = random_colouring(6, 1)
        assert r_balanced_vertices(g, 0) == list(range(6))

    def test_all_red_has_no_1_balanced(self):
        assert r_balanced_vertices(all_red(5), 1) == []

    def test_negative_r_rejected(self):
        with pytest.raises(InvalidInputError):
            r_balanced_vertices(all_red(4), -1)


class TestForest:
    def test_path_properties(self):
        f = Forest(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert f.max_degree == 2 and f.min_degree == 1
        assert f.neighbours[2] == (1, 3)

    def test_cycle_rejected(self):
        with pytest.raises(InvalidInputError):
            Forest(3, [(0, 1), (1, 2), (0, 2)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(InvalidInputError):
            Forest(3, [(0, 1), (1, 0)])

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidInputError):
            Forest(3, [(1, 1)])

    def test_isolated_vertices_allowed(self):
        f = Forest(4, [(0, 1)])
        assert f.min_degree == 0
        assert f.isolated_vertices() == [2, 3]


class TestSubgraphSum:
    def test_edgeless_forest_sums_to_zero(self):
        g = random_colouring(6, 2)
        f = Forest(6, [])
        emb = Embedding.build(range(6), f, g)
        assert subgraph_sum(g, emb, f) == 0

    def test_star_sum_is_signed_degree_of_centre_image(self):
        g = random_colouring(8, 9)
        star = make_forest(ForestSpec("star", 8))
        for x in range(8):
            rest = [t for t in range(8) if t != x]
            emb = Embedding.build([x] + rest, star, g)
            assert subgraph_sum(g, emb, star) == g.red_degree(x) - g.blue_degree(x)

    def test_path_parity(self):
        g = random_colouring(4, 4)
        p4 = make_forest(ForestSpec("path", 4))
        for seed in range(20):
            rng = random.Random(seed)
            fwd = list(range(4))
            rng.shuffle(fwd)
            emb = Embedding.build(fwd, p4, g)
            assert subgraph_sum(g, emb, p4) in (-3, -1, 1, 3)

    def test_domain_mismatch(self):
        g = random_colouring(5, 2)
        f = Forest(4, [(0, 1)])
        emb = Embedding(range(4), 0)
        with pytest.raises(InvalidInputError):
            subgraph_sum(g, emb, f)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_sum_within_edge_count_and_parity(self, seed):
        n = 6 + seed % 7
        g, forest, emb = random_instance(n, seed)
        s = subgraph_sum(g, emb, forest)
        m = forest.edge_count
        assert abs(s) <= m
        assert (s - m) % 2 == 0


class TestSwap:
    def test_swap_isolated_leaves_sum(self):
        g = random_colouring(6, 8)
        f = Forest(6, [(0, 1)])
        emb = Embedding.build(range(6), f, g)
        out = swap_images(emb, 3, 4, f, g)
        assert out.colour_sum == emb.colour_sum

    def test_swap_is_involution(self):
        g, forest, emb = random_instance(9, 17)
        once = swap_images(emb, 2, 5, forest, g)
        twice = swap_images(once, 2, 5, forest, g)
        assert twice == emb and twice.colour_sum == emb.colour_sum

    def test_swap_equals_rebuilt_embedding(self):
        g, forest, emb = random_instance(11, 5)
        out = swap_images(emb, 1, 7, forest, g)
        fwd = list(emb.forward)
        fwd[1], fwd[7] = fwd[7], fwd[1]
        rebuilt = Embedding.build(fwd, forest, g)
        assert out == rebuilt and out.colour_sum == rebuilt.colour_sum
        assert sorted(out.forward) == list(range(11))

    def test_swap_same_vertex_rejected(self):
        g, forest, emb = random_instance(6, 3)
        with pytest.raises(InvalidInputError):
            swap_images(emb, 2, 2, forest, g)

    def test_incremental_matches_recompute_1000_trials(self):
        rng = random.Random(0)
        for trial in range(1000):
            n = rng.randrange(6, 13)
            g, forest, emb = random_instance(n, trial)
            u = rng.randrange(n)
            v = (u + 1 + rng.randrange(n - 1)) % n
            out = swap_images(emb, u, v, forest, g)
            assert out.colour_sum == subgraph_sum(g, out, forest)
            bound = 2 * (forest.degree[u] + forest.degree[v])
            assert abs(out.colour_sum - emb.colour_sum) <= bound

    def test_long_swap_chain_keeps_cache_exact(self):
        g, forest, emb = random_instance(10, 23)
        rng = random.Random(99)
        for _ in range(1000):
            u = rng.randrange(10)
            v = (u + 1 + rng.randrange(9)) % 10
            emb = swap_images(emb, u, v, forest, g)
        assert emb.colour_sum == subgraph_sum(g, emb, forest)


class TestPartialEmbedding:
    def test_injectivity_enforced(self):
        with pytest.raises(InvalidInputError):
            PartialEmbedding({0: 1, 2: 1})

    def test_restrict_and_extend(self):
        p = PartialEmbedding({0: 3, 2: 5})
        assert p.restrict([0]).mapping == {0: 3}
        assert p.extended(4, 1).mapping == {0: 3, 2: 5, 4: 1}
        assert p.image() == {3, 5}


class TestFormats:
    def test_colouring_round_trip(self):
        g = random_colouring(9, 42)
        assert parse_colouring(serialize_colouring(g)) == g

    def test_colouring_file_layout(self):
        # row i lists edges (i, 0), ..., (i, i-1)
        text = "4\nR\nBR\nRRB\n"
        g = parse_colouring(text)
        assert [[g.colour(i, j) for j in range(i)] for i in range(1, 4)] == [
            [RED], [BLUE, RED], [RED, RED, BLUE]
        ]
        assert serialize_colouring(g) == text

    def test_forest_round_trip(self):
        f = make_forest(ForestSpec("random", 12, max_degree=4, seed=5))
        assert parse_forest(serialize_forest(f)) == f

    def test_embedding_round_trip(self):
        g, forest, emb = random_instance(7, 31)
        data = embedding_to_json(emb)
        back = embedding_from_json(data, forest, g)
        assert back == emb and back.colour_sum == emb.colour_sum

    def test_embedding_sum_validated(self):
        g, forest, emb = random_instance(7, 32)
        data = embedding_to_json(emb)
        data["sum"] = data["sum"] + 2
        with pytest.raises(InvalidInputError):
            embedding_from_json(data, forest, g)

    def test_bad_colouring_rows_rejected(self):
        with pytest.raises(InvalidInputError):
            parse_colouring("3\nR\nRX\n")
        with pytest.raises(InvalidInputError):
            parse_colouring("3\nR\n")

    def test_bad_forest_rejected(self):
        with pytest.raises(InvalidInputError):
            parse_forest("3 1\n")
        with pytest.raises(InvalidInputError):
            parse_forest("3 1\n0 0\n")
        with pytest.raises(InvalidInputError, match="bad edge line"):
            parse_forest("3 1\n0 x\n")

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_random_balanced(self, seed):
        n = (4, 5, 8, 9)[seed % 4]
        g = random_balanced_colouring(n, seed)
        assert parse_colouring(serialize_colouring(g)) == g
