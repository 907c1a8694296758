import copy
import json
import pickle
import random
import re
import time
import tracemalloc
from contextlib import contextmanager
from itertools import chain
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from forestbalance import core
from forestbalance.core import (
    BLUE,
    RED,
    ColouredCompleteGraph,
    Embedding,
    Forest,
    InvalidInputError,
    PartialEmbedding,
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
from forestbalance.solver import solve


def all_red(n):
    return ColouredCompleteGraph.from_red_matrix(np.ones((n, n), dtype=bool))


def random_colouring(n, seed):
    """Each pair (i, j), i > j, red with probability 1/2, drawn in the order (1, 0), (2, 0), (2, 1), ..."""
    rng = random.Random(seed)
    lower = np.array([[j < i and rng.random() < 0.5 for j in range(n)] for i in range(n)])
    return ColouredCompleteGraph.from_red_matrix(lower | lower.T)


#: sizes on both sides of every band edge of the matrix mirror's 64-column bands
BAND_EDGE_SIZES = (2, 3, 63, 64, 65, 127, 128, 129, 255, 256, 257, 511, 512, 513, 1000)


def random_red_matrix(n, seed):
    """A symmetric boolean matrix, each pair red with probability 1/2, from numpy's generator."""
    lower = np.tril(np.random.default_rng(seed).random((n, n)) < 0.5, k=-1)
    return lower | lower.T


def canonical_text(red):
    """Canonical colouring text written cell by cell from a red matrix, without the package."""
    n = len(red)
    rows = ("".join("R" if red[i, j] else "B" for j in range(i)) + "\n" for i in range(1, n))
    return "".join([f"{n}\n", *rows])


def reference_matrix(red):
    expected = np.where(red, RED, BLUE).astype(np.int8)
    np.fill_diagonal(expected, 0)
    return expected


def numpy_sum(g, fwd, edges):
    """Colour sum of the edges under fwd, gathered from the matrix."""
    fwd = np.asarray(fwd)
    return int(g.matrix[fwd[edges[:, 0]], fwd[edges[:, 1]]].astype(np.int64).sum())


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
                    assert g.matrix[i, j] == g.matrix[j, i]
        for v in range(9):
            red = sum(1 for u in range(9) if u != v and g.matrix[u, v] == RED)
            assert g.red_degree(v) == red

    def test_signed_degrees_vector(self):
        g = random_colouring(11, 5)
        sd = g.signed_degrees()
        assert sd.dtype == np.int64
        assert sd.tolist() == [g.signed_degree(v) for v in range(11)]
        assert g.red_degrees().tolist() == [g.red_degree(v) for v in range(11)]

    def test_signed_degrees_are_cached_read_only_and_rebuilt_by_a_copy(self):
        g = random_colouring(11, 5)
        sd = g.signed_degrees()
        assert g.signed_degrees() is sd and not sd.flags.writeable
        with pytest.raises(ValueError):
            sd[0] = 0
        np.testing.assert_array_equal(sd, g.matrix.astype(np.int64).sum(axis=1))
        copy = pickle.loads(pickle.dumps(g))
        assert copy == g and hash(copy) == hash(g) and copy._signed_degrees is None
        assert copy.signed_degrees() is not sd and copy.signed_degrees().tolist() == sd.tolist()

    def test_degree_sum_counts_red_edges_twice(self):
        g = random_colouring(10, 7)
        assert sum(g.red_degree(v) for v in range(10)) == 2 * g.red_edge_count

    def test_too_small(self):
        with pytest.raises(InvalidInputError):
            all_red(1)

    @pytest.mark.parametrize(
        "matrix, message",
        [
            # equal to its pickled copy, by the lower triangle, with signed degrees [2, 0, 2] against [0, 0, 2]
            ([[0, 1, 1], [-1, 0, 1], [1, 1, 0]], "symmetric"),
            ([[0, 1, 1], [1, 1, 1], [1, 1, 0]], r"\+1 or -1 off the diagonal and 0 on it"),
            ([[0, 2], [2, 0]], r"\+1 or -1 off the diagonal and 0 on it"),
            ([[0, 0], [0, 0]], r"\+1 or -1 off the diagonal and 0 on it"),
            ([[0, 0.5], [0.5, 0]], r"\+1 or -1 off the diagonal and 0 on it"),
            ([[0, 1, 1], [1, 0, 1]], "square"),
            ([0, 1], "square"),
            (1, "square"),
            # text the parser refuses
            ([[0]], "need at least 2 vertices, got n=1"),
            (np.zeros((0, 0)), "need at least 2 vertices, got n=0"),
        ],
    )
    def test_constructor_refuses_a_matrix_that_is_no_colouring(self, matrix, message):
        with pytest.raises(InvalidInputError, match=message):
            ColouredCompleteGraph(matrix)

    def test_constructor_copies_its_matrix(self):
        given = [[0, 1, -1], [1, 0, 1], [-1, 1, 0]]
        g = ColouredCompleteGraph(given)
        assert g.matrix.dtype == np.int8 and not g.matrix.flags.writeable
        assert g.matrix.tolist() == given and g.signed_degrees().tolist() == [0, 2, 0]
        writable = np.array(given, dtype=np.int8)
        read_only_view = writable.view()
        read_only_view.flags.writeable = False
        for matrix in (writable, read_only_view):  # a later write through the base array reaches neither graph
            g = ColouredCompleteGraph(matrix)
            writable[0, 1] = writable[1, 0] = -1
            assert g.matrix.tolist() == given and g.signed_degrees().tolist() == [0, 2, 0]
            assert g == ColouredCompleteGraph(given) and hash(g) == hash(ColouredCompleteGraph(given))
            assert pickle.loads(pickle.dumps(g)).signed_degrees().tolist() == [0, 2, 0]
            writable[0, 1] = writable[1, 0] = 1

    def test_pickle_and_copy_after_rows(self):
        g = random_colouring(6, 2)
        g._lookup()  # the scoring memoryview, which cannot be pickled
        for back in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
            assert back == g
            assert not back.triangle.flags.writeable
            cells, off = back._lookup()
            rows = [list(cells[off[i]:off[i] + i + 1]) for i in range(6)]
            assert rows == [g.matrix[i, :i + 1].tolist() for i in range(6)]
            assert back.matrix.tolist() == g.matrix.tolist()

    def test_matrix_invariants(self):
        g = random_colouring(8, 5)
        m = g.matrix
        assert m.dtype == np.int8 and m.shape == (8, 8)
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[1, 0] = 0
        assert np.array_equal(m, m.T)
        assert not m.diagonal().any()
        t = g.triangle
        assert t.dtype == np.int8 and t.shape == (36,) and not t.flags.writeable
        with pytest.raises(ValueError):
            t[1] = 0
        cells, off = g._lookup()
        assert off == tuple(i * (i + 1) // 2 for i in range(8))
        # row i of the triangle is row i of the matrix up to the diagonal, and mirrors its column i
        assert [list(cells[off[i]:off[i] + i + 1]) for i in range(8)] == [m[i, :i + 1].tolist() for i in range(8)]
        assert all(cells[off[i] + j] == m[j, i] for i in range(8) for j in range(i + 1))
        with pytest.raises(TypeError):
            cells[1] = 0
        for i in range(8):
            for j in range(8):
                if i != j:
                    assert m[i, j] in (RED, BLUE)

    @pytest.mark.parametrize("n", BAND_EDGE_SIZES)
    def test_lower_triangle_matches_red_matrix_at_band_edges(self, n):
        # every builder stores the packed triangle, and the matrix is built from it on first read;
        # both are checked against a reference built without the package
        red = random_red_matrix(n, n)
        expected = reference_matrix(red)
        triangle = expected[np.tril_indices(n)]  # row-major, so row i starts at i(i+1)/2
        text = canonical_text(red)
        signs = np.where(red[np.tri(n, k=-1, dtype=bool)], np.int8(RED), np.int8(BLUE))
        built = {
            "canonical parse": parse_colouring(text),
            "line-by-line parse": parse_colouring(text.replace("\n", "\r\n")),
            "from_lower_triangle": ColouredCompleteGraph.from_lower_triangle(n, signs),
            "from_red_matrix": ColouredCompleteGraph.from_red_matrix(red),
            "not bool: nonzero is red": ColouredCompleteGraph.from_red_matrix(red.astype(int) * 3),
            "the diagonal is ignored": ColouredCompleteGraph.from_red_matrix(red | np.eye(n, dtype=bool)),
            "constructor": ColouredCompleteGraph(expected),
        }
        for name, g in built.items():
            assert g.n == n
            t = g.triangle
            assert np.array_equal(t, triangle), name
            assert t.dtype == np.int8 and not t.flags.writeable, name
            assert g._matrix is None, name  # nothing has read the matrix yet
            m = g.matrix
            assert np.array_equal(m, expected), name
            assert m.dtype == np.int8 and not m.flags.writeable and m.flags.c_contiguous, name
            assert g.matrix is m, name  # built once
            assert serialize_colouring(g) == text, name
        asymmetric = red.copy()
        asymmetric[n - 1, 0] = not asymmetric[n - 1, 0]
        with pytest.raises(InvalidInputError, match="red matrix must be symmetric"):
            ColouredCompleteGraph.from_red_matrix(asymmetric)


class TestPackedTriangle:
    @pytest.mark.parametrize("n", (2, 3, 9, 64, 65, 129))
    def test_scoring_matches_a_numpy_reference(self, n):
        rng = random.Random(n)
        g = ColouredCompleteGraph.from_red_matrix(random_red_matrix(n, n))
        for kind, max_degree in (("path", None), ("random", max(2, n // 3)), ("star", None)):
            forest = make_forest(ForestSpec(kind, n, max_degree=max_degree, seed=n))
            edges = np.array(forest.edges, dtype=np.intp).reshape(-1, 2)
            for _ in range(5):
                fwd = list(range(n))
                rng.shuffle(fwd)
                emb = Embedding.build(fwd, forest, g)
                assert emb.colour_sum == numpy_sum(g, fwd, edges)
                for _ in range(10):
                    u, v = rng.sample(range(n), 2)
                    swapped = list(fwd)
                    swapped[u], swapped[v] = swapped[v], swapped[u]
                    expected = numpy_sum(g, swapped, edges) - emb.colour_sum
                    assert core.swap_delta(fwd, u, v, forest, g) == expected
                    assert swap_images(emb, u, v, forest, g).colour_sum == emb.colour_sum + expected

    @pytest.mark.parametrize("n", (2, 5, 64, 130))
    def test_edge_colours_match_the_matrix(self, n):
        g = random_colouring(n, n)
        a = np.random.default_rng(n).integers(0, n, size=(7, 3 * n))
        b = (a + np.random.default_rng(n + 1).integers(1, n, size=a.shape)) % n  # never equal to a
        colours = g.edge_colours(a, b)
        assert colours.dtype == np.int8 and colours.shape == a.shape
        assert np.array_equal(colours, g.matrix[a, b])

    def test_copies_equality_and_hash_never_build_the_matrix(self):
        n = 65
        text = canonical_text(random_red_matrix(n, 3))
        g, twin = parse_colouring(text), parse_colouring(text)
        other = parse_colouring(text.replace("R", "X", 1).replace("B", "R", 1).replace("X", "B", 1))
        copies = [pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)]
        assert all(c == g for c in copies) and g == twin and g != other
        assert len({hash(c) for c in [g, twin, *copies]}) == 1
        assert g.red_edge_count == text.count("R") and g.total_sum() == text.count("R") - text.count("B")
        assert is_balanced(g) == (2 * text.count("R") == g.edge_count)
        assert serialize_colouring(g) == text
        assert all(x._matrix is None for x in (g, twin, other, *copies))
        assert all(not c.triangle.flags.writeable for c in copies)


def _degree_reference(g):
    """Signed degrees, total sum and red edge count summed over an int64 copy of the matrix."""
    wide = g.matrix.astype(np.int64)
    signed = wide.sum(axis=1)
    red_edges = int(np.count_nonzero(np.tril(wide, k=-1) == RED))
    return signed, int(wide.sum()) // 2, red_edges


class TestDegreeKernels:
    # K_n has a balanced colouring only for n = 0, 1 mod 4
    @pytest.mark.parametrize("kind, n", [
        (kind, n)
        for kind in ("all-red", "all-blue", "random", "balanced")
        for n in (2, 3, 64, 65, 128, 129, 256, 257, 512, 1025)
        if kind != "balanced" or n % 4 in (0, 1)
    ])
    def test_exact_and_int64(self, kind, n):
        if kind == "balanced":
            g = random_balanced_colouring(n, n)
        else:
            red = {"all-red": np.ones((n, n), dtype=bool), "all-blue": np.zeros((n, n), dtype=bool),
                   "random": random_red_matrix(n, n)}[kind]
            g = ColouredCompleteGraph.from_red_matrix(red)
        signed, total, red_edges = _degree_reference(g)
        sd = g.signed_degrees()
        assert sd.dtype == np.int64 and np.array_equal(sd, signed)
        reds = g.red_degrees()
        assert reds.dtype == np.int64 and np.array_equal(reds, (n - 1 + signed) // 2)
        assert type(g.total_sum()) is int and g.total_sum() == total
        assert type(g.red_edge_count) is int and g.red_edge_count == red_edges
        assert is_balanced(g) is (2 * red_edges == g.edge_count)
        if kind == "all-red":
            assert sd.tolist() == [n - 1] * n and total == g.edge_count
        if kind == "balanced":
            assert is_balanced(g) and total == 0


class TestBalance:
    def test_all_red_k4_not_balanced(self):
        assert not is_balanced(all_red(4))

    def test_three_of_six_red_is_balanced(self):
        reds = {(1, 0), (2, 0), (2, 1)}
        red = np.zeros((4, 4), dtype=bool)
        for i, j in reds:
            red[i, j] = red[j, i] = True
        g = ColouredCompleteGraph.from_red_matrix(red)
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


@st.composite
def forest_edge_lists(draw, max_n=40):
    """(n, edges): a random forest on range(n), relabelled, each edge in a random orientation and place."""
    n = draw(st.integers(1, max_n))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    tree = [(rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.85]
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u]) for u, v in tree]
    rng.shuffle(edges)
    return n, edges


def construction(build, n, edges):
    """All attributes of the built forest, or the type and message of the InvalidInputError."""
    try:
        return forest_attrs(build(n, edges))
    except InvalidInputError as exc:
        return f"{type(exc).__name__}: {exc}"


#: faults for TestForestParity: each takes (n, edges so far, rng) and returns one bad edge, or None
_FAULTS = {
    "above n": lambda n, edges, rng: (rng.randrange(n), n + rng.randrange(3)),
    "above int64": lambda n, edges, rng: (2**63 + rng.randrange(3), rng.randrange(n)),
    "far above int64": lambda n, edges, rng: (rng.randrange(n), 10**30),
    "negative": lambda n, edges, rng: (-1 - rng.randrange(3), rng.randrange(n)),
    "self-loop": lambda n, edges, rng: (lambda x: (x, x))(rng.randrange(n)),
    "duplicate": lambda n, edges, rng: (lambda e: e if rng.random() < 0.5 else e[::-1])(rng.choice(edges)),
    "cycle": lambda n, edges, rng: _closing_edge(n, edges, rng),
}


def _closing_edge(n, edges, rng):
    """An edge between two vertices one tree already joins (a duplicate when they are adjacent)."""
    comp = list(range(n))

    def find(x):
        while comp[x] != x:
            x = comp[x]
        return x

    for u, v in edges:
        if 0 <= u < n and 0 <= v < n:
            comp[find(u)] = find(v)
    joined = [(u, v) for u in range(n) for v in range(u + 1, n) if find(u) == find(v)]
    return rng.choice(joined) if joined else None


class TestForestParity:
    @given(forest_edge_lists())
    @settings(max_examples=150, deadline=None)
    def test_valid_edge_lists_match_reference(self, case):
        n, edges = case
        built = Forest(n, edges)
        assert forest_attrs(built) == forest_attrs(reference_forest(n, edges))
        ints = [*chain.from_iterable(built.edges), *chain.from_iterable(built.neighbours), *built.degree]
        assert all(type(x) is int for x in ints)
        assert all(type(t) is tuple for t in (built.edges, built.degree, built.neighbours, *built.edges))

    @given(forest_edge_lists(), st.sampled_from(["tuple", "lists", "numpy ints", "iterator", "array"]))
    @settings(max_examples=100, deadline=None)
    def test_every_input_kind_matches_reference(self, case, kind):
        n, edges = case
        given_edges = {
            "tuple": lambda: tuple(edges),
            "lists": lambda: [list(e) for e in edges],
            "numpy ints": lambda: [(np.int64(u), np.int64(v)) for u, v in edges],
            "iterator": lambda: iter(edges),
            "array": lambda: np.array(edges, dtype=np.int64).reshape(-1, 2),
        }[kind]
        assert construction(Forest, n, given_edges()) == construction(reference_forest, n, given_edges())

    @given(forest_edge_lists(), st.lists(st.sampled_from(sorted(_FAULTS)), min_size=1, max_size=3),
           st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_invalid_edge_lists_give_the_reference_message(self, case, faults, seed, numpy_ints):
        n, edges = case
        rng = random.Random(seed)
        edges = list(edges)
        for fault in faults:
            if fault == "duplicate" and not edges:
                continue
            bad = _FAULTS[fault](n, edges, rng)
            if bad is not None:
                edges.insert(rng.randrange(len(edges) + 1), bad)
        if numpy_ints and all(-2**63 <= x < 2**63 for e in edges for x in e):
            edges = [(np.int64(u), np.int64(v)) for u, v in edges]
        assert construction(Forest, n, edges) == construction(reference_forest, n, edges)

    @pytest.mark.parametrize("edges, message", [
        ([(0, 1), (1, 5)], "edge (1,5) out of range for n=4"),
        ([(0, 2**63)], "edge (0,9223372036854775808) out of range for n=4"),
        ([(-1, 2)], "edge (-1,2) out of range for n=4"),
        ([(0, 1), (2, 2)], "self-loop at vertex 2"),
        ([(0, 1), (1, 0)], "duplicate edge (0,1)"),
        ([(3, 1), (1, 3)], "duplicate edge (1,3)"),
        ([(0, 1), (1, 2), (2, 0)], "edge (0,2) closes a cycle"),
        # the first offending edge wins, whatever kind of fault comes later
        ([(0, 1), (1, 2), (2, 0), (3, 3), (0, 9)], "edge (0,2) closes a cycle"),
        ([(0, 1), (3, 3), (1, 0)], "self-loop at vertex 3"),
        ([(2, 7), (1, 1)], "edge (2,7) out of range for n=4"),
        ([(np.int64(1), np.int64(1))], "self-loop at vertex 1"),
    ])
    def test_message(self, edges, message):
        with pytest.raises(InvalidInputError) as err:
            Forest(4, edges)
        assert str(err.value) == message
        assert construction(reference_forest, 4, edges) == f"InvalidInputError: {message}"

    def test_malformed_pairs_raise_what_the_edge_checks_raise(self):
        # not InvalidInputError: the per-edge checks fail on the value itself
        for edges, error in (([(0, 1), (1, 2, 3)], ValueError), ([(0, 1.0)], TypeError), ([(0, None)], TypeError)):
            with pytest.raises(error):
                Forest(4, edges)
            with pytest.raises(error):
                reference_forest(4, edges)
        # an earlier faulty edge is still named first
        with pytest.raises(InvalidInputError, match=r"^self-loop at vertex 2$"):
            Forest(4, [(2, 2), (0, 1.5)])


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
            assert subgraph_sum(g, emb, star) == 2 * g.red_degree(x) - 7

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

    def test_image_holds_the_targets(self):
        p = PartialEmbedding({0: 3, 2: 5})
        assert p.image() == {3, 5}

    def test_keeps_insertion_order_with_an_ascending_domain(self):
        p = PartialEmbedding({7: 0, 2: 5, 4: 1})
        assert list(p.mapping) == list(p) == [7, 2, 4]
        assert p.domain == (2, 4, 7)
        assert p == PartialEmbedding({2: 5, 4: 1, 7: 0})


class TestFormats:
    def test_colouring_round_trip(self):
        g = random_colouring(9, 42)
        assert parse_colouring(serialize_colouring(g)) == g

    def test_colouring_file_layout(self):
        # row i lists edges (i, 0), ..., (i, i-1)
        text = "4\nR\nBR\nRRB\n"
        g = parse_colouring(text)
        assert [[g.matrix[i, j] for j in range(i)] for i in range(1, 4)] == [
            [RED], [BLUE, RED], [RED, RED, BLUE]
        ]
        assert serialize_colouring(g) == text

    def test_forest_round_trip(self):
        f = make_forest(ForestSpec("random", 12, max_degree=4, seed=5))
        assert parse_forest(serialize_forest(f)) == f

    @pytest.mark.parametrize("forest", [
        Forest(1, []),
        Forest(6, []),
        make_forest(ForestSpec("star", 9)),
        make_forest(ForestSpec("path", 300)),
        # relabelled: edges given high-low and out of order, stored low-high and ascending
        Forest(7, [(6, 2), (5, 0), (3, 1), (2, 0), (4, 3)]),
        parse_forest("7 3\n0 6\n1 2\n2 5\n"),
        parse_forest(serialize_forest(make_forest(ForestSpec("random", 400, max_degree=50, seed=3)))),
    ], ids=["n1-edgeless", "n6-edgeless", "star", "path", "relabelled", "parsed-small", "parsed-large"])
    def test_serialize_forest_matches_one_line_per_edge(self, forest):
        lines = [f"{forest.n} {len(forest.edges)}", *(f"{u} {v}" for u, v in forest.edges)]
        assert serialize_forest(forest) == "\n".join(lines) + "\n"

    def test_embedding_json_holds_the_map_and_the_sum(self):
        g, forest, emb = random_instance(7, 31)
        assert embedding_to_json(emb) == {"map": list(emb.forward), "sum": subgraph_sum(g, emb, forest)}

    @pytest.mark.parametrize("kind, max_degree", [("star", 63), ("broom", 40), ("random", 20)])
    def test_solved_embedding_json_survives_a_json_round_trip(self, kind, max_degree):
        # solve builds its maps from numpy rows; the JSON must hold plain ints, which json.dumps accepts
        g = random_balanced_colouring(64, 3)
        forest = make_forest(ForestSpec(kind, 64, max_degree=max_degree, seed=4))
        data = embedding_to_json(solve(forest, g).embedding)
        assert json.loads(json.dumps(data)) == data
        assert all(type(t) is int for t in data["map"]) and type(data["sum"]) is int

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

    def test_forest_header_checked_against_graph_n_before_allocating(self):
        with pytest.raises(InvalidInputError, match="^forest has 1000000 vertices but graph has 9$"):
            parse_forest("1000000 0\n", graph_n=9)
        assert parse_forest("3 1\n0 2\n", graph_n=3) == parse_forest("3 1\n0 2\n")

    def test_colouring_length_checked_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(InvalidInputError) as err:
                parse_colouring("100000000\nR\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == "expected 99999999 colour rows, found 1"
        assert peak < 1 << 20

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_random_balanced(self, seed):
        n = (4, 5, 8, 9)[seed % 4]
        g = random_balanced_colouring(n, seed)
        assert parse_colouring(serialize_colouring(g)) == g


def reference_parse_colouring(text):
    """Row-by-row parser: every row checked and copied in file order, then from_red_matrix."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InvalidInputError("empty colouring file")
    try:
        n = int(lines[0])
    except ValueError:
        raise InvalidInputError(f"bad vertex count line: {lines[0]!r}") from None
    if n < 2:
        raise InvalidInputError(f"need at least 2 vertices, got n={n}")
    if len(lines) != n:
        raise InvalidInputError(f"expected {n - 1} colour rows, found {len(lines) - 1}")
    red = np.zeros((n, n), dtype=bool)
    for i in range(1, n):
        row = lines[i]
        if len(row) != i or not set(row) <= {"R", "B"}:
            raise InvalidInputError(f"row {i} must be {i} characters over RB, got {row!r}")
        for j, c in enumerate(row):
            red[i, j] = red[j, i] = c == "R"
    return ColouredCompleteGraph.from_red_matrix(red)


def reference_forest(n, edges):
    """Forest as built edge by edge before the union-find pass: a seen set, a sort, per-vertex sorted()."""
    if n < 1:
        raise InvalidInputError(f"need at least 1 vertex, got n={n}")
    norm = []
    seen = set()
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    degree = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidInputError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise InvalidInputError(f"self-loop at vertex {u}")
        if u > v:
            u, v = v, u
        if (u, v) in seen:
            raise InvalidInputError(f"duplicate edge ({u},{v})")
        seen.add((u, v))
        ru, rv = find(u), find(v)
        if ru == rv:
            raise InvalidInputError(f"edge ({u},{v}) closes a cycle")
        parent[ru] = rv
        degree[u] += 1
        degree[v] += 1
        norm.append((u, v))
    norm.sort()
    adj = [[] for _ in range(n)]
    for u, v in norm:
        adj[u].append(v)
        adj[v].append(u)
    return ReferenceForest(n, tuple(norm), tuple(degree), max(degree), min(degree),
                           tuple(tuple(sorted(a)) for a in adj))


class ReferenceForest(NamedTuple):
    """What reference_forest builds: a plain record of the attributes forest_attrs reads."""

    n: int
    edges: tuple
    degree: tuple
    max_degree: int
    min_degree: int
    neighbours: tuple


def forest_attrs(f):
    return f.n, f.edges, f.degree, f.max_degree, f.min_degree, f.neighbours


def reference_parse_forest(text):
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InvalidInputError("empty forest file")
    head = lines[0].split()
    try:
        n, m = map(int, head)
    except ValueError:
        raise InvalidInputError(f"bad header line: {lines[0]!r}") from None
    if m < 0:
        raise InvalidInputError(f"need a non-negative edge count, got m={m}")
    if len(lines) - 1 != m:
        raise InvalidInputError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        try:
            u, v = map(int, ln.split())
        except ValueError:
            raise InvalidInputError(f"bad edge line: {ln!r}") from None
        edges.append((u, v))
    return reference_forest(n, edges)


def _underscored_header(text):
    """The text with its first number spelt with an underscore, as int() accepts: "5_12", or "0_9" for one digit."""
    k = len(text.split(maxsplit=1)[0])
    head = f"{text[0]}_{text[1:k]}" if k > 1 else f"0_{text[0]}"
    return head + text[k:]


#: the canonical text, and copies of it that are not canonical but that the
#: line-by-line route reads as the same object
PERTURBATIONS = {
    "canonical": lambda text: text,
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "trailing-spaces": lambda text: text.replace("\n", "  \n"),
    "blank-line": lambda text: text.replace("\n", "\n\n", 1),
    "no-final-newline": lambda text: text[:-1],
    "header-space": lambda text: " " + text,
    "header-plus": lambda text: "+" + text,
    "header-underscore": _underscored_header,
}

#: the benchmark's n = 9 and 512, and sizes at and just past the mirror's band edges
PARSE_SIZES = (2, 9, 64, 65, 128, 129, 257, 512)


@pytest.fixture
def slow_route_calls(monkeypatch):
    """The texts that reached the line-by-line route of either parser, recorded as it is entered."""
    calls = []
    content_lines = core._content_lines

    def spy(text):
        calls.append(text)
        return content_lines(text)

    monkeypatch.setattr(core, "_content_lines", spy)
    return calls


@pytest.fixture
def constructor_calls(monkeypatch):
    """The n of every Forest.__init__ call (the route that checks each edge in input order), recorded on entry."""
    calls = []
    init = Forest.__init__

    def spy(self, n, edges):
        calls.append(n)
        init(self, n, edges)

    monkeypatch.setattr(Forest, "__init__", spy)
    return calls


def outcome(parse, text):
    """The parsed value, a forest given by all its attributes, or the message of the InvalidInputError.

    Any other exception propagates.
    """
    try:
        result = parse(text)
    except InvalidInputError as exc:
        return f"{type(exc).__name__}: {exc}"
    return forest_attrs(result) if isinstance(result, (Forest, ReferenceForest)) else result


def mutate(text, pos, char, kind):
    pos %= len(text) + 1
    if kind == "insert":
        return text[:pos] + char + text[pos:]
    return text[:pos] + (char if kind == "replace" else "") + text[pos + 1:]


class TestColouringParser:
    @given(st.integers(2, 64), st.integers(0, 2**32 - 1))
    @example(65, 1)
    @example(128, 2)
    @example(129, 3)
    @example(257, 4)
    @settings(max_examples=60, deadline=None)
    def test_matches_row_by_row_reference(self, n, seed):
        rng = random.Random(seed)

        def pad():
            return rng.choice(["", " ", "\t", " \t "])

        lines = [str(n)] + ["".join(rng.choice("RB") for _ in range(i)) for i in range(1, n)]
        eol = rng.choice(["\n", "\r\n"])
        text = "".join(rng.choice(["", eol, f" {eol}\t{eol}"]) + pad() + ln + pad() + eol for ln in lines)
        g = parse_colouring(text + rng.choice(["", eol, "  "]))
        assert g == reference_parse_colouring(text)
        assert g.matrix.dtype == np.int8 and not g.matrix.flags.writeable

    @pytest.mark.parametrize("text, message", [
        ("", "empty colouring file"),
        (" \n\t\n", "empty colouring file"),
        ("4\nR\nB\nRRB\n", "row 2 must be 2 characters over RB, got 'B'"),
        ("4\nR\nBRR\nRRB\n", "row 2 must be 2 characters over RB, got 'BRR'"),
        ("4\nR\nBR\nRRX\n", "row 3 must be 3 characters over RB, got 'RRX'"),
        ("4\nR\nBR\nRBÉ\n", "row 3 must be 3 characters over RB, got 'RBÉ'"),
        ("4\nX\nBR\nRRX\n", "row 1 must be 1 characters over RB, got 'X'"),
        ("4\nRR\nB\nRRB\n", "row 1 must be 1 characters over RB, got 'RR'"),
        ("4\nR\nR B\nRRB\n", "row 2 must be 2 characters over RB, got 'R B'"),
        ("4\nR\nBR\n", "expected 3 colour rows, found 2"),
        ("3\nR\nBR\nRRB\n", "expected 2 colour rows, found 3"),
        ("0\n", "need at least 2 vertices, got n=0"),
        ("-3\n", "need at least 2 vertices, got n=-3"),
        ("1\n", "need at least 2 vertices, got n=1"),
        ("1\nR\n", "need at least 2 vertices, got n=1"),
        ("three\nR\n", "bad vertex count line: 'three'"),
        ("2.0\nR\n", "bad vertex count line: '2.0'"),
    ])
    def test_malformed_text_message(self, text, message):
        with pytest.raises(InvalidInputError) as err:
            parse_colouring(text)
        assert str(err.value) == message
        assert outcome(reference_parse_colouring, text) == f"InvalidInputError: {message}"

    @pytest.mark.parametrize("n", BAND_EDGE_SIZES)
    def test_serialize_round_trip(self, n):
        g = random_balanced_colouring(n, 5) if n % 4 in (0, 1) else random_colouring(n, 5)
        text = serialize_colouring(g)
        back = parse_colouring(text)
        assert back == g
        assert serialize_colouring(back) == text

    @pytest.mark.parametrize("perturb", PERTURBATIONS)
    @pytest.mark.parametrize("n", PARSE_SIZES)
    def test_canonical_and_perturbed_text_agree(self, n, perturb, slow_route_calls):
        g = random_colouring(n, n)
        text = PERTURBATIONS[perturb](serialize_colouring(g))
        assert parse_colouring(text) == g == reference_parse_colouring(text)
        # only canonical text skips the line-by-line route
        assert slow_route_calls == ([] if perturb == "canonical" else [text])

    @pytest.mark.parametrize("n, row", [(64, 2), (64, 31), (64, 62), (129, 2), (129, 64), (129, 127)])
    def test_moved_diagonal_newline_gives_the_reference_message(self, n, row):
        text = serialize_colouring(random_colouring(n, row))
        end = row * (row + 3) // 2 + len(str(n))  # the row's line end
        moved = text[:end - 1] + "\n" + text[end - 1] + text[end + 1:]  # swapped with the row's last colour
        assert len(moved) == len(text) and sorted(moved) == sorted(text)
        message = outcome(parse_colouring, moved)
        assert message == outcome(reference_parse_colouring, moved)
        assert message.startswith(f"InvalidInputError: row {row} must be {row} characters over RB")

    @given(
        st.lists(st.sampled_from(["R", "B", "RB", "BR", "X", "É", " ", "2", "3", "\n", "\n\n", "\t"]), max_size=24)
    )
    @settings(max_examples=200, deadline=None)
    def test_fuzzed_text_matches_reference(self, tokens):
        text = "".join(tokens)
        assert outcome(parse_colouring, text) == outcome(reference_parse_colouring, text)

    @given(
        st.integers(2, 12), st.integers(0, 2**32 - 1), st.integers(0, 200),
        st.sampled_from(["R", "B", "X", "É", " ", "\n", "1"]), st.sampled_from(["replace", "insert", "delete"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_mutated_text_matches_reference(self, n, seed, pos, char, kind):
        text = mutate(serialize_colouring(random_colouring(n, seed)), pos, char, kind)
        assert outcome(parse_colouring, text) == outcome(reference_parse_colouring, text)


class TestForestParser:
    @given(
        st.lists(
            st.sampled_from(["0", "1", "2", "3", "5", "12", "-1", "x", "1.5", " ", "  ", "\n", "\n\n", "\t"]),
            max_size=24,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_fuzzed_text_matches_reference(self, tokens):
        text = "".join(tokens)
        assert outcome(parse_forest, text) == outcome(reference_parse_forest, text)

    @given(
        st.integers(1, 64), st.integers(0, 2**32 - 1), st.integers(0, 800),
        st.sampled_from(["0", "7", "x", " ", "\n", "-"]), st.sampled_from(["replace", "insert", "delete"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_mutated_text_matches_reference(self, n, seed, pos, char, kind):
        forest = make_forest(ForestSpec("random", n, max_degree=max(1, n // 2), seed=seed))
        text = mutate(serialize_forest(forest), pos, char, kind)
        assert outcome(parse_forest, text) == outcome(reference_parse_forest, text)

    @given(
        st.lists(
            st.lists(
                st.sampled_from([
                    "0", "1", "2", "3", "1_0", "\u0663", "+1", "-0", "|", "1|", "x", "9223372036854775807",
                    "9223372036854775808", "-9223372036854775809", "99999999999999999999",
                ]),
                min_size=1, max_size=3,
            ),
            max_size=6,
        ),
        st.sampled_from([" ", "\t", "  "]),
    )
    @settings(max_examples=300, deadline=None)
    def test_edge_tokens_convert_as_int_does(self, lines, gap):
        # int() accepts "1_0" and non-ASCII digits; "|" is the separator the
        # lines are joined with before the split; ends past int64 take the
        # Python-int route to Forest
        text = f"12 {len(lines)}\n" + "".join(gap.join(tokens) + "\n" for tokens in lines)
        assert outcome(parse_forest, text) == outcome(reference_parse_forest, text)

    @pytest.mark.parametrize("text, message", [
        ("3 1\n0 1 |\n", "bad edge line: '0 1 |'"),
        ("3 2\n0 1\n1 2 |\n", "bad edge line: '1 2 |'"),
        ("3 2\n0 1 2\n1\n", "bad edge line: '0 1 2'"),
        ("3 2\n0\n1 2 0\n", "bad edge line: '0'"),
        ("3 2\n0 |\n1 2\n", "bad edge line: '0 |'"),
        ("3 2\n| 1\n1 2\n", "bad edge line: '| 1'"),
        ("3 1\n0 99999999999999999999\n", "edge (0,99999999999999999999) out of range for n=3"),
        ("3 1\n-9223372036854775809 1\n", "edge (-9223372036854775809,1) out of range for n=3"),
        ("3 2\n1 1\n0 99999999999999999999\n", "self-loop at vertex 1"),
        ("3 2\n0 99999999999999999999\n0 x\n", "bad edge line: '0 x'"),
        ("3 2\n0 9223372036854775807\n0 x\n", "bad edge line: '0 x'"),
        ("3 2\n2 1\n1 2\n", "duplicate edge (1,2)"),
        ("3 3\n0 1\n1 2\n2 0\n", "edge (0,2) closes a cycle"),
        ("3 -1\n", "need a non-negative edge count, got m=-1"),
        ("3 -2\n0 1\n", "need a non-negative edge count, got m=-2"),
    ])
    def test_malformed_text_message(self, text, message):
        with pytest.raises(InvalidInputError) as err:
            parse_forest(text)
        assert str(err.value) == message
        assert outcome(reference_parse_forest, text) == f"InvalidInputError: {message}"

    def test_int_spellings_parse_as_int_does(self):
        f = parse_forest("12 2\n1_0 \u0663\n+0 1_1\n")
        assert f.edges == ((0, 11), (3, 10))
        assert all(type(x) is int for edge in f.edges for x in edge)

    @pytest.mark.parametrize("perturb", PERTURBATIONS)
    @pytest.mark.parametrize("n", PARSE_SIZES)
    def test_canonical_and_perturbed_text_agree(self, n, perturb, slow_route_calls):
        forest = make_forest(ForestSpec("random", n, max_degree=max(2, n // 8), seed=n))
        text = PERTURBATIONS[perturb](serialize_forest(forest))
        parsed = parse_forest(text, n)
        assert parsed == forest and forest_attrs(parsed) == forest_attrs(reference_parse_forest(text))
        assert slow_route_calls == ([] if perturb == "canonical" else [text])

    @pytest.mark.parametrize("n", PARSE_SIZES)
    def test_serialized_text_skips_the_constructor(self, n, constructor_calls):
        forest = make_forest(ForestSpec("random", n, max_degree=max(2, n // 8), seed=n))
        text = serialize_forest(forest)
        constructor_calls.clear()  # make_forest's own
        assert parse_forest(text) == forest and constructor_calls == []
        # a text the canonical check refuses is read line by line, rejoined and read again the same way
        assert parse_forest(text.replace("\n", "\r\n")) == forest and constructor_calls == []

    @given(forest_edge_lists(max_n=300))
    @example((1, []))
    @example((300, [(v - 1, v) for v in range(1, 300)]))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_keeps_the_arrays_of_the_tuples(self, case):
        # n + m from 256 on takes the numpy route, below it the one-pass route
        n, edges = case
        forest = Forest(n, edges)
        parsed = parse_forest(serialize_forest(forest))
        assert forest_attrs(parsed) == forest_attrs(forest)
        m = len(forest.edges)
        for f in (parsed, forest):
            assert f.edge_array.dtype == f.degree_array.dtype == np.intp
            np.testing.assert_array_equal(f.edge_array, np.array(forest.edges, dtype=np.intp).reshape(m, 2))
            np.testing.assert_array_equal(f.degree_array, np.array(forest.degree, dtype=np.intp))
            assert not f.edge_array.flags.writeable and not f.degree_array.flags.writeable
            assert f.edge_array is f.edge_array and f.degree_array is f.degree_array

    @pytest.mark.parametrize("fault", ["high-low", "swapped lines", "high is n", "repeated line", "cycle"])
    @pytest.mark.parametrize("n", [9, 257])
    def test_canonical_shaped_text_out_of_order_gives_the_reference_outcome(self, n, fault, constructor_calls):
        # n = 9 takes the one-pass route and n = 257 the numpy one
        forest = make_forest(ForestSpec("random", n, max_degree=max(2, n // 8), seed=n))
        head, *lines = serialize_forest(forest).splitlines()
        i = len(lines) // 2
        u, v = map(int, lines[i].split())
        if fault == "high-low":
            lines[i] = f"{v} {u}"
        elif fault == "swapped lines":
            lines[i], lines[i + 1] = lines[i + 1], lines[i]
        elif fault == "high is n":
            # on the last line, which then still sorts last: only the range check refuses it
            lines[-1] = f"{lines[-1].split()[0]} {n}"
        elif fault == "repeated line":
            lines[i + 1] = lines[i]
        else:
            # the triangle 0-1-2 closes a cycle; the largest edges make room, so the lines stay ascending
            lines = [f"{a} {b}" for a, b in sorted({*forest.edges, (0, 1), (0, 2), (1, 2)})[:len(lines)]]
        text = "\n".join([head, *lines, ""])
        constructor_calls.clear()
        assert outcome(parse_forest, text) == outcome(reference_parse_forest, text)
        # the one pass (n = 9) hands every fault to the constructor; numpy (n = 257) sorts an order fault
        # and refuses a repeat or a cycle itself, and hands only the range fault over
        numpy_alone = n == 257 and fault != "high is n"
        assert constructor_calls == ([] if numpy_alone else [n])

    @pytest.mark.parametrize("text", ["0 0\n", "1 0\n", "9 0\n"])
    def test_edgeless_canonical_text_gives_the_reference_outcome(self, text, constructor_calls):
        constructor_calls.clear()
        assert outcome(parse_forest, text) == outcome(reference_parse_forest, text)
        # n = 0 needs the constructor's message; any other n takes the one-pass route
        assert constructor_calls == ([0] if text == "0 0\n" else [])

    @pytest.mark.parametrize("text", [
        "12 2\n0000000000000000001 2\n3 4\n",
        "12 2\n1 2\n3 0000000000000000000004\n",
        "12 1\n9999999999999999999 2\n",
        "0000000000000000012 1\n1 2\n",
        "12 2\n1\t2\n3 4\n",
        "12\t2\n1 2\n3 4\n",
        "12 2\n1  2\n3 4\n",
        "12  2\n1 2\n3 4\n",
        "12 2\n1 2\n3 4",
        "12 2\n1 2\n3 \n4",  # four numbers in the edge lines, but the last one trails past the last newline
    ])
    def test_non_canonical_tokens_take_the_int_route(self, text, slow_route_calls):
        assert outcome(parse_forest, text) == outcome(reference_parse_forest, text)
        assert slow_route_calls == [text]


#: the regular expression that spelt a canonical forest file before core._canonical_numbers replaced it
CANONICAL_FOREST = re.compile(r"(?:[0-9]{1,18} [0-9]{1,18}\n)+")

#: tokens around the regular expression's edges: 18 and 19 digits, leading zeros, int64's end and past it
_CANONICAL_TOKENS = [
    "0", "7", "12", "512", "007", "1" * 18, "1" * 19, "0" * 17 + "1", "0" * 18 + "1", "999999999999999999",
    "1000000000000000000", "9223372036854775807", "9223372036854775808", "99999999999999999999",
    "", "\u0663", "+1", "-1", "1_0", "x",
]


@st.composite
def canonical_shaped_texts(draw):
    """Lines of two tokens, mostly as serialize_forest writes them, some with another gap, end or token."""
    token = st.sampled_from(_CANONICAL_TOKENS) | st.integers(0, 10**18).map(str)
    gap = st.sampled_from([" "] * 6 + ["  ", "\t", "", " \t"])
    end = st.sampled_from(["\n"] * 6 + ["\r\n", "", " \n", "\n\n"])
    lines = draw(st.lists(st.tuples(token, gap, token, end), max_size=6))
    text = "".join(a + g + b + e for a, g, b, e in lines)
    return draw(st.sampled_from([text, text[:-1], " " + text, text + "5", text + "5 6\n"]))


def distinct_high_edges(n, rng):
    """Ascending edges in which each vertex v > 0 has at most one lower neighbour, drawn with rng."""
    return sorted((rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.9)


@contextmanager
def union_find_calls():
    """The result of every core._first_cycle_edge call, the union-find pass of the numpy route, made inside the block."""
    calls = []
    first_cycle_edge = core._first_cycle_edge

    def spy(n, ends):
        calls.append(first_cycle_edge(n, ends))
        return calls[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_first_cycle_edge", spy)
        yield calls


class TestCanonicalForestRoute:
    @given(canonical_shaped_texts())
    @example("1 2\n")
    @example("1 1234567890123456789\n")
    @example("9223372036854775808 1\n")
    @example("0000000000000000001 2\n")
    @example("000000000000000001 2\n")
    @example("1 2\n3 4")
    @example("0 0\n0 \n5")  # an empty run, made up by a run past the last newline
    @example("1 2\r\n")
    @example(" 1\n")
    @example("1 \n")
    @example("")
    @settings(max_examples=400, deadline=None)
    def test_canonical_check_accepts_what_the_regex_accepts(self, text):
        numbers = core._canonical_numbers(text)
        assert (numbers is not None) == bool(CANONICAL_FOREST.fullmatch(text))
        if numbers is not None:
            assert numbers.dtype == np.int64 and numbers.tolist() == [int(t) for t in text.split()]

    @given(st.integers(2, 400), st.integers(0, 2**32 - 1))
    @example(512, 0)
    @settings(max_examples=60, deadline=None)
    def test_distinct_high_ends_never_close_a_cycle(self, n, seed):
        edges = distinct_high_edges(n, random.Random(seed))
        reference = reference_forest(n, edges)  # the reference union-find raises at any cycle
        text = serialize_forest(Forest(n, edges))
        with union_find_calls() as calls:
            parsed = parse_forest(text)
        assert forest_attrs(parsed) == forest_attrs(reference)
        assert calls == []

    @given(st.integers(129, 400), st.integers(0, 2**32 - 1), st.sampled_from(["cycle", "repeat"]))
    @settings(max_examples=40, deadline=None)
    def test_cycles_and_repeats_with_many_edges_take_the_fallback(self, n, seed, fault):
        rng = random.Random(seed)
        edges = [(v - 1, v) for v in range(1, n)]  # a path: every vertex on a cycle would need two lower neighbours
        if fault == "cycle":
            u = rng.randrange(n - 2)
            edges.append((u, rng.randrange(u + 2, n)))
        else:
            edges.append(rng.choice(edges))
        text = "".join([f"{n} {len(edges)}\n", *(f"{u} {v}\n" for u, v in sorted(edges))])
        with union_find_calls() as calls:
            message = outcome(parse_forest, text)
        assert message == outcome(reference_parse_forest, text)
        assert message.startswith("InvalidInputError: " + ("edge" if fault == "cycle" else "duplicate edge"))
        # one union-find pass, which stops at the edge the message names
        assert len(calls) == 1 and "({},{})".format(*sorted(edges)[calls[0]]) in message

    @pytest.mark.parametrize("kind", ["path", "random", "relabelled", "constructor"])
    def test_swap_delta_on_the_flat_adjacency_matches_a_numpy_reference(self, kind):
        n, rng = 512, random.Random(kind)
        g = random_colouring(n, 3)
        spec = ForestSpec("path", n) if kind == "path" else ForestSpec("random", n, max_degree=n // 8, seed=5)
        tree = make_forest(spec)
        if kind == "relabelled":
            perm = list(range(n))
            rng.shuffle(perm)
            tree = Forest(n, [(perm[u], perm[v]) for u, v in tree.edges])
        forest = tree if kind == "constructor" else parse_forest(serialize_forest(tree))
        edges = np.array(tree.edges, dtype=np.intp).reshape(-1, 2)
        fwd = list(range(n))
        rng.shuffle(fwd)
        pairs = [tuple(rng.sample(range(n), 2)) for _ in range(200)]
        # the parsed forests' neighbours are unbuilt, so swap_delta reads the flat adjacency
        assert (forest._neighbours is None) == (kind != "constructor")
        deltas = [core.swap_delta(fwd, u, v, forest, g) for u, v in pairs]
        assert (forest._neighbours is None) == (kind != "constructor")
        for (u, v), delta in zip(pairs, deltas):
            swapped = list(fwd)
            swapped[u], swapped[v] = swapped[v], swapped[u]
            assert delta == numpy_sum(g, swapped, edges) - numpy_sum(g, fwd, edges)
        off, flat = forest.adjacency
        assert len(off) == n + 1 and all(type(x) is int for x in (*off, *flat))
        assert [tuple(flat[off[v]:off[v + 1]]) for v in range(n)] == list(tree.neighbours)
        # once the neighbour tuples are read, swap_delta reads them instead and agrees
        assert forest.neighbours == tree.neighbours
        assert [core.swap_delta(fwd, u, v, forest, g) for u, v in pairs] == deltas

    def test_large_parsed_forest_builds_its_tuples_on_first_read(self):
        tree = make_forest(ForestSpec("random", 300, max_degree=20, seed=2))
        forest = parse_forest(serialize_forest(tree))
        assert forest._edges is forest._degree is forest._neighbours is forest._adjacency is None
        assert (forest.n, forest.edge_count, forest.max_degree, forest.min_degree) == (
            tree.n, len(tree.edges), max(tree.degree), min(tree.degree))
        assert forest_attrs(forest) == forest_attrs(tree)
        assert forest.edges is forest.edges and forest.degree is forest.degree
        assert forest.neighbours is forest.neighbours and forest.adjacency is forest.adjacency
        assert all(type(t) is tuple for t in (forest.edges, forest.degree, forest.neighbours, *forest.edges))
        assert all(type(x) is int for x in [*chain.from_iterable(forest.edges), *forest.degree])

    @pytest.mark.parametrize("text, edges, max_degree", [
        ("1000000 0\n", (), 0),
        ("1000000 3\n0 1\n1 2\n5 999999\n", ((0, 1), (1, 2), (5, 999999)), 2),
        # a star whose centre is every edge's high end: the union-find pass numbers only the 4 vertices it meets
        ("1000000 3\n7 999999\n8 999999\n9 999999\n", ((7, 999999), (8, 999999), (9, 999999)), 3),
    ])
    def test_huge_sparse_canonical_file_builds_no_list_of_length_n(self, text, edges, max_degree):
        tracemalloc.start()
        try:
            start = time.perf_counter()
            forest = parse_forest(text)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the degree vector, 8 MB of intp, is the one array of length n
        assert peak < 20 << 20 and elapsed < 0.2
        assert forest.edges == edges and forest.edge_count == len(edges)
        degree = forest.degree_array
        assert len(degree) == 10**6 and degree.sum() == 2 * len(edges)
        assert (forest.max_degree, forest.min_degree) == (max_degree, 0)

    @pytest.mark.parametrize("text", [
        "1000000 1\n5 3\n",
        "1000000 3\n999999 7\n1 2\n0 1\n",
        "1000000 4\n8 999999\n0 1\n999999 7\n2 1\n",
    ])
    def test_huge_file_with_only_an_order_fault_builds_no_list_of_length_n(self, text):
        # edges written high-low or out of order are sorted by numpy, not handed to the constructor
        head, *lines = text.splitlines()
        n = int(head.split()[0])
        edges = [tuple(map(int, line.split())) for line in lines]
        tracemalloc.start()
        try:
            start = time.perf_counter()
            forest = parse_forest(text)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 << 20 and elapsed < 0.2
        assert forest == Forest(n, edges)
        assert forest.edges == tuple(sorted(tuple(sorted(e)) for e in edges))
        assert forest.degree == Forest(n, edges).degree

    @pytest.mark.parametrize("text", [
        "1000000 2\n3 5\n3 5\n",
        "1000000 3\n3 5\n3 7\n5 7\n",
        # out of order and high-low: the first fault in file order is the repeat, not the sorted order's cycle
        "1000000 4\n7 5\n3 5\n5 3\n3 7\n",
        "1000000 5\n7 5\n999999 8\n3 7\n5 3\n3 5\n",
    ])
    def test_huge_file_with_a_repeat_or_a_cycle_is_refused_with_no_list_of_length_n(self, text):
        head, *lines = text.splitlines()
        n = int(head.split()[0])
        edges = [tuple(map(int, line.split())) for line in lines]
        with pytest.raises(InvalidInputError) as expected:
            Forest(n, edges)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(InvalidInputError) as refused:
                parse_forest(text)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 << 20 and elapsed < 0.2
        assert str(refused.value) == str(expected.value)

    @pytest.mark.parametrize("text", ["1000000 1\r\n0 1\r\n", "1000000 1\n0  1\n", " 1000000 1\n0 1\n"])
    def test_huge_non_canonical_file_is_rejoined_and_takes_the_canonical_route(self, text):
        tracemalloc.start()
        try:
            start = time.perf_counter()
            forest = parse_forest(text)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 << 20 and elapsed < 0.2
        assert forest == parse_forest("1000000 1\n0 1\n")

    @given(st.integers(129, 400), st.integers(0, 2**32 - 1), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_shuffled_faults_get_the_constructors_message(self, n, seed, faults):
        rng = random.Random(seed)
        edges = [(rng.randrange(v), v) for v in range(1, n)]  # a random tree
        for _ in range(faults):  # repeats and cycle-closing edges, either way round, anywhere
            u, v = rng.choice(edges) if rng.random() < 0.5 else rng.sample(range(n), 2)
            edges.insert(rng.randrange(len(edges) + 1), (u, v))
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
        text = "".join([f"{n} {len(edges)}\n", *(f"{u} {v}\n" for u, v in edges)])
        with union_find_calls() as calls:
            message = outcome(parse_forest, text)
        assert message == outcome(lambda _: Forest(n, edges), text)
        assert message.startswith("InvalidInputError: ") and len(calls) == 1
