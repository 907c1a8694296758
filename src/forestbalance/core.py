"""Core types: +/-1 edge-coloured complete graphs, forests, and embeddings.

All quantities are exact integers.  Edge colours, +1 (red) or -1 (blue), are
stored as one read-only int8 array: the packed inclusive lower triangle of the
colour matrix, with 0 in the diagonal cells.  Scoring reads the colour of an
edge straight from it; the n x n matrix is built only when something reads it.
"""

from __future__ import annotations

import functools
from itertools import chain, islice
from operator import index
from typing import Iterable, Iterator, Sequence

import numpy as np


class InvalidInputError(ValueError):
    """Raised when an argument violates a documented precondition."""


class ParityError(InvalidInputError):
    """Raised when an edge count cannot be split evenly between two colours."""


class CertificateError(AssertionError):
    """A guarantee the construction proves did not hold: a defect in the program.

    Raised explicitly so the check also runs under ``python -O``.
    """


class PreconditionError(InvalidInputError):
    """An input outside the conditions a construction needs, though otherwise well formed."""


RED = 1
BLUE = -1

#: columns per band when the matrix is mirrored from its lower triangle: a
#: 64 x 64 int8 block and its transpose take 8 KB of L1
_BAND = 64


class ColouredCompleteGraph:
    """A symmetric {-1,+1} colouring of the edges of K_n.

    The colouring is stored as ``triangle``: one read-only int8 array of the
    n(n+1)/2 cells of the colour matrix's inclusive lower triangle in row
    order.  Row i starts at offset i(i+1)/2, so edge ij (i > j) has its
    colour at i(i+1)/2 + j, and every diagonal cell holds 0.  Canonical
    colouring text spells exactly this array, so ``parse_colouring`` wraps
    what it decodes; ``from_lower_triangle`` inserts the diagonal cells and
    ``from_red_matrix`` and the constructor read the triangle off a checked
    n x n matrix (square, n >= 2, symmetric; for the constructor also +-1
    off the diagonal and 0 on it), so every graph owns its triangle.

    The read-only n x n int8 ``matrix``, with the colour of ij at [i, j] and
    [j, i] and 0 on the diagonal, is built from the triangle on first read
    and cached: degree sums, neighbour lists and the oracle read it.  Scoring
    (``_score``, ``swap_delta`` and ``edge_colours``) reads the triangle, so
    a solve that never asks for a degree never builds the matrix.  Degree
    sums reduce each row in int32, which holds any signed degree
    (|sd| <= n - 1), and return int64; the signed degree vector, read-only,
    is computed once and cached too.  Immutable; safe to share across
    threads for reading (two threads that both build the matrix or the
    degrees build equal ones).
    """

    __slots__ = ("n", "_triangle", "_matrix", "_cells", "_signed_degrees")

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix)
        n = _checked_order(matrix, "colour")
        off_diagonal = matrix[~np.eye(n, dtype=bool)]
        if np.diagonal(matrix).any() or not ((off_diagonal == RED) | (off_diagonal == BLUE)).all():
            raise InvalidInputError("colour matrix must hold +1 or -1 off the diagonal and 0 on it")
        triangle = matrix[_triangle_layout(n)[0]].astype(np.int8)  # a copy: later writes to matrix do not reach it
        triangle.flags.writeable = False
        self.n, self._triangle, self._matrix, self._cells, self._signed_degrees = n, triangle, None, None, None

    @classmethod
    def _of_triangle(cls, n: int, triangle: np.ndarray) -> "ColouredCompleteGraph":
        """Wrap the packed inclusive lower triangle of a colouring of K_n, made read-only in place."""
        triangle.flags.writeable = False
        g = cls.__new__(cls)
        g.n, g._triangle, g._matrix, g._cells, g._signed_degrees = n, triangle, None, None, None
        return g

    @classmethod
    def from_red_matrix(cls, red: np.ndarray) -> "ColouredCompleteGraph":
        """Build from a symmetric boolean matrix (True = red); diagonal ignored."""
        red = np.asarray(red, dtype=bool)
        n = _checked_order(red, "red")
        mask, diagonal, _ = _triangle_layout(n)
        # True/False viewed as int8 is 1/0, so 2 * red - 1 is RED/BLUE
        triangle = red[mask].view(np.int8) * 2 - 1
        triangle[diagonal] = 0
        return cls._of_triangle(n, triangle)

    @classmethod
    def from_lower_triangle(cls, n: int, signs: np.ndarray) -> "ColouredCompleteGraph":
        """Build from the int8 colours (+1 red, -1 blue) of the pairs (1,0), (2,0), (2,1), ... in that order.

        The colouring is symmetric with a zero diagonal by construction, so
        nothing is re-checked; ``signs`` must hold n(n-1)/2 values in {-1, +1}.
        """
        triangle = np.zeros(n * (n + 1) // 2, dtype=np.int8)
        # boolean-mask assignment fills the off-diagonal cells in order, row by row
        triangle[_triangle_layout(n)[2]] = signs
        return cls._of_triangle(n, triangle)

    @property
    def triangle(self) -> np.ndarray:
        """The read-only int8 inclusive lower triangle, n(n+1)/2 cells in row order (see the class docstring)."""
        return self._triangle

    @property
    def matrix(self) -> np.ndarray:
        """The read-only n x n int8 colour matrix, built from the triangle on first read."""
        if self._matrix is None:
            matrix = np.zeros((self.n, self.n), dtype=np.int8)
            matrix[_triangle_layout(self.n)[0]] = self._triangle
            _mirror(matrix)
            matrix.flags.writeable = False
            self._matrix = matrix
        return self._matrix

    def _lookup(self) -> tuple[memoryview, tuple[int, ...]]:
        """The triangle as a read-only memoryview (format ``b``) and its row offsets, built on first use.

        The colour of ij with i >= j is ``cells[off[i] + j]``.  Indexing the
        view gives a Python int several times faster than indexing the
        array; the view shares the triangle's memory.
        """
        if self._cells is None:
            self._cells = memoryview(self.triangle).toreadonly(), _row_offsets(self.n)[0]
        return self._cells

    def edge_colours(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The int8 colours of the edges a[k]b[k] (intp arrays of one shape): one gather from the triangle."""
        cells = _row_offsets(self.n)[1].take(np.maximum(a, b))
        cells += np.minimum(a, b)
        return self.triangle.take(cells)

    def signed_degrees(self) -> np.ndarray:
        """Signed degree of every vertex (see signed_degree), as a read-only int64 vector computed on first call.

        Each row sums in int32, which holds |sd| <= n - 1 exactly and reduces
        int8 about twice as fast as int64 at n = 512.
        """
        if self._signed_degrees is None:
            sd = self.matrix.sum(axis=1, dtype=np.int32).astype(np.int64)
            sd.flags.writeable = False
            self._signed_degrees = sd
        return self._signed_degrees

    def red_degrees(self) -> np.ndarray:
        """Red degree of every vertex, as an int64 vector."""
        return (self.n - 1 + self.signed_degrees()) // 2

    def red_degree(self, v: int) -> int:
        return (self.n - 1 + self.signed_degree(v)) // 2

    def signed_degree(self, v: int) -> int:
        """Red minus blue degree of v; the colour sum of the star at v."""
        return int(self.matrix[v].sum(dtype=np.int64))

    @property
    def red_edge_count(self) -> int:
        return (self.edge_count + self.total_sum()) // 2

    @property
    def edge_count(self) -> int:
        return self.n * (self.n - 1) // 2

    def total_sum(self) -> int:
        """Colour sum over all edges of K_n: red minus blue edges, counted as the triangle's +1 cells."""
        return 2 * int(np.count_nonzero(self.triangle > 0)) - self.edge_count

    def red_neighbours(self, v: int) -> list[int]:
        return np.flatnonzero(self.matrix[v] == RED).tolist()

    def blue_neighbours(self, v: int) -> list[int]:
        return np.flatnonzero(self.matrix[v] == BLUE).tolist()

    def __reduce__(self):
        # the triangle alone: a copy builds its own matrix and memoryview when read
        return ColouredCompleteGraph._of_triangle, (self.n, self.triangle)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ColouredCompleteGraph) and self.n == other.n
                and np.array_equal(self.triangle, other.triangle))

    def __hash__(self):
        return hash((self.n, self.triangle.tobytes()))

    def __repr__(self):
        return f"ColouredCompleteGraph(n={self.n}, red={self.red_edge_count}/{self.edge_count})"


def _checked_order(matrix: np.ndarray, kind: str) -> int:
    """The n of an n x n symmetric ``kind`` matrix with n >= 2; raises InvalidInputError for any other array."""
    n = matrix.shape[0] if matrix.ndim else 0
    if matrix.shape != (n, n):
        raise InvalidInputError("matrix must be square")
    if n < 2:
        raise InvalidInputError(f"need at least 2 vertices, got n={n}")
    if not np.array_equal(matrix, matrix.T):
        raise InvalidInputError(f"{kind} matrix must be symmetric")
    return n


def _mirror(matrix: np.ndarray) -> None:
    """Copy the lower triangle of a zero-diagonal int8 matrix into its upper triangle, in place.

    The upper triangle is written one band of ``_BAND`` columns at a time:
    the block above the diagonal block is the transpose of the band's rows
    left of it, and the diagonal block adds its own transpose.  Each copy
    then reads at most ``_BAND`` rows per column, which stay in L1; one
    whole-matrix transpose walks n rows per column and, at n = 512, takes
    about twice as long.  At most two bands (n <= 128, 16 KB) take one
    in-place add, cheaper than the loop there.
    """
    n = matrix.shape[0]
    if n <= 2 * _BAND:
        matrix += matrix.T
    else:
        for i in range(0, n, _BAND):
            j = min(i + _BAND, n)
            matrix[:i, i:j] = matrix[i:j, :i].T
            block = matrix[i:j, i:j]
            block += block.T


def is_balanced(g: ColouredCompleteGraph) -> bool:
    """True iff the colouring has equally many red and blue edges."""
    return 2 * g.red_edge_count == g.edge_count


def r_balanced_vertices(g: ColouredCompleteGraph, r: int) -> list[int]:
    """Vertices with at least r incident edges of each colour, ascending."""
    if r < 0:
        raise InvalidInputError(f"r must be non-negative, got {r}")
    red = g.red_degrees()
    return np.flatnonzero(np.minimum(red, g.n - 1 - red) >= r).tolist()


#: a forest on n vertices with m edges is built from numpy arrays when n + m reaches this, and makes its
#: tuples on first read; a smaller one builds its tuples at once, since numpy's fixed costs would slow it
_ARRAY_BUILD = 64


class Forest:
    """An acyclic simple graph on n labelled vertices (isolated vertices allowed).

    ``edges`` lists each edge once as (low, high), ascending; ``neighbours``
    lists each vertex's neighbours ascending and ``degree`` each vertex's
    degree, all as tuples of ints.  ``edge_array``, the (m, 2) intp array
    whose row i is ``edges[i]``, and ``degree_array``, the intp vector of
    ``degree``, are read-only.  ``adjacency`` holds the neighbours without a
    tuple per vertex (see there); ``swap_delta`` reads it.  ``edge_count``,
    ``max_degree`` and ``min_degree`` are plain ints.

    The constructor checks each edge in input order, with nothing of size n
    allocated, and hands the edges to one build, chosen by n + m alone.
    Below ``_ARRAY_BUILD`` it makes the tuples at once and the arrays on
    first read; from there on it makes the arrays with numpy and the tuples
    on first read.  ``parse_forest`` feeds the same build.
    """

    __slots__ = ("n", "edge_count", "max_degree", "min_degree", "_edges", "_degree", "_neighbours",
                 "_edge_array", "_degree_array", "_adjacency")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 1:
            raise InvalidInputError(f"need at least 1 vertex, got n={n}")
        pairs: list[tuple[int, int]] = []
        try:
            for u, v in edges:
                if not (0 <= u < n and 0 <= v < n):
                    raise InvalidInputError(f"edge ({u},{v}) out of range for n={n}")
                if u == v:
                    raise InvalidInputError(f"self-loop at vertex {u}")
                pairs.append((index(u), index(v)) if u < v else (index(v), index(u)))
        except (TypeError, ValueError):  # InvalidInputError too, and a malformed pair or value
            # a repeat or a cycle among the earlier edges is the first fault
            _refuse_cycle(pairs, _first_cycle_edge(n, pairs, len(pairs)))
            raise
        self._build(n, pairs)

    def _build(self, n: int, edges: list[tuple[int, int]] | np.ndarray) -> None:
        """Fill in the forest with these edges in input order: pairs (low, high), or the int ends u0 v0 u1 v1 ...

        Every end lies in range(n) and no edge is a self-loop; the first edge
        that repeats one or closes a cycle is refused.  Pairs are checked by
        the union-find and sorted in Python.  Ends, which ``parse_forest``
        passes only from n + m = ``_ARRAY_BUILD`` on, are sorted only when
        not as serialize_forest writes them (low < high, ascending), and
        checked by the union-find only when some vertex is the high end of
        two edges: the largest vertex on a cycle has two lower neighbours on it.
        """
        m = len(edges) if isinstance(edges, list) else len(edges) // 2
        self.n, self.edge_count, self._adjacency = n, m, None
        if isinstance(edges, list):
            _refuse_cycle(edges, _first_cycle_edge(n, edges, m))
            edges.sort()
            if n + m < _ARRAY_BUILD:
                adj: list[list[int]] = [[] for _ in range(n)]
                for u, v in edges:  # ascending edges append each neighbour list in ascending order
                    adj[u].append(v)
                    adj[v].append(u)
                self._edges, self._neighbours = tuple(edges), tuple(map(tuple, adj))
                self._degree = degree = tuple(map(len, adj))
                self.max_degree, self.min_degree = max(degree), min(degree)
                self._edge_array = self._degree_array = None
                return
            ends = np.fromiter(chain.from_iterable(edges), dtype=np.intp, count=2 * m)
        else:
            ends = edges.astype(np.intp, copy=False)
            low, high = ends[0::2], ends[1::2]
            step = low[1:] - low[:-1]
            if not ((low < high).all() and ((step > 0) | (step == 0) & (high[1:] >= high[:-1])).all()):
                lows, highs = np.minimum(low, high), np.maximum(low, high)
                order = np.lexsort((highs, lows))
                ends = np.column_stack((lows[order], highs[order])).ravel()
            top = np.sort(ends[1::2])
            if not (top[1:] != top[:-1]).all():
                flat = edges.tolist()
                it, again = iter(flat), iter(flat)  # pairs made as each pass goes: no list of m tuples
                _refuse_cycle(zip(again, again), _first_cycle_edge(n, zip(it, it), m))
        degree = np.bincount(ends, minlength=n)
        ends = ends.reshape(m, 2)
        ends.flags.writeable = degree.flags.writeable = False
        self._edge_array, self._degree_array = ends, degree
        self.max_degree, self.min_degree = int(degree.max()), int(degree.min())
        self._edges = self._degree = self._neighbours = None

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        if self._edges is None:
            it = iter(self.edge_array.ravel().tolist())
            self._edges = tuple(zip(it, it))  # zip makes each pair a tuple at once, no list per row on the way
        return self._edges

    @property
    def degree(self) -> tuple[int, ...]:
        if self._degree is None:
            self._degree = tuple(self.degree_array.tolist())
        return self._degree

    @property
    def neighbours(self) -> tuple[tuple[int, ...], ...]:
        if self._neighbours is None:
            off, flat = self.adjacency
            flat = tuple(flat)  # so that each slice is a tuple
            self._neighbours = tuple([flat[a:b] for a, b in zip(off, off[1:])])
        return self._neighbours

    @property
    def adjacency(self) -> tuple[list[int], list[int]]:
        """(off, flat): vertex v's neighbours are ``flat[off[v]:off[v + 1]]``, ascending; made on first read.

        One stable argsort of the edge ends makes both lists.
        """
        if self._adjacency is None:
            ends = self.edge_array.ravel()
            # the edges ascend, so a stable sort keeps each vertex's neighbours ascending
            order = np.argsort(ends, kind="stable")
            order ^= 1  # position 2i + 1 holds the other end of the edge at 2i, and the other way round
            off = np.zeros(self.n + 1, dtype=np.intp)
            np.cumsum(self.degree_array, out=off[1:])
            self._adjacency = off.tolist(), ends[order].tolist()
        return self._adjacency

    @property
    def edge_array(self) -> np.ndarray:
        """The read-only (m, 2) intp array of ``edges``, made on first read."""
        if self._edge_array is None:
            array = np.fromiter(chain.from_iterable(self._edges), dtype=np.intp, count=2 * self.edge_count)
            array = array.reshape(self.edge_count, 2)
            array.flags.writeable = False
            self._edge_array = array
        return self._edge_array

    @property
    def degree_array(self) -> np.ndarray:
        """The read-only intp vector of ``degree``, made on first read."""
        if self._degree_array is None:
            degree = np.array(self._degree, dtype=np.intp)
            degree.flags.writeable = False
            self._degree_array = degree
        return self._degree_array

    def isolated_vertices(self) -> list[int]:
        return np.flatnonzero(self.degree_array == 0).tolist()

    def __eq__(self, other) -> bool:
        return isinstance(other, Forest) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Forest(n={self.n}, m={self.edge_count}, max_degree={self.max_degree})"


class Embedding:
    """A bijection from forest vertices onto K_n vertices with its cached colour sum."""

    __slots__ = ("forward", "colour_sum")

    def __init__(self, forward: Iterable[int], colour_sum: int):
        fwd = tuple(forward)
        n = len(fwd)
        hit = [False] * n
        for t in fwd:
            if not (0 <= t < n) or hit[t]:
                raise InvalidInputError("forward map is not a bijection on [n)")
            hit[t] = True
        self.forward = fwd
        self.colour_sum = colour_sum

    @classmethod
    def of_bijection(cls, forward: tuple[int, ...], colour_sum: int) -> "Embedding":
        """Wrap a forward tuple known to be a bijection, e.g. a transposition of one, without the O(n) re-check."""
        emb = cls.__new__(cls)
        emb.forward, emb.colour_sum = forward, colour_sum
        return emb

    @classmethod
    def build(cls, forward: Iterable[int], forest: Forest, graph: ColouredCompleteGraph) -> "Embedding":
        fwd = tuple(forward)
        emb = cls(fwd, 0)
        emb.colour_sum = _score(fwd, forest, graph)
        return emb

    def __eq__(self, other) -> bool:
        return isinstance(other, Embedding) and self.forward == other.forward

    def __hash__(self):
        return hash(self.forward)

    def __repr__(self):
        return f"Embedding(sum={self.colour_sum}, map={list(self.forward)})"


def _score(forward: tuple[int, ...], forest: Forest, graph: ColouredCompleteGraph) -> int:
    cells, off = graph._lookup()
    total = 0
    for u, v in forest.edges:
        a, b = forward[u], forward[v]
        total += cells[off[a] + b] if a > b else cells[off[b] + a]
    return total


def subgraph_sum(g: ColouredCompleteGraph, f: Embedding, forest: Forest) -> int:
    """Colour sum of the embedded forest, recomputed from scratch.

    This is the oracle for every cached sum in the package.
    """
    if len(f.forward) != forest.n or forest.n != g.n:
        raise InvalidInputError(
            f"domain mismatch: |V(F)|={forest.n}, |map|={len(f.forward)}, n={g.n}"
        )
    return _score(f.forward, forest, g)


def swap_delta(forward: Sequence[int], u: int, v: int, forest: Forest, g: ColouredCompleteGraph) -> int:
    """Change in colour sum if the images of forest vertices u and v are exchanged.

    forward is the map's forward sequence: an embedding's tuple, or the list
    an in-place walk swaps.  Only edges incident to u or v are rescored; the
    edge uv (if present) is unaffected because the colouring is symmetric.
    """
    cells, off = g._lookup()
    starts, flat = forest._adjacency or forest.adjacency  # the slot, once made
    nu, nv = flat[starts[u]:starts[u + 1]], flat[starts[v]:starts[v + 1]]
    a, b = forward[u], forward[v]
    row_a, row_b = off[a], off[b]
    delta = 0
    # t is neither a nor b, so each cell is in row max(t, a) or max(t, b) of the triangle
    for w in nu:
        if w != v:
            t = forward[w]
            delta += ((cells[row_b + t] if t < b else cells[off[t] + b])
                      - (cells[row_a + t] if t < a else cells[off[t] + a]))
    for w in nv:
        if w != u:
            t = forward[w]
            delta += ((cells[row_a + t] if t < a else cells[off[t] + a])
                      - (cells[row_b + t] if t < b else cells[off[t] + b]))
    return delta


def swap_images(f: Embedding, u: int, v: int, forest: Forest, g: ColouredCompleteGraph) -> Embedding:
    """New embedding with the images of u and v exchanged; sum updated incrementally."""
    if u == v:
        raise InvalidInputError(f"cannot swap a vertex with itself (u=v={u})")
    delta = swap_delta(f.forward, u, v, forest, g)
    fwd = list(f.forward)
    fwd[u], fwd[v] = fwd[v], fwd[u]
    return Embedding.of_bijection(tuple(fwd), f.colour_sum + delta)


class PartialEmbedding:
    """An injective map from a subset of forest vertices into K_n vertices.

    ``mapping`` and iteration keep the caller's order; ``domain`` is ascending; equality ignores order.
    """

    __slots__ = ("mapping",)

    def __init__(self, mapping: dict[int, int]):
        vals = list(mapping.values())
        if len(set(vals)) != len(vals):
            raise InvalidInputError("partial embedding is not injective")
        if any(v < 0 for v in mapping) or any(t < 0 for t in vals):
            raise InvalidInputError("negative vertex index")
        self.mapping = dict(mapping)

    @property
    def domain(self) -> tuple[int, ...]:
        return tuple(sorted(self.mapping))

    def image(self) -> set[int]:
        return set(self.mapping.values())

    def __getitem__(self, v: int) -> int:
        return self.mapping[v]

    def __contains__(self, v: int) -> bool:
        return v in self.mapping

    def __len__(self) -> int:
        return len(self.mapping)

    def __iter__(self) -> Iterator[int]:
        return iter(self.mapping)

    def __eq__(self, other) -> bool:
        return isinstance(other, PartialEmbedding) and self.mapping == other.mapping

    def __repr__(self):
        return f"PartialEmbedding({self.mapping})"


# ---------------------------------------------------------------------------
# Text / JSON formats
# ---------------------------------------------------------------------------
#
# Colouring file: line 1 is n; line i of the following n-1 lines (vertex i,
# 1-based over 0..n-1) has i characters over {R, B}, character j giving the
# colour of edge (i, j-1).
#
# Forest file: line 1 is "n m"; then m lines "u v".
#
# Embedding JSON: {"map": [t0, ..., t_{n-1}], "sum": s}.
#
# Canonical text (serialize_*) has LF line ends, no padding and no blank lines;
# the parsers also accept CRLF, padding and blank lines.  From the header's own
# "\n" on, a canonical colouring file is the graph's ``triangle`` with "\n" in
# every diagonal cell: row i and its line end are i + 1 bytes at offset
# i(i+1)/2, its "\n" at offset i(i+3)/2.


@functools.lru_cache(maxsize=4)
def _triangle_layout(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The inclusive lower triangle of an n x n matrix, all read-only.

    Its boolean n x n mask, its diagonal cells' offsets in the packed
    triangle, and a boolean vector over the packed cells, True off the diagonal.
    """
    i = np.arange(n)
    mask, diagonal = np.tri(n, dtype=bool), i * (i + 3) // 2
    off_diagonal = np.ones(n * (n + 1) // 2, dtype=bool)
    off_diagonal[diagonal] = False
    mask.flags.writeable = diagonal.flags.writeable = off_diagonal.flags.writeable = False
    return mask, diagonal, off_diagonal


@functools.lru_cache(maxsize=4)
def _row_offsets(n: int) -> tuple[tuple[int, ...], np.ndarray]:
    """Offset i(i+1)/2 of row i of the packed triangle, as a tuple (scalar loops) and a read-only array (gathers)."""
    i = np.arange(n, dtype=np.intp)
    offsets = i * (i + 1) // 2
    offsets.flags.writeable = False
    return tuple(offsets.tolist()), offsets


def serialize_colouring(g: ColouredCompleteGraph) -> str:
    # "R" and "B" are 74 + 8 and 74 - 8, so 8 * colour + 74 spells each cell
    body = g.triangle * np.int8(8) + np.int8(74)
    body[_triangle_layout(g.n)[1]] = ord("\n")
    return str(g.n) + body.tobytes().decode()


def _content_lines(text: str) -> list[str]:
    """The stripped non-blank lines of a text file."""
    return [ln for ln in map(str.strip, text.splitlines()) if ln]


def parse_colouring(text: str) -> ColouredCompleteGraph:
    # "replace" turns each non-ASCII character into one "?" byte, so the
    # bytes line up with the characters and a file passes only if all are R or B
    data = text.encode("ascii", "replace")
    k = data.find(b"\n")
    n = int(data[:k]) if 0 < k <= 18 and data[:k].isdigit() else 0
    # canonical text; its length is checked before any array is made
    if n >= 2 and len(data) - k == n * (n + 1) // 2:
        body = np.frombuffer(data, dtype=np.uint8, offset=k)
        signs = (body == ord("R")).view(np.int8)
        signs -= (body == ord("B")).view(np.int8)  # R -> +1, B -> -1, any other byte ("\n") -> 0
        if np.count_nonzero(signs) == n * (n - 1) // 2 and body[_triangle_layout(n)[1]].tobytes() == b"\n" * n:
            return ColouredCompleteGraph._of_triangle(n, signs)  # the graph's own packed triangle, as is
    lines = _content_lines(text)
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
    for i, row in enumerate(lines[1:], 1):
        if len(row) != i or row.strip("RB"):  # any character but R and B outlives the strip
            raise InvalidInputError(f"row {i} must be {i} characters over RB, got {row!r}")
    # stripped lines hold no line end, so the rejoined text is canonical
    return parse_colouring("\n".join([str(n), *lines[1:], ""]))


def serialize_forest(forest: Forest) -> str:
    """The header "n m", then one line "low high" per edge, ascending; every line ends in "\\n"."""
    edges = forest.edges
    return f"{forest.n} {len(edges)}\n" + ("%d %d\n" * len(edges)) % tuple(chain.from_iterable(edges))


#: bytes.translate table: every ASCII digit to "0"
_ZERO_DIGITS = bytes.maketrans(b"123456789", b"000000000")


def _canonical_numbers(text: str) -> np.ndarray | None:
    """The int64 numbers of a forest file as serialize_forest writes it, or None for any other text.

    The text must be one or more lines of two runs of 1 to 18 ASCII digits,
    one space between them and "\n" after, as the regular expression
    ``(?:[0-9]{1,18} [0-9]{1,18}\n)+`` spells it: 18 digits always fit in
    int64, and one C conversion reads them.  Without its digits such a text
    is " \n" once per line; a run of 19 digits shows as 19 zeros once every
    digit is a zero; and every run becomes one number, so once the text
    ends in "\n", past which no run may trail, an empty run leaves fewer
    than two numbers per line.
    """
    data = text.encode("ascii", "replace")  # a non-ASCII character becomes "?", which no check passes
    rest = data.translate(None, b"0123456789")
    if not data.endswith(b"\n") or rest != b" \n" * (len(rest) // 2) or b"0" * 19 in data.translate(_ZERO_DIGITS):
        return None
    numbers = np.fromstring(text, dtype=np.int64, sep=" ")
    return numbers if numbers.size == len(rest) else None


class _Roots(dict):
    """Union-find parents of the vertices met so far; a vertex not met yet is its own root."""

    def __missing__(self, v: int) -> int:
        return v


def _first_cycle_edge(n: int, edges: Iterable[tuple[int, int]], m: int) -> int | None:
    """Index of the first of these m edges on range(n) that closes a cycle with the earlier ones, else None.

    A union-find pass.  A repeated edge closes a cycle too, at its second
    occurrence.
    """
    # with most vertices isolated, a dict of the vertices met stands in for the list of n
    parent = list(range(n)) if n <= 2 * m else _Roots()
    for i, (u, v) in enumerate(edges):
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u == v:
            return i
        parent[u] = v
    return None


def _refuse_cycle(edges: Iterable[tuple[int, int]], k: int | None) -> None:
    """Refuse edge k of these, the first to close a cycle, as a duplicate edge if it repeats one; pass if k is None."""
    if k is not None:
        *earlier, (u, v) = islice(edges, k + 1)
        u, v = sorted((u, v))
        # every earlier edge joined two trees, so the first to close a cycle is a repeat iff its pair came before
        repeat = (u, v) in {(a, b) if a < b else (b, a) for a, b in earlier}
        raise InvalidInputError(f"duplicate edge ({u},{v})" if repeat else f"edge ({u},{v}) closes a cycle")


def parse_forest(text: str, graph_n: int | None = None) -> Forest:
    """Parse a forest file; given graph_n, a header with another n is refused before allocating.

    A canonical file (see ``_canonical_numbers``) is read by one C
    conversion.  From n + m = ``_ARRAY_BUILD`` on, numpy checks its numbers
    for range and self-loops and hands them to the forest build (see
    ``Forest``); a smaller file, or one with such a fault, goes through the
    constructor.  Any other text that passes the line checks is rejoined as
    canonical lines and parsed again, unless a number is negative or has
    more than 18 digits: such edges go through the constructor too.
    """
    numbers = _canonical_numbers(text)
    if numbers is not None:
        n, m = int(numbers[0]), int(numbers[1])
        if (graph_n is None or n == graph_n) and numbers.size == 2 * m + 2:
            ends = numbers[2:]
            low, high = ends[0::2], ends[1::2]
            # the constructor checks a small forest's edges faster than numpy does; canonical digits spell no
            # negative number, and with n = 0 every edge is out of range
            if n + m >= _ARRAY_BUILD and ends.max(initial=-1) < n and not np.count_nonzero(low == high):
                forest = Forest.__new__(Forest)
                forest._build(n, ends)
                return forest
            return Forest(n, zip(low.tolist(), high.tolist()))
    lines = _content_lines(text)
    if not lines:
        raise InvalidInputError("empty forest file")
    try:
        n, m = map(int, lines[0].split())  # a header without two tokens fails to unpack
    except ValueError:
        raise InvalidInputError(f"bad header line: {lines[0]!r}") from None
    if graph_n is not None and n != graph_n:
        raise InvalidInputError(f"forest has {n} vertices but graph has {graph_n}")
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
    ends = tuple(chain.from_iterable(edges))
    # runs of 1 to 18 digits rejoin into canonical lines, which the first branch reads: no second recursion
    if all(0 <= x < 10**18 for x in (n, *ends)):
        return parse_forest(f"{n} {m}\n" + ("%d %d\n" * m) % ends, graph_n)
    return Forest(n, edges)


def embedding_to_json(f: Embedding) -> dict:
    return {"map": list(f.forward), "sum": f.colour_sum}
