"""Core types: +/-1 edge-coloured complete graphs, forests, and embeddings.

All quantities are exact integers.  Edge colours are stored as one read-only
n x n int8 matrix: +1 (red) or -1 (blue) off the diagonal, 0 on it.  Scalar
scoring loops index ``rows()``, read-only memoryview slices of that matrix.
"""

from __future__ import annotations

import functools
import re
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

#: columns per band when from_lower_triangle mirrors the lower triangle: a
#: 64 x 64 int8 block and its transpose take 8 KB of L1
_BAND = 64


class ColouredCompleteGraph:
    """A symmetric {-1,+1} colouring of the edges of K_n.

    The colouring is one read-only n x n int8 ``matrix`` with the colour of
    edge ij at [i, j] and [j, i] and 0 on the diagonal; build it with
    ``from_red_matrix``, which checks its input.  The constructor takes a
    matrix as is: ``from_lower_triangle``, which ``random_balanced_colouring``
    calls, and ``parse_colouring`` build one that holds these invariants by
    construction, mirroring the lower triangle one band of 64 columns at a
    time.  Degree sums reduce each row in int32, which
    holds any signed degree (|sd| <= n - 1), and return int64.  Immutable;
    safe to share across threads for reading.
    """

    __slots__ = ("matrix", "_rows")

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix
        self._rows = None

    @classmethod
    def from_red_matrix(cls, red: np.ndarray) -> "ColouredCompleteGraph":
        """Build from a symmetric boolean matrix (True = red); diagonal ignored."""
        n = red.shape[0]
        if red.shape != (n, n):
            raise InvalidInputError("matrix must be square")
        if n < 2:
            raise InvalidInputError(f"need at least 2 vertices, got n={n}")
        red = red.astype(bool)
        if not np.array_equal(red, red.T):
            raise InvalidInputError("red matrix must be symmetric")
        matrix = np.where(red, np.int8(RED), np.int8(BLUE))
        np.fill_diagonal(matrix, 0)
        matrix.flags.writeable = False
        return cls(matrix)

    @classmethod
    def from_lower_triangle(cls, n: int, signs: np.ndarray) -> "ColouredCompleteGraph":
        """Build from the int8 colours (+1 red, -1 blue) of the pairs (1,0), (2,0), (2,1), ... in that order.

        The matrix is symmetric with a zero diagonal by construction, so
        nothing is re-checked; ``signs`` must hold n(n-1)/2 values in {-1, +1}.
        """
        matrix = np.zeros((n, n), dtype=np.int8)
        # the strict lower triangle is the inclusive one of the (n-1) x (n-1) block
        # below row 0; boolean-mask assignment fills it row by row, in the pairs' order
        matrix[1:, :-1][_triangle_layout(n - 1)[0]] = signs
        return cls._mirrored(matrix)

    @classmethod
    def _mirrored(cls, matrix: np.ndarray) -> "ColouredCompleteGraph":
        """Wrap a zero-diagonal int8 matrix with a filled lower triangle, after mirroring that upwards.

        The upper triangle is written in place, one band of ``_BAND`` columns
        at a time: the block above the diagonal block is the transpose of the
        band's rows left of it, and the diagonal block adds its own
        transpose.  Each copy then reads at most ``_BAND`` rows per column,
        which stay in L1; one whole-matrix transpose walks n rows per column
        and, at n = 512, takes about twice as long.  At most two bands
        (n <= 128, 16 KB) take one in-place add, cheaper than the loop there.
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
        matrix.flags.writeable = False
        return cls(matrix)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def rows(self) -> list[memoryview]:
        """One read-only memoryview (format ``b``) per matrix row, built on first use.

        Indexing a row gives a Python int as fast as indexing a list, and
        several times faster than indexing the array; the rows share the
        matrix's memory, so building them copies nothing.
        """
        if self._rows is None:
            n = self.n
            flat = memoryview(self.matrix.ravel()).toreadonly()
            self._rows = [flat[i * n:(i + 1) * n] for i in range(n)]
        return self._rows

    def signed_degrees(self) -> np.ndarray:
        """Signed degree of every vertex (see signed_degree), as an int64 vector.

        Each row sums in int32, which holds |sd| <= n - 1 exactly and reduces
        int8 about twice as fast as int64 at n = 512.
        """
        return self.matrix.sum(axis=1, dtype=np.int32).astype(np.int64)

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
        """Colour sum over all edges of K_n: half the sum of the signed degrees."""
        return int(self.signed_degrees().sum()) // 2

    def red_neighbours(self, v: int) -> list[int]:
        return np.flatnonzero(self.matrix[v] == RED).tolist()

    def blue_neighbours(self, v: int) -> list[int]:
        return np.flatnonzero(self.matrix[v] == BLUE).tolist()

    def __reduce__(self):
        # the memoryview rows cannot be pickled or copied; rebuild them lazily
        return ColouredCompleteGraph, (self.matrix,)

    def __eq__(self, other) -> bool:
        return isinstance(other, ColouredCompleteGraph) and np.array_equal(self.matrix, other.matrix)

    def __hash__(self):
        return hash((self.n, self.matrix.tobytes()))

    def __repr__(self):
        return f"ColouredCompleteGraph(n={self.n}, red={self.red_edge_count}/{self.edge_count})"


def is_balanced(g: ColouredCompleteGraph) -> bool:
    """True iff the colouring has equally many red and blue edges."""
    return 2 * g.red_edge_count == g.edge_count


def r_balanced_vertices(g: ColouredCompleteGraph, r: int) -> list[int]:
    """Vertices with at least r incident edges of each colour, ascending."""
    if r < 0:
        raise InvalidInputError(f"r must be non-negative, got {r}")
    red = g.red_degrees()
    return np.flatnonzero(np.minimum(red, g.n - 1 - red) >= r).tolist()


class Forest:
    """An acyclic simple graph on n labelled vertices (isolated vertices allowed).

    ``edges`` lists each edge once as (low, high), ascending; ``neighbours``
    lists each vertex's neighbours ascending.
    """

    __slots__ = ("n", "edges", "degree", "max_degree", "min_degree", "neighbours")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 1:
            raise InvalidInputError(f"need at least 1 vertex, got n={n}")
        norm = []
        parent = list(range(n))
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidInputError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise InvalidInputError(f"self-loop at vertex {u}")
            if u > v:
                u, v = v, u
            ru, rv = u, v
            while parent[ru] != ru:
                parent[ru] = ru = parent[parent[ru]]
            while parent[rv] != rv:
                parent[rv] = rv = parent[parent[rv]]
            if ru == rv:
                # a repeated edge also joins two vertices already in one tree
                if (u, v) in norm:
                    raise InvalidInputError(f"duplicate edge ({u},{v})")
                raise InvalidInputError(f"edge ({u},{v}) closes a cycle")
            parent[ru] = rv
            norm.append((u, v))
        norm.sort()
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in norm:  # ascending edges append each neighbour list in ascending order
            adj[u].append(v)
            adj[v].append(u)
        self.n = n
        self.edges = tuple(norm)
        self.neighbours = tuple(map(tuple, adj))
        self.degree = tuple(map(len, adj))
        self.max_degree = max(self.degree)
        self.min_degree = min(self.degree)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def isolated_vertices(self) -> list[int]:
        return [v for v in range(self.n) if self.degree[v] == 0]

    def __eq__(self, other) -> bool:
        return isinstance(other, Forest) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Forest(n={self.n}, m={len(self.edges)}, max_degree={self.max_degree})"


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
    rows = graph.rows()
    total = 0
    for u, v in forest.edges:
        total += rows[forward[u]][forward[v]]
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
    rows = g.rows()
    row_u, row_v = rows[forward[u]], rows[forward[v]]
    delta = 0
    for w in forest.neighbours[u]:
        if w != v:
            delta += row_v[forward[w]] - row_u[forward[w]]
    for w in forest.neighbours[v]:
        if w != u:
            delta += row_u[forward[w]] - row_v[forward[w]]
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
    """An injective map from a subset of forest vertices into K_n vertices."""

    __slots__ = ("mapping",)

    def __init__(self, mapping: dict[int, int]):
        vals = list(mapping.values())
        if len(set(vals)) != len(vals):
            raise InvalidInputError("partial embedding is not injective")
        if any(v < 0 for v in mapping) or any(t < 0 for t in vals):
            raise InvalidInputError("negative vertex index")
        self.mapping = dict(sorted(mapping.items()))

    @property
    def domain(self) -> tuple[int, ...]:
        return tuple(self.mapping)

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
# "\n" on, a canonical colouring file is the inclusive lower triangle of an
# n x n matrix in row order with "\n" in every diagonal cell: row i and its
# line end are i + 1 bytes at offset i(i+1)/2, its "\n" at offset i(i+3)/2.


@functools.lru_cache(maxsize=4)
def _triangle_layout(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The inclusive lower triangle of an n x n matrix: its read-only boolean mask, and its diagonal cells' offsets."""
    i = np.arange(n)
    mask, diagonal = np.tri(n, dtype=bool), i * (i + 3) // 2
    mask.flags.writeable = diagonal.flags.writeable = False
    return mask, diagonal


def serialize_colouring(g: ColouredCompleteGraph) -> str:
    mask, diagonal = _triangle_layout(g.n)
    # "R" and "B" are 74 + 8 and 74 - 8, so 8 * colour + 74 spells each cell
    body = g.matrix[mask] * np.int8(8) + np.int8(74)
    body[diagonal] = ord("\n")
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
    # canonical text; its length is checked before anything n x n is allocated
    if n >= 2 and len(data) - k == n * (n + 1) // 2:
        mask, diagonal = _triangle_layout(n)
        body = np.frombuffer(data, dtype=np.uint8, offset=k)
        signs = (body == ord("R")).view(np.int8)
        signs -= (body == ord("B")).view(np.int8)  # R -> +1, B -> -1, any other byte ("\n") -> 0
        if np.count_nonzero(signs) == n * (n - 1) // 2 and body[diagonal].tobytes() == b"\n" * n:
            matrix = np.zeros((n, n), dtype=np.int8)
            matrix[mask] = signs
            return ColouredCompleteGraph._mirrored(matrix)
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
    lines = [f"{forest.n} {len(forest.edges)}"]
    lines.extend(f"{u} {v}" for u, v in forest.edges)
    return "\n".join(lines) + "\n"


#: a forest file as serialize_forest writes it, which one C conversion reads: 18 digits always fit in int64
_CANONICAL_FOREST = re.compile(r"(?:[0-9]{1,18} [0-9]{1,18}\n)+")


def parse_forest(text: str, graph_n: int | None = None) -> Forest:
    """Parse a forest file; given graph_n, a header with another n is refused before allocating."""
    if _CANONICAL_FOREST.fullmatch(text):
        ends = np.fromstring(text, dtype=np.int64, sep=" ")
        n, m = int(ends[0]), int(ends[1])
        if (graph_n is None or n == graph_n) and ends.size == 2 * m + 2:
            return Forest(n, zip(ends[2::2].tolist(), ends[3::2].tolist()))
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
    return Forest(n, edges)


def embedding_to_json(f: Embedding) -> dict:
    return {"map": list(f.forward), "sum": f.colour_sum}


def embedding_from_json(
    data: dict,
    forest: Forest | None = None,
    graph: ColouredCompleteGraph | None = None,
) -> Embedding:
    """Load an embedding; when forest and graph are given, the stored sum is checked."""
    if not isinstance(data, dict):
        raise InvalidInputError(f"embedding JSON must be an object, got {type(data).__name__}")
    if "map" not in data:
        raise InvalidInputError("embedding JSON missing 'map'")
    fwd = data["map"]
    if not isinstance(fwd, list):
        raise InvalidInputError(f"embedding JSON 'map' must be a list, got {type(fwd).__name__}")
    # bool is an int subclass, and 1.0 == 1, so test the exact type
    if not all(type(t) is int for t in fwd):
        raise InvalidInputError("embedding JSON 'map' entries must be integers")
    stored = data.get("sum")
    if stored is not None and type(stored) is not int:
        raise InvalidInputError(f"embedding JSON 'sum' must be an integer, got {stored!r}")
    if forest is not None and graph is not None:
        if not len(fwd) == forest.n == graph.n:
            raise InvalidInputError(f"embedding JSON 'map' has {len(fwd)} entries, expected {forest.n}")
        emb = Embedding.build(fwd, forest, graph)
        if stored is not None and stored != emb.colour_sum:
            raise InvalidInputError(
                f"stored sum {stored} disagrees with recomputed {emb.colour_sum}"
            )
        return emb
    if stored is None:
        raise InvalidInputError("embedding JSON missing 'sum' and no context to recompute")
    return Embedding(fwd, stored)
