"""Exact ground truth at small n: full enumeration of embeddings and extensions.

Both exact oracles read one enumerator, ``_extensions``, which scores one
extension of a partial map per twin-leaf orbit (two leaves of one parent,
or two isolated vertices, can swap images without changing any sum) with
numpy in lexicographic order, in chunks of at most 8! rows.  A row's sum is
read from small per-prefix lookup tables, one per pair of terms over the
permuted tail, so a row costs at most 8 gathers whatever n is.  The
per-row index arrays are built block by block as the first lead prefix
reaches each block (7!, then twice as many rows each time), so a scan that
stops early pays only for the rows it read.  Budgets count extensions, and
exceeding one raises instead of silently skipping work.  Each scan stops
after the first chunk that reaches a proven bound (``imbalance_floor`` for
the minimum, the colour-count range for the sign's extremes); chunks come
in lexicographic order, so values and witnesses are those of a full scan.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from functools import cache, reduce
from itertools import chain, permutations

import numpy as np

from .core import (
    CertificateError,
    ColouredCompleteGraph,
    Embedding,
    Forest,
    InvalidInputError,
    PartialEmbedding,
)

#: default cap on the number of full maps an enumeration may visit: all 10! embeddings at n = 10
DEFAULT_BUDGET = math.factorial(10)

#: free positions filled from one permutation table, so a chunk has at most 8! rows
_TAIL = 8


class BudgetExceededError(RuntimeError):
    """The requested enumeration would exceed its extension budget."""


@cache
def _permutation_table(width: int) -> np.ndarray:
    """Every permutation of range(width) in lexicographic order, one per column, as a read-only uint8 array.

    The table is (width, width!): row p holds entry p of every permutation, contiguously.
    """
    flat = np.fromiter(chain.from_iterable(permutations(range(width))), np.uint8)
    table = np.ascontiguousarray(flat.reshape(math.factorial(width), width).T)
    table.flags.writeable = False
    return table


def _extensions(
    forest: Forest, graph: ColouredCompleteGraph, fixed: Mapping[int, int]
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """One map per twin-leaf orbit extending fixed, in lexicographic order, as ``(order, tails, sums)`` chunks.

    The free vertices take the free targets in the order of
    ``itertools.permutations``: the last w <= _TAIL (the tail) come from
    the permutation table, any earlier ones (the lead) are fixed per lead
    prefix.  Row i of a chunk maps each fixed vertex to its target, the
    lead to ``order[:lead]`` and tail vertex p to ``order[lead + tails[i, p]]``
    (see _free_images), and has colour sum ``sums[i]``; ``order`` lists the
    prefix's targets, then the other free targets ascending.  Tail vertices
    of degree <= 1 with the same neighbours (twins) are interchangeable, so
    only the table columns that give each twin group ascending entries are
    kept: the first map of every orbit in lexicographic order, so rows stay
    in that order and the first optimum is unchanged.

    Per call, two arrays hold one column per kept row: the kept table
    columns (the table itself when nothing is dropped) and the pair codes
    below.  Both are allocated once and filled while the first lead prefix
    is scored, block by block: the first block holds the first
    (_TAIL - 1)! kept rows (the rows whose first tail entry is 0 when
    nothing is dropped), each later block twice the rows of the one before,
    and each block is yielded as its own chunk, so a scan that stops early
    builds only the blocks it read.  A table of at most (_TAIL - 1)! kept
    rows is one block: below that size a block costs more in numpy calls
    than an early stop inside it saves.  Every later prefix is one chunk of
    all kept rows, scored over the filled arrays whole.

    A row's sum splits into terms over the head (fixed and lead vertices)
    and the tail positions a_p of the row: edges inside the head add to one
    per-prefix constant; all head edges of tail vertex p form one term
    U_p[a_p], from one small integer matmul per prefix; each tail edge (p, q)
    is a term B[a_p, a_q] on the w x w tail block of the colour matrix.
    The terms go in pairs, each pair with one per-prefix table of w^4
    entries, which rows read through intp codes ``j*w^4 + c1*w^2 + c2``,
    c = a_x*w + a_y (x = y = p for U_p).  A forest has at most w - 1 tail
    edges, so a row costs at most _TAIL gathers, whatever n is.  Sums take
    the narrowest signed type holding +-(|E| + 1), the callers' sentinels;
    full maps are never materialised.
    """
    n, m = forest.n, forest.edge_count
    free_vs = [v for v in range(n) if v not in fixed]
    free_ts = sorted(set(range(n)).difference(fixed.values()))
    lead = max(len(free_vs) - _TAIL, 0)
    tail = free_vs[lead:]
    w = len(tail)
    table = _permutation_table(w)
    twins = {}  # tail positions of degree <= 1 by neighbour tuple: leaves by parent, isolated together
    for p, v in enumerate(tail):
        if forest.degree[v] <= 1:
            twins.setdefault(forest.neighbours[v], []).append(p)
    ascending = [table[a] < table[b] for group in twins.values() for a, b in zip(group, group[1:])]
    kept = np.flatnonzero(reduce(np.logical_and, ascending)) if ascending else None  # kept table columns
    rows = table.shape[1] if kept is None else len(kept)

    head_of = {v: i for i, v in enumerate([*fixed, *free_vs[:lead]])}
    tail_of = {v: p for p, v in enumerate(tail)}
    incidence = np.zeros((w, len(head_of)), np.int32)  # [p, h]: tail vertex p meets head vertex h
    inner, terms = [], []  # head-head edges; terms (x, y, source) read at a_x*w + a_y
    for u, v in forest.edges:
        if u in tail_of and v in tail_of:
            terms.append((tail_of[u], tail_of[v], w))
        elif u in tail_of:
            incidence[tail_of[u], head_of[v]] = 1
        elif v in tail_of:
            incidence[tail_of[v], head_of[u]] = 1
        else:
            inner.append((head_of[u], head_of[v]))
    terms += [(p, p, p) for p in np.flatnonzero(incidence.any(axis=1)).tolist()]
    if len(terms) % 2:
        terms.append((0, 0, w + 1))
    inner = np.array(inner, np.intp).reshape(-1, 2).T
    positions = np.array(terms, np.intp).reshape(-1, 3)
    pair_offsets = np.arange(len(positions) // 2, dtype=np.uint16)[:, None] * np.uint16(w * w)
    dtype = np.min_scalar_type(-m - 2)
    tails = table if kept is None else np.empty((w, rows), table.dtype)
    codes = np.empty((len(pair_offsets), rows), np.intp)
    bounds, size = [0], math.factorial(_TAIL - 1)  # the first prefix's blocks
    while bounds[-1] < rows:
        bounds.append(min(bounds[-1] + size, rows))
        size *= 2
    blocks = list(zip(bounds, bounds[1:]))

    fixed_ts, k, matrix = list(fixed.values()), len(head_of), graph.matrix
    for index, prefix in enumerate(permutations(free_ts, lead)):
        order = np.array([*prefix, *(t for t in free_ts if t not in prefix)], np.intp)
        targets = np.array([*fixed_ts, *order], np.intp)  # the head's targets, then the tail's
        columns = matrix[targets[:, None], order[lead:]]
        term = np.zeros((w + 2, w, w), dtype)  # source p: U_p[a] at (a, b); source w: B; w + 1: zero
        term[:w] = (incidence @ columns[:k])[:, :, None]
        term[w] = columns[k:]
        paired = term.reshape(w + 2, w * w)[positions[:, 2]]
        tables = (paired[0::2, :, None] + paired[1::2, None, :]).ravel()
        constant = int(matrix[targets[inner[0]], targets[inner[1]]].sum())
        for lo, hi in blocks if index == 0 else [(0, rows)]:
            block = tails[:, lo:hi]
            if index == 0:  # the first prefix fills tails (when columns are dropped) and codes
                if kept is not None:
                    np.take(table, kept[lo:hi], axis=1, out=block)
                pair_codes = block[positions[:, 0]]  # per term, a_x*w + a_y < w^2
                pair_codes *= w
                pair_codes += block[positions[:, 1]]
                # (j*w^2 + c1)*w^2 + c2 < (terms / 2)*w^4 <= w^5 <= 2^15: every code fits uint16
                pair_pairs = np.add(pair_codes[0::2], pair_offsets, dtype=np.uint16)
                pair_pairs *= w * w
                pair_pairs += pair_codes[1::2]
                codes[:, lo:hi] = pair_pairs
            if hi - lo == rows:  # one take over all of codes: 0.5-7% faster than a take per row on full scans
                sums = tables.take(codes).sum(axis=0, dtype=dtype)
                sums += constant
            else:  # a take per row: one take over a block's strided codes would first copy them whole
                sums = np.full(hi - lo, constant, dtype)
                for pair in codes[:, lo:hi]:
                    sums += tables.take(pair)
            yield order, block.T, sums


def _free_images(order: np.ndarray, tails: np.ndarray, i: int) -> np.ndarray:
    """The free vertices' images, ascending by vertex, in row i of an _extensions chunk."""
    lead = len(order) - tails.shape[1]
    return np.concatenate([order[:lead], order[lead:][tails[i]]])


def _sum_range(forest: Forest, graph: ColouredCompleteGraph) -> tuple[int, int]:
    """The least and greatest colour sums the colour counts allow: [m - 2 min(m, blue), m - 2 max(0, m - red)].

    An embedding of m edges puts some B of them on blue edges, with
    max(0, m - red) <= B <= min(m, blue), and its sum is m - 2B.
    """
    m, red = forest.edge_count, graph.red_edge_count
    return m - 2 * min(m, graph.edge_count - red), m - 2 * max(0, m - red)


def imbalance_floor(forest: Forest, graph: ColouredCompleteGraph) -> int:
    """A proven lower bound on |colour sum| over every embedding: the largest of three floors.

    - parity: a sum of m terms of +-1 is at least |E| mod 2 = m mod 2 away from 0;
    - colour counts: every sum lies in [low, high] = _sum_range, so |sum| >= max(low, -high);
    - the max-degree star: with a vertex of degree D on host x, its D edges
      sum to at least |sd(x)| - (n - 1 - D) in absolute value and the other
      m - D edges move the total by at most m - D, so
      |sum| >= min_x |sd(x)| - (n - 1 - D) - (m - D).

    Every floor has the parity of m (sd(x) has the parity of n - 1), as
    every sum does.
    """
    n, m, d = forest.n, forest.edge_count, forest.max_degree
    low, high = _sum_range(forest, graph)
    star = int(np.abs(graph.signed_degrees()).min()) - (n - 1 - d) - (m - d)
    return max(m % 2, low, -high, star)


def exact_min_imbalance(
    forest: Forest,
    graph: ColouredCompleteGraph,
    budget: int = DEFAULT_BUDGET,
) -> tuple[int, Embedding]:
    """Minimum |colour sum| over all embeddings, with a witness.

    Forests whose edges all meet one vertex (stars, one edge, no edge;
    isolated vertices included) are solved in closed form at any n (see
    _star_min_imbalance); everything else is a scan of the n!
    embeddings, refused above the budget, that stops after the first chunk
    reaching imbalance_floor (parity, colour counts or the max-degree
    star), past which no embedding can go.  The witness is the first optimal
    map in lexicographic order.  Raise the budget to enumerate past 10
    vertices at your own expense.
    """
    n = forest.n
    if n != graph.n:
        raise InvalidInputError(f"forest has {n} vertices but graph has {graph.n}")
    m = forest.edge_count
    if m == forest.max_degree:
        return _star_min_imbalance(forest, graph)
    count = math.factorial(n)
    if count > budget:
        raise BudgetExceededError(f"{count} extensions exceed the budget of {budget}")

    floor = imbalance_floor(forest, graph)
    best, best_map = m + 1, None
    for order, tails, sums in _extensions(forest, graph, {}):
        score = np.abs(sums)
        i = int(score.argmin())
        if score[i] < best:
            best, best_map = int(score[i]), _free_images(order, tails, i).tolist()
            if best == floor:
                break
    return best, Embedding.build(best_map, forest, graph)


def red_leaf_count(d, offset, red, blue):
    """How many k of d leaves go on red edges so that offset + 2k - d is nearest 0.

    With ``red`` free red and ``blue`` free blue edges at the host, k ranges over
    [max(0, d - blue), min(d, red)]; (d - offset) // 2 clipped to it is best.
    """
    return np.clip((d - offset) // 2, np.maximum(0, d - blue), np.minimum(d, red))


def _star_min_imbalance(forest: Forest, graph: ColouredCompleteGraph) -> tuple[int, Embedding]:
    """Closed-form optimum of a forest whose d edges all meet one centre, in one pass over the hosts.

    The centre is the first vertex of maximum degree d (vertex 0 when d = 0,
    the lower endpoint when d = 1).  With the centre on a host with r red
    and b blue edges, k = red_leaf_count(d, 0, r, b) of the d leaves on red
    neighbours give the least |sum|; the host of least such |sum| wins, ties
    to the lowest index.  The witness puts the leaves, ascending, on the
    first k red and d - k blue neighbours in ascending order, and the
    isolated vertices on the remaining hosts.  A spanning star has k = r, so
    its value is the host's |signed degree|.
    """
    n, d = forest.n, forest.max_degree
    centre = forest.degree.index(d)
    red = graph.red_degrees()
    k = red_leaf_count(d, 0, red, n - 1 - red)
    x = int(np.abs(2 * k - d).argmin())
    row = graph.matrix[x]
    leaf_hosts = np.sort(np.concatenate([np.flatnonzero(row > 0)[: k[x]], np.flatnonzero(row < 0)[: d - k[x]]]))
    hosts = np.concatenate([[x], leaf_hosts])
    unused = np.ones(n, dtype=bool)
    unused[hosts] = False
    isolated = [v for v in forest.isolated_vertices() if v != centre]
    fwd = np.empty(n, dtype=np.intp)
    fwd[[centre, *forest.neighbours[centre], *isolated]] = np.concatenate([hosts, np.flatnonzero(unused)])
    emb = Embedding.build(fwd.tolist(), forest, graph)
    return abs(emb.colour_sum), emb


@dataclass(frozen=True)
class SignVerdict:
    """Sign classification of a partial embedding over all of its extensions."""

    min_sum: int
    max_sum: int
    min_witness: Embedding
    max_witness: Embedding
    #: the number of full extensions, counted, not the rows enumerated
    extensions: int

    def __post_init__(self):
        if self.min_sum > self.max_sum:
            raise CertificateError(f"min_sum {self.min_sum} exceeds max_sum {self.max_sum}")

    @property
    def is_red(self) -> bool:
        """Every extension has non-negative sum."""
        return self.min_sum >= 0

    @property
    def is_blue(self) -> bool:
        """Every extension has non-positive sum."""
        return self.max_sum <= 0

    @property
    def kind(self) -> str:
        if self.is_red:
            return "red"
        if self.is_blue:
            return "blue"
        return "mixed"


def exact_sign(
    forest: Forest,
    graph: ColouredCompleteGraph,
    partial: PartialEmbedding,
    budget: int = DEFAULT_BUDGET,
) -> SignVerdict:
    """Exact min/max colour sum over all full embeddings extending partial.

    The scan stops after the first chunk in which both extremes reach the
    ends of _sum_range, which no embedding can pass.
    """
    n = forest.n
    if n != graph.n:
        raise InvalidInputError(f"forest has {n} vertices but graph has {graph.n}")
    for v in partial:
        if v >= n or partial[v] >= n:
            raise InvalidInputError("partial embedding out of range")
    count = math.factorial(n - len(partial))
    if count > budget:
        raise BudgetExceededError(f"{count} extensions exceed the budget of {budget}")

    m = forest.edge_count
    low, high = _sum_range(forest, graph)
    min_sum, max_sum = m + 1, -m - 1
    for order, tails, sums in _extensions(forest, graph, partial.mapping):
        lo, hi = int(sums.argmin()), int(sums.argmax())
        if sums[lo] < min_sum:
            min_sum, min_free = int(sums[lo]), _free_images(order, tails, lo)
        if sums[hi] > max_sum:
            max_sum, max_free = int(sums[hi]), _free_images(order, tails, hi)
        if min_sum == low and max_sum == high:
            break
    return SignVerdict(
        min_sum=min_sum,
        max_sum=max_sum,
        min_witness=Embedding.build(_full_map(partial.mapping, min_free), forest, graph),
        max_witness=Embedding.build(_full_map(partial.mapping, max_free), forest, graph),
        extensions=count,
    )


def _full_map(fixed: Mapping[int, int], free_images: np.ndarray) -> list[int]:
    """The map sending each fixed vertex to its target and the free vertices, ascending, to free_images."""
    rest = iter(free_images.tolist())
    return [fixed[v] if v in fixed else next(rest) for v in range(len(fixed) + len(free_images))]


@dataclass(frozen=True)
class SignFixingResult:
    """Whether a set is sign-fixing; if not, the first placement whose extensions reach both strict signs."""

    fixing: bool
    placement: PartialEmbedding | None = None
    verdict: SignVerdict | None = None
    placements_checked: int = 0

    def __bool__(self) -> bool:
        return self.fixing


def is_sign_fixing(
    forest: Forest,
    graph: ColouredCompleteGraph,
    l_set,
    u_set,
    budget: int = DEFAULT_BUDGET,
) -> SignFixingResult:
    """Whether every placement of l_set inside u_set pins the sign of all extensions.

    Vacuously true when |l_set| > |u_set| (no placements exist).  On failure
    the first mixed placement (lexicographic) and its verdict are returned as
    ``placement`` and ``verdict``; both are None when the set is fixing.
    """
    l_list = sorted(set(l_set))
    u_list = sorted(set(u_set))
    n = forest.n
    if any(v >= n for v in l_list) or any(t >= graph.n for t in u_list):
        raise InvalidInputError("l_set or u_set out of range")
    # no placement exists when |l_set| > |u_set|: math.perm is 0 and permutations yields nothing
    placements = math.perm(len(u_list), len(l_list))
    total = math.factorial(n - len(l_list)) * placements
    if total > budget:
        raise BudgetExceededError(f"{total} total extensions exceed the budget of {budget}")
    for checked, image in enumerate(permutations(u_list, len(l_list)), start=1):
        placement = PartialEmbedding(dict(zip(l_list, image)))
        verdict = exact_sign(forest, graph, placement, budget=budget)
        if verdict.kind == "mixed":
            return SignFixingResult(False, placement, verdict, checked)
    return SignFixingResult(fixing=True, placements_checked=placements)
