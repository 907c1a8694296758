"""Exact ground truth at small n: full enumeration of embeddings and extensions.

Enumeration is lexicographic over the image tuple.  Budgets count extensions,
and exceeding one raises instead of silently skipping work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

from .core import (
    ColouredCompleteGraph,
    Embedding,
    Forest,
    InvalidInputError,
    PartialEmbedding,
    PreconditionError,
)

#: default cap on the number of full extensions an enumeration may visit
DEFAULT_BUDGET = 2_000_000

#: default vertex-count guard for whole-embedding enumeration
DEFAULT_MAX_N = 10


class BudgetExceededError(RuntimeError):
    """The requested enumeration would exceed its extension budget."""


def _detect_star_centre(forest: Forest) -> int | None:
    if forest.n >= 2 and forest.max_degree == forest.n - 1:
        return forest.degree.index(forest.n - 1)
    return None


def _detect_path_endpoints(forest: Forest) -> tuple[int, int] | None:
    if forest.n < 3 or forest.edge_count != forest.n - 1 or forest.max_degree != 2:
        return None
    ends = [v for v in range(forest.n) if forest.degree[v] == 1]
    if len(ends) != 2:
        return None
    return ends[0], ends[1]


def exact_min_imbalance(
    forest: Forest,
    graph: ColouredCompleteGraph,
    max_n: int = DEFAULT_MAX_N,
) -> tuple[int, Embedding]:
    """Minimum |colour sum| over all embeddings, with a witness.

    Spanning stars and paths use their obvious symmetry (interchangeable
    leaves, reversal); everything else is a full factorial scan with an early
    exit once the parity floor |E| mod 2 is reached.  Raise max_n to enumerate
    past 10 vertices at your own expense.
    """
    n = forest.n
    if n != graph.n:
        raise InvalidInputError(f"forest has {n} vertices but graph has {graph.n}")
    m = forest.edge_count
    if m == 0:
        return 0, Embedding.build(range(n), forest, graph)

    centre = _detect_star_centre(forest)
    if centre is not None:
        best_x = min(range(n), key=lambda x: (abs(graph.signed_degree(x)), x))
        rest = [x for x in range(n) if x != best_x]
        fwd = [0] * n
        fwd[centre] = best_x
        others = [v for v in range(n) if v != centre]
        for v, t in zip(others, rest):
            fwd[v] = t
        emb = Embedding.build(fwd, forest, graph)
        return abs(emb.colour_sum), emb

    if n > max_n:
        raise BudgetExceededError(
            f"refusing to enumerate {n}! embeddings (guard max_n={max_n})"
        )

    floor = m % 2
    rows = graph.rows()
    edges = forest.edges
    path_ends = _detect_path_endpoints(forest)

    best = None
    best_emb = None
    for perm in permutations(range(n)):
        if path_ends is not None and perm[path_ends[0]] > perm[path_ends[1]]:
            continue
        s = 0
        for u, v in edges:
            s += rows[perm[u]][perm[v]]
        s = abs(s)
        if best is None or s < best:
            best = s
            best_emb = perm
            if best == floor:
                break
    emb = Embedding.build(best_emb, forest, graph)
    return best, emb


@dataclass(frozen=True)
class SignVerdict:
    """Sign classification of a partial embedding over all of its extensions."""

    min_sum: int
    max_sum: int
    min_witness: Embedding
    max_witness: Embedding
    extensions: int

    def __post_init__(self):
        assert self.min_sum <= self.max_sum

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
    """Exact min/max colour sum over all full embeddings extending partial."""
    n = forest.n
    if n != graph.n:
        raise InvalidInputError(f"forest has {n} vertices but graph has {graph.n}")
    for v in partial:
        if v >= n or partial[v] >= n:
            raise InvalidInputError("partial embedding out of range")
    free_vs = [v for v in range(n) if v not in partial]
    free_ts = sorted(set(range(n)) - partial.image())
    count = math.factorial(len(free_vs))
    if count > budget:
        raise BudgetExceededError(
            f"{count} extensions exceed the budget of {budget}"
        )

    rows = graph.rows()
    fixed = dict(partial.mapping)
    base = 0
    fixed_free_edges = []  # (free slot index, fixed target)
    free_edges = []  # (slot index, slot index)
    slot = {v: i for i, v in enumerate(free_vs)}
    for u, v in forest.edges:
        fu, fv = u in fixed, v in fixed
        if fu and fv:
            base += rows[fixed[u]][fixed[v]]
        elif fu:
            fixed_free_edges.append((slot[v], fixed[u]))
        elif fv:
            fixed_free_edges.append((slot[u], fixed[v]))
        else:
            free_edges.append((slot[u], slot[v]))

    def build(assignment: tuple[int, ...]) -> Embedding:
        fwd = [0] * n
        for v, t in fixed.items():
            fwd[v] = t
        for i, v in enumerate(free_vs):
            fwd[v] = assignment[i]
        return Embedding.build(fwd, forest, graph)

    min_sum = max_sum = None
    min_assign = max_assign = None
    seen = 0
    for assignment in permutations(free_ts):
        seen += 1
        s = base
        for i, t in fixed_free_edges:
            s += rows[assignment[i]][t]
        for i, j in free_edges:
            s += rows[assignment[i]][assignment[j]]
        if min_sum is None or s < min_sum:
            min_sum, min_assign = s, assignment
        if max_sum is None or s > max_sum:
            max_sum, max_assign = s, assignment
    return SignVerdict(
        min_sum=min_sum,
        max_sum=max_sum,
        min_witness=build(min_assign),
        max_witness=build(max_assign),
        extensions=seen,
    )


@dataclass(frozen=True)
class SignFixingCounterexample:
    """A placement of the candidate set whose extensions reach both strict signs."""

    placement: PartialEmbedding
    verdict: SignVerdict


@dataclass(frozen=True)
class SignFixingResult:
    fixing: bool
    counterexample: SignFixingCounterexample | None = None
    placements_checked: int = 0

    def __bool__(self) -> bool:
        return self.fixing


def _injections(l_set: list[int], u_set: list[int]):
    for image in permutations(u_set, len(l_set)):
        yield PartialEmbedding(dict(zip(l_set, image)))


def is_sign_fixing(
    forest: Forest,
    graph: ColouredCompleteGraph,
    l_set,
    u_set,
    budget: int = DEFAULT_BUDGET,
) -> SignFixingResult:
    """Whether every placement of l_set inside u_set pins the sign of all extensions.

    Vacuously true when |l_set| > |u_set| (no placements exist).  On failure
    the first mixed placement (lexicographic) is returned as a counterexample.
    """
    l_list = sorted(set(l_set))
    u_list = sorted(set(u_set))
    n = forest.n
    if any(v >= n for v in l_list) or any(t >= graph.n for t in u_list):
        raise InvalidInputError("l_set or u_set out of range")
    if len(l_list) > len(u_list):
        return SignFixingResult(fixing=True, placements_checked=0)
    per_placement = math.factorial(n - len(l_list))
    total = per_placement * math.perm(len(u_list), len(l_list))
    if total > budget:
        raise BudgetExceededError(
            f"{total} total extensions exceed the budget of {budget}"
        )
    checked = 0
    for placement in _injections(l_list, u_list):
        verdict = exact_sign(forest, graph, placement, budget=budget)
        checked += 1
        if verdict.kind == "mixed":
            return SignFixingResult(
                fixing=False,
                counterexample=SignFixingCounterexample(placement, verdict),
                placements_checked=checked,
            )
    return SignFixingResult(fixing=True, placements_checked=checked)


def minimal_sign_fixing_subset(
    forest: Forest,
    graph: ColouredCompleteGraph,
    l_set,
    u_set,
    budget: int = DEFAULT_BUDGET,
) -> tuple[list[int], list[int]]:
    """Inclusion-minimal sign-fixing subset of l_set, by greedy ascending removal.

    Also returns the vertices of the result whose degree inside the forest
    restricted to the result is at least 2; that subset is always proper.
    """
    l_list = sorted(set(l_set))
    start = is_sign_fixing(forest, graph, l_list, u_set, budget=budget)
    if not start:
        raise PreconditionError(
            "the given set is not sign-fixing", payload=start.counterexample
        )
    m_set = list(l_list)
    for v in l_list:
        candidate = [x for x in m_set if x != v]
        if is_sign_fixing(forest, graph, candidate, u_set, budget=budget):
            m_set = candidate
    members = set(m_set)
    n_set = [
        v
        for v in m_set
        if sum(1 for w in forest.neighbours[v] if w in members) >= 2
    ]
    if m_set:
        assert set(n_set) < set(m_set), "high-degree core must be a proper subset"
    return m_set, n_set
