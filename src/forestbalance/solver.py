"""End-to-end embedding search with certified guarantees where the pipeline allows.

Strategy outline: tiny instances and stars (every edge meets one vertex, so
the sum is set by the centre's host and the leaves' colours there) go to the
exact oracle, which solves stars in closed form at any n; everything else
runs one both-sign sampling search and interpolates between the pair it
finds, which certifies |sum| <= disagreement max degree + forest min degree.
One argument covers all three degree regimes.  The large-degree set L
(forest vertices of degree >= 2/eps, with eps the bound report's crossing
epsilon, or 1/8 where there is none) is pinned to the host vertices of least
|signed degree| before sampling, so two extensions can disagree only on
vertices of degree < 2/eps and the certificate stays below 2/eps + min
degree: the refined bound.  Below max degree 16 no admissible eps leaves L
non-empty, and sampling is unanchored.  On a balanced colouring an
unanchored embedding has mean sum zero, so both signs exist; when the one
search still misses (an anchor or an unbalanced colouring can pin the sign
of every extension), hub_split_pair builds a pair around a window centre
instead, so every result carries a proven value.  The explicit two-anchor
block construction (greedy_star_balance) stays a library function; solve()
never calls it.

Sampling works in blocks: ExtensionSampler draws a block of uniform
extensions of the anchor at once (one argsort of random 64-bit keys per row,
taken from the caller's random.Random) and scores the whole block with one
gather from the colouring's packed int8 triangle.  Blocks start small and double, so a
search that succeeds early draws little more than it uses, and a search that
misses spends its budget in a run of numpy blocks instead of one Python
shuffle per sample.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import cache
from itertools import combinations, count

import numpy as np

from .bounds import BoundReport, fits
from .core import (
    CertificateError,
    ColouredCompleteGraph,
    Embedding,
    Forest,
    InvalidInputError,
    PartialEmbedding,
    PreconditionError,
    swap_delta,
    swap_images,
)
from .interpolate import InterpolationTrace, SignedPair, interpolate_traced
from .oracle import DEFAULT_BUDGET, exact_min_imbalance, red_leaf_count

CERT_EXACT = "exact"
CERT_INTERPOLATION = "interpolation"
CERT_HUB_SPLIT = "hub-split"

#: samples the sign search draws before hub-split takes over; also caps polish evaluations
SAMPLE_BUDGET = 5000

#: the largest n whose n! embeddings the oracle enumerates within its default budget
_EXACT_CEILING = next(n for n in count() if math.factorial(n + 1) > DEFAULT_BUDGET)


@dataclass(frozen=True)
class SolverConfig:
    seed: int = 0
    exact_threshold: int = 8

    def __post_init__(self):
        if self.exact_threshold < 0:
            raise InvalidInputError(f"exact_threshold must be non-negative, got {self.exact_threshold}")
        if self.exact_threshold > _EXACT_CEILING:
            raise InvalidInputError(
                f"exact_threshold must be at most {_EXACT_CEILING}, the largest n whose n! embeddings "
                f"fit the oracle's budget of {DEFAULT_BUDGET}, got {self.exact_threshold}"
            )


@dataclass
class SolveResult:
    embedding: Embedding
    achieved: int
    certified: str
    certified_value: float
    bound_report: BoundReport
    within_bound: bool
    stats: dict = field(default_factory=dict)
    trace: InterpolationTrace | None = None


def _sub_seed(seed: int, k: int) -> int:
    return seed * 1_000_003 + k


# A block holds at most this many image cells (rows x n), so each intp array
# a block makes stays within 64 KB at any n and peak memory stays flat.  The
# first block has _FIRST_BLOCK rows and each later one doubles up to the cap,
# so a search that succeeds within a few samples draws almost nothing extra.
_BLOCK_CELLS = 1 << 13
_FIRST_BLOCK = 4


class ExtensionSampler:
    """Uniform random extensions of a partial embedding, drawn and scored in blocks.

    A block of ``size`` samples takes ``size * k`` 64-bit keys from the
    caller's ``random.Random`` (k = number of free vertices) and argsorts them
    per row, which gives ``size`` independent uniform permutations of the free
    targets; the free vertices, in ascending order, take them.  With nothing
    pinned both are 0..n-1, so the argsort itself is the block.  Each row's
    colour sum is one gather from the colouring's packed int8 triangle
    (``ColouredCompleteGraph.edge_colours``) at the ends of
    ``forest.edge_array``.
    """

    __slots__ = ("graph", "base", "free_vs", "free_ts", "us", "vs", "cap")

    def __init__(self, forest: Forest, graph: ColouredCompleteGraph, anchor: PartialEmbedding | None = None):
        n = forest.n
        if n != graph.n:
            raise InvalidInputError(f"forest has {n} vertices but graph has {graph.n}")
        fixed = anchor.mapping if anchor is not None else {}
        if any(v >= n or t >= n for v, t in fixed.items()):
            raise InvalidInputError("anchor out of range")
        vs = np.fromiter(fixed, dtype=np.intp, count=len(fixed))
        ts = np.fromiter(fixed.values(), dtype=np.intp, count=len(fixed))
        self.graph = graph
        self.base = np.zeros(n, dtype=np.intp)
        self.base[vs] = ts
        free = np.ones((2, n), dtype=bool)
        free[0, vs] = free[1, ts] = False
        self.free_vs, self.free_ts = np.flatnonzero(free[0]), np.flatnonzero(free[1])
        self.us, self.vs = forest.edge_array.T
        self.cap = max(1, _BLOCK_CELLS // n)

    def draw(self, rng: random.Random, size: int) -> tuple[np.ndarray, np.ndarray]:
        """``size`` samples: an intp (size, n) array of forward maps and their int64 sums."""
        k = len(self.free_ts)
        keys = np.frombuffer(rng.randbytes(8 * size * k), dtype=np.uint64).reshape(size, k)
        if k == len(self.base):
            images = keys.argsort(axis=1)
        else:
            images = np.empty((size, len(self.base)), dtype=np.intp)
            images[:] = self.base
            images[:, self.free_vs] = self.free_ts[keys.argsort(axis=1)]
        del keys  # frees the key bytes before the gather below allocates
        colours = self.graph.edge_colours(images[:, self.us], images[:, self.vs])
        return images, colours.sum(axis=1, dtype=np.int64)

    def blocks(self, rng: random.Random, total: int):
        """Yield (images, sums) blocks of exactly ``total`` samples in all, doubling in size."""
        size = _FIRST_BLOCK
        while total > 0:
            rows = min(size, self.cap, total)
            yield self.draw(rng, rows)
            total -= rows
            size *= 2


def sample_extension(
    rng: random.Random,
    forest: Forest,
    graph: ColouredCompleteGraph,
    anchor: PartialEmbedding | None = None,
) -> Embedding:
    """Uniformly random embedding extending the anchor (empty anchor = uniform)."""
    images, sums = ExtensionSampler(forest, graph, anchor).draw(rng, 1)
    return _row(images, sums, 0)


def find_signed_pair(
    forest: Forest,
    graph: ColouredCompleteGraph,
    anchor: PartialEmbedding | None = None,
    rng: random.Random | None = None,
    stats: dict | None = None,
    budget: int = SAMPLE_BUDGET,
) -> SignedPair | None:
    """Sample embeddings extending the anchor until both signs are seen.

    On a balanced colouring the sum of a uniform unanchored embedding has mean
    zero, so both signs exist and are found quickly.  Samples are drawn in
    blocks (see ExtensionSampler); the pair is the first sample with sum >= 0
    and the first with sum <= 0 in stream order, and ``samples_drawn`` counts
    samples up to the later of the two.  None once ``budget`` samples are spent.
    """
    sampler = ExtensionSampler(forest, graph, anchor)
    rng = rng or random.Random(0)
    non_neg = non_pos = None
    drawn = 0
    for images, sums in sampler.blocks(rng, budget):
        if non_neg is None:
            non_neg = _first(images, sums, sums >= 0, drawn)
        if non_pos is None:
            non_pos = _first(images, sums, sums <= 0, drawn)
        if non_neg is not None and non_pos is not None:
            if stats is not None:
                stats["samples_drawn"] = max(non_neg[0], non_pos[0]) + 1
            return SignedPair.of(non_pos[1], non_neg[1], forest)
        drawn += len(sums)
    if stats is not None:
        stats["samples_drawn"] = budget
    return None


def _row(images: np.ndarray, sums: np.ndarray, r: int) -> Embedding:
    # every sampled row is an argsort permutation, so it needs no bijection re-check
    return Embedding.of_bijection(tuple(images[r].tolist()), int(sums[r]))


def _first(images: np.ndarray, sums: np.ndarray, mask: np.ndarray, offset: int):
    """(stream index, (embedding, row)) of the block's first row in the mask, or None.

    The row is the embedding's forward map as an intp array, which SignedPair.of compares directly.
    """
    hits = np.flatnonzero(mask)
    if not hits.size:
        return None
    r = int(hits[0])
    return offset + r, (_row(images, sums, r), images[r])


def large_degree_set(forest: Forest, epsilon: float) -> list[int]:
    """Forest vertices of degree at least 2/epsilon; always at most epsilon*n of them."""
    n = forest.n
    if not 1.0 / n - 1e-12 <= epsilon <= 0.125 + 1e-12:
        raise InvalidInputError(f"epsilon {epsilon} outside [1/{n}, 1/8]")
    threshold = 2.0 / epsilon
    out = np.flatnonzero(forest.degree_array >= threshold).tolist()
    if len(out) > epsilon * n + 1e-9:
        raise CertificateError(f"large-degree set has {len(out)} > epsilon*n vertices")
    return out


def large_degree_anchor(
    forest: Forest, graph: ColouredCompleteGraph, report: BoundReport
) -> PartialEmbedding | None:
    """Pin the large-degree set to the host vertices of least |signed degree|.

    L = large_degree_set(forest, eps) with eps = report.crossing_eps, or 1/8
    where there is none, in descending degree (ties by index); its vertices
    go in that order onto the hosts ranked by |signed degree| (ties by
    index).  None when L is empty, which always holds below max degree 16,
    since no admissible eps has 2/eps below 16.
    """
    if forest.max_degree < 16:
        return None
    eps = report.crossing_eps if report.crossing_eps is not None else 0.125
    large = large_degree_set(forest, eps)
    if not large:
        return None
    large = [v for _, v in sorted(zip((-forest.degree_array[large]).tolist(), large))]
    balance = np.abs(graph.signed_degrees())
    hosts = np.argsort(balance, kind="stable")[: len(large)].tolist()
    return PartialEmbedding(dict(zip(large, hosts)))


def hub_split_pair(
    forest: Forest, graph: ColouredCompleteGraph, anchor: PartialEmbedding | None, rng: random.Random
) -> SignedPair:
    """A pair that straddles a window centre by construction, for when the sign search misses.

    Each anchored vertex in turn (descending degree) sends its d unpinned
    neighbours, ascending, k onto its host's first free red neighbours and
    d - k onto its first free blue ones, with k from red_leaf_count so that S,
    the sum over the edges with both ends pinned, lands nearest 0.  T, the
    value nearest 0 within one block of extensions of that map, lies between
    the block's first row <= T and first row >= T; the walk certifies |T| + bound.
    """
    fwd = dict(anchor.mapping) if anchor is not None else {}
    for v, x in list(fwd.items()):  # the anchor's own vertices, not the ones pinned below
        s = sum(int(graph.matrix[fwd[a], fwd[b]]) for a, b in forest.edges if a in fwd and b in fwd)
        nbrs = [u for u in forest.neighbours[v] if u not in fwd]
        used = set(fwd.values())
        red = [t for t in graph.red_neighbours(x) if t not in used]
        blue = [t for t in graph.blue_neighbours(x) if t not in used]
        k = int(red_leaf_count(len(nbrs), s, len(red), len(blue)))
        fwd.update(zip(nbrs, red[:k] + blue[: len(nbrs) - k]))
    sampler = ExtensionSampler(forest, graph, PartialEmbedding(fwd))
    images, sums = sampler.draw(rng, sampler.cap)
    centre = int(np.clip(0, sums.min(), sums.max()))
    low, high = _first(images, sums, sums <= centre, 0), _first(images, sums, sums >= centre, 0)
    return SignedPair.of(low[1], high[1], forest, centre)


def _top_two_degree_vertices(forest: Forest) -> tuple[int, int]:
    order = sorted(range(forest.n), key=lambda v: (-forest.degree[v], v))
    return order[0], order[1]


def greedy_star_balance(
    forest: Forest,
    graph: ColouredCompleteGraph,
    x: int,
    y: int,
    seed: int = 0,
) -> Embedding:
    """Explicit embedding for two dominant forest vertices and a red-poor host.

    The top-degree vertex lands on x (red-rich, colour-balanced) and the
    second on y (red-poor).  A 3n/8 block of the first vertex's neighbours is
    forced onto red edges and two blocks of roughly n/8 and n/4 neighbours
    onto blue edges, which caps |sum| at about n/4 regardless of how the rest
    is filled in.
    """
    n = forest.n
    if n != graph.n:
        raise InvalidInputError("forest and graph sizes differ")
    if n < 16:
        raise PreconditionError(f"blocks degenerate below 16 vertices (n={n})")
    v1, v2 = _top_two_degree_vertices(forest)
    if 2 * forest.degree[v1] < n:
        raise PreconditionError(f"top degree {forest.degree[v1]} is below n/2")
    if 4 * forest.degree[v2] < n:
        raise PreconditionError(f"second degree {forest.degree[v2]} is below n/4")
    if 2 * graph.red_degree(x) < n - 1:
        raise PreconditionError(f"anchor {x} has red degree below (n-1)/2")
    if 4 * graph.red_degree(y) >= n:
        raise PreconditionError(f"vertex {y} is not red-poor (red degree >= n/4)")
    if x == y:
        raise PreconditionError("anchors must be distinct")

    size_xr = (3 * n) // 8
    size_xb = n // 8 - 1
    size_yb = n // 4 - 1

    nbr1 = [v for v in forest.neighbours[v1] if v != v2]
    if len(nbr1) < size_xr + size_xb:
        raise PreconditionError("not enough neighbours of the top vertex")
    x_r = nbr1[:size_xr]
    x_b = nbr1[size_xr : size_xr + size_xb]
    excluded = set(forest.neighbours[v1]) | {v1}
    nbr2 = [v for v in forest.neighbours[v2] if v not in excluded]
    if len(nbr2) < size_yb:
        raise PreconditionError("not enough private neighbours of the second vertex")
    y_b = nbr2[:size_yb]
    if set(x_r) & set(x_b) or (set(x_r) | set(x_b)) & set(y_b):
        raise CertificateError("greedy blocks overlap")
    if (len(x_r), len(x_b), len(y_b)) != (size_xr, size_xb, size_yb):
        raise CertificateError("greedy blocks have the wrong sizes")

    used = {x, y}
    t_xr = [t for t in graph.red_neighbours(x) if t not in used][:size_xr]
    used.update(t_xr)
    t_xb = [t for t in graph.blue_neighbours(x) if t not in used][:size_xb]
    used.update(t_xb)
    t_yb = [t for t in graph.blue_neighbours(y) if t not in used][:size_yb]
    used.update(t_yb)
    if len(t_xr) < size_xr or len(t_xb) < size_xb or len(t_yb) < size_yb:
        raise PreconditionError("not enough coloured neighbours at the anchors")

    fwd = [-1] * n
    fwd[v1] = x
    fwd[v2] = y
    for v, t in zip(x_r, t_xr):
        fwd[v] = t
    for v, t in zip(x_b, t_xb):
        fwd[v] = t
    for v, t in zip(y_b, t_yb):
        fwd[v] = t
    rest_vs = [v for v in range(n) if fwd[v] == -1]
    rest_ts = [t for t in range(n) if t not in used]
    rng = random.Random(seed)
    rng.shuffle(rest_ts)
    for v, t in zip(rest_vs, rest_ts):
        fwd[v] = t
    emb = Embedding.build(fwd, forest, graph)

    cert = greedy_star_certificate(forest)
    if abs(emb.colour_sum) > cert:
        raise CertificateError(f"construction certificate violated: |sum| = {abs(emb.colour_sum)} > {cert}")
    return emb


def greedy_star_certificate(forest: Forest) -> int:
    """Provable |sum| cap for greedy_star_balance on this forest."""
    n = forest.n
    m = forest.edge_count
    blue_min = (n // 8 - 1) + (n // 4 - 1)
    return max(m - 2 * blue_min, m - 2 * ((3 * n) // 8))


@cache
def _vertex_tuple(n: int) -> tuple[int, ...]:
    """tuple(range(n)), built once per n: ``combinations`` copies any argument but a tuple into one."""
    return tuple(range(n))


def local_search(
    forest: Forest,
    graph: ColouredCompleteGraph,
    start: Embedding,
    budget: int,
) -> tuple[Embedding, int]:
    """First-improvement descent over single image transpositions.

    Pairs are scanned in index order and a swap is accepted only when it
    strictly shrinks |sum|; the budget counts candidate evaluations.  The
    search stops at |sum| = |E| mod 2, below which no sum of |E| terms of
    +/-1 can go.
    """
    emb = start
    evals = 0
    floor = forest.edge_count % 2
    while evals < budget and abs(emb.colour_sum) > floor:
        for u, v in combinations(_vertex_tuple(forest.n), 2):
            if evals >= budget:
                return emb, evals
            evals += 1
            delta = swap_delta(emb.forward, u, v, forest, graph)
            if abs(emb.colour_sum + delta) < abs(emb.colour_sum):
                emb = swap_images(emb, u, v, forest, graph)
                break  # rescan from the first pair
        else:
            break  # no pair improves
    return emb, evals


def solve(
    forest: Forest,
    graph: ColouredCompleteGraph,
    cfg: SolverConfig | None = None,
) -> SolveResult:
    """Find an embedding with a small colour sum and report what it certifies.

    One pipeline: the exact oracle below the size threshold and for every
    forest whose edges all meet one vertex (stars and edgeless forests, at
    any size; the oracle's closed form draws no sample); otherwise one
    both-sign sampling search with the large-degree set anchored (see
    large_degree_anchor) and interpolation, in every degree regime; when the
    search misses, hub_split_pair supplies the pair instead.  The result then
    gets a polish pass of strictly improving swaps, which only lowers the sum
    under the walk's certificate.  ``stats`` is always ``{"samples_drawn": N}``.
    """
    cfg = cfg or SolverConfig()
    n = forest.n
    if n != graph.n:
        raise InvalidInputError(f"forest has {n} vertices but graph has {graph.n}")
    # an edgeless forest has no max degree to bound; its report is the one for degree 1
    report = BoundReport.compute(n, max(forest.max_degree, 1))
    stats = {"samples_drawn": 0}

    def finish(
        emb: Embedding,
        certified: str,
        certified_value: float,
        trace: InterpolationTrace | None = None,
    ) -> SolveResult:
        achieved = abs(emb.colour_sum)
        if not fits(achieved, certified_value):
            raise CertificateError(f"certificate violated: |sum| = {achieved} > {certified_value}")
        return SolveResult(
            embedding=emb,
            achieved=achieved,
            certified=certified,
            certified_value=certified_value,
            bound_report=report,
            within_bound=fits(achieved, report.refined),
            stats=stats,
            trace=trace,
        )

    # edge count equal to max degree: a star, or no edge at all
    if n <= cfg.exact_threshold or forest.edge_count == forest.max_degree:
        value, emb = exact_min_imbalance(forest, graph)
        return finish(emb, CERT_EXACT, float(value))

    anchor = large_degree_anchor(forest, graph, report)
    rng = random.Random(_sub_seed(cfg.seed, 0))
    pair, certified = find_signed_pair(forest, graph, anchor, rng, stats), CERT_INTERPOLATION
    if pair is None:
        pair, certified = hub_split_pair(forest, graph, anchor, rng), CERT_HUB_SPLIT
    emb, trace = interpolate_traced(pair, forest, graph)
    emb, _ = local_search(forest, graph, emb, SAMPLE_BUDGET)
    return finish(emb, certified, float(abs(pair.centre) + pair.bound(forest)), trace)
