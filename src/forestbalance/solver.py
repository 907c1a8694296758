"""End-to-end embedding search with certified guarantees where the pipeline allows.

Strategy outline: tiny instances and stars (every edge meets one vertex, so
the sum is set by the centre's host and the leaves' colours there) go to the
exact oracle, which solves stars in closed form at any n; everything else
runs one sampling search (find_signed_pair), which cannot miss, and
interpolates between the pair it finds, the drawn samples nearest a centre
on each side of it, which certifies |centre| + disagreement max degree +
forest min degree.  One argument covers all three degree regimes.  The
large-degree set L (forest vertices of degree >= 2/eps, with eps the bound
report's crossing epsilon, or 1/8 where there is none) is pinned before
sampling, to hosts whose degree-weighted signed degrees sum nearest 0, so
two extensions can disagree only on vertices of degree < 2/eps.  Below max
degree 16 no admissible eps leaves L non-empty, and sampling is unanchored; on a balanced colouring an unanchored embedding
has mean sum zero, so the centre is 0.  When the anchor's exact mean
(anchored_mean) lies far from 0, the search pins L's neighbours as well
(pin_hub_leaves, the ``hub-split`` mechanism) and centres on the new map's
mean.  solve() never calls the block construction greedy_star_balance.

ExtensionSampler draws and scores uniform extensions in numpy blocks that
start small and double, so a search that succeeds early draws little more
than it uses.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
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
from .oracle import DEFAULT_BUDGET, exact_min_imbalance

CERT_EXACT = "exact"
CERT_INTERPOLATION = "interpolation"
CERT_HUB_SPLIT = "hub-split"

#: a safety cap on the samples one search draws (no grid of the repository's tools reaches it); also caps polish evaluations
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
    pinned both are 0..n-1, so the argsort itself is the block, and the
    sampler keeps no arrays of its own (``base`` and ``free_*`` are None).
    Each row's colour sum is one gather from the colouring's packed int8
    triangle (``ColouredCompleteGraph.edge_colours``) at the ends of
    ``forest.edge_array``, read with ``ndarray.take``.
    """

    __slots__ = ("graph", "n", "base", "free_vs", "free_ts", "us", "vs", "cap")

    def __init__(self, forest: Forest, graph: ColouredCompleteGraph, anchor: PartialEmbedding | None = None):
        n = forest.n
        if n != graph.n:
            raise InvalidInputError(f"forest has {n} vertices but graph has {graph.n}")
        fixed = anchor.mapping if anchor is not None else {}
        if any(v >= n or t >= n for v, t in fixed.items()):
            raise InvalidInputError("anchor out of range")
        self.graph, self.n = graph, n
        self.base = self.free_vs = self.free_ts = None
        if fixed:
            vs = np.fromiter(fixed, dtype=np.intp, count=len(fixed))
            ts = np.fromiter(fixed.values(), dtype=np.intp, count=len(fixed))
            self.base = np.zeros(n, dtype=np.intp)
            self.base[vs] = ts
            free = np.ones((2, n), dtype=bool)
            free[0, vs] = free[1, ts] = False
            self.free_vs, self.free_ts = np.flatnonzero(free[0]), np.flatnonzero(free[1])
        self.us, self.vs = forest.edge_array.T
        self.cap = max(1, _BLOCK_CELLS // n)

    def draw(self, rng: random.Random, size: int) -> tuple[np.ndarray, np.ndarray]:
        """``size`` samples: an intp (size, n) array of forward maps and their int64 sums."""
        k = self.n if self.free_ts is None else len(self.free_ts)
        keys = np.frombuffer(rng.randbytes(8 * size * k), dtype=np.uint64).reshape(size, k)
        if self.base is None:
            images = keys.argsort(axis=1)
        else:
            images = np.empty((size, self.n), dtype=np.intp)
            images[:] = self.base
            images[:, self.free_vs] = self.free_ts[keys.argsort(axis=1)]
        del keys  # frees the key bytes before the gather below allocates
        colours = self.graph.edge_colours(images.take(self.us, axis=1), images.take(self.vs, axis=1))
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
    return _embedding(images[0], sums[0])


def find_signed_pair(
    forest: Forest,
    graph: ColouredCompleteGraph,
    anchor: PartialEmbedding | None = None,
    rng: random.Random | None = None,
    stats: dict | None = None,
    budget: int = SAMPLE_BUDGET,
) -> SignedPair:
    """Sample extensions of the anchor until their range [lo, hi] meets the span between 0 and a target T.

    T is 0 unless an anchored search's first block misses 0 and the
    anchor's exact mean (anchored_mean) lies further from 0 than the largest
    degree of an unanchored vertex plus the min degree: then the anchored
    vertices' neighbours are pinned as well (pin_hub_leaves), T is the new
    map's mean truncated toward 0, with extensions proven on both sides of
    it, and sampling restarts.  ``budget`` caps the samples.  The centre is
    0 clipped to [lo, hi]; the pair is the sample of largest sum <= it and
    the one of smallest sum >= it, the earlier in stream order on a tie, so
    both are one sample when every sum lies on one side of 0.
    ``samples_drawn`` counts every sample the search drew and ``hub_split``
    says whether neighbours were pinned.
    """
    if budget < 1:
        raise InvalidInputError(f"budget must be at least 1 sample, got {budget}")
    rng = rng or random.Random(0)
    blocks = ExtensionSampler(forest, graph, anchor).blocks(rng, budget)
    target, drawn, lo, hi, split = 0, 0, math.inf, -math.inf, False
    # (sum, copied row) of the largest sum <= 0 and of the smallest >= 0, the earlier on a tie; the
    # centre is 0, lo or hi, and with no sample <= 0 the nearest >= 0 is the first at lo (so too for hi)
    below, above = (-math.inf, None), (math.inf, None)
    while (block := next(blocks, None)) is not None:
        images, sums = block[0], block[1].tolist()
        b_lo, b_hi = min(sums), max(sums)
        if b_lo <= 0 and (s := max(s for s in sums if s <= 0)) > below[0]:
            below = s, images[sums.index(s)].copy()
        if b_hi >= 0 and (s := min(s for s in sums if s >= 0)) < above[0]:
            above = s, images[sums.index(s)].copy()
        lo, hi, drawn = min(lo, b_lo), max(hi, b_hi), drawn + len(sums)
        if lo <= max(target, 0) and hi >= min(target, 0):
            break
        if anchor is not None and len(sums) == drawn < budget:  # the first block missed 0
            unanchored = np.delete(forest.degree_array, list(anchor.mapping))
            if abs(int(anchored_mean(forest, graph, anchor))) > unanchored.max(initial=0) + forest.min_degree:
                anchor, split = pin_hub_leaves(forest, graph, anchor), True
                target = int(anchored_mean(forest, graph, anchor))
                blocks = ExtensionSampler(forest, graph, anchor).blocks(rng, budget - drawn)
                lo, hi, below, above = math.inf, -math.inf, (-math.inf, None), (math.inf, None)
    if stats is not None:
        stats.update(samples_drawn=drawn, hub_split=split)
    seen = [end for end in (below, above) if end[1] is not None]
    ends = [(_embedding(row, s), row) for s, row in (seen[0], seen[-1])]
    return SignedPair.of(*ends, forest, min(max(0, lo), hi))


def _embedding(row: np.ndarray, colour_sum) -> Embedding:
    # every sampled row is an argsort permutation, so it needs no bijection re-check
    return Embedding.of_bijection(tuple(row.tolist()), int(colour_sum))


def anchored_mean(forest: Forest, graph: ColouredCompleteGraph, anchor: PartialEmbedding | None) -> Fraction:
    """The exact mean colour sum of a uniform random extension of the anchor.

    With H the k free hosts, r(z) the sum of c(z, t) over t in H and F that
    of c(t, t') over pairs in H, an edge adds its colour when both ends are
    anchored, r(h(u)) / k when one end u is, and F / C(k, 2) when none is.
    """
    fixed = anchor.mapping if anchor is not None else {}
    hosts = np.fromiter(fixed.values(), dtype=np.intp, count=len(fixed))
    sd, inner = graph.signed_degrees()[hosts], graph.matrix[hosts[:, None], hosts].sum(axis=1, dtype=np.int64)
    # F is the total minus the anchored hosts' rows, which count the edges among them twice
    two_f = 2 * (graph.total_sum() - int(sd.sum())) + int(inner.sum())
    num, den = _mean_numerators(forest, graph, list(fixed), hosts[:, None], (sd - inner)[:, None], two_f)
    return Fraction(int(num[0]), den)


def _mean_numerators(
    forest: Forest, graph: ColouredCompleteGraph, vs: list[int], hosts: np.ndarray, r: np.ndarray, two_f
) -> tuple[np.ndarray, int]:
    """anchored_mean of the maps vs[i] -> hosts[i, c], one per column c, as int64 numerators over one denominator.

    r[i, c] is r(hosts[i, c]) and two_f[c] is 2F under map c.  Every map leaves
    the same k hosts free, so k(k - 1) (1 for k <= 1) is a common denominator.
    """
    k, degree = forest.n - len(vs), forest.degree_array[vs]
    pos = np.full(forest.n, -1)
    pos[vs] = np.arange(len(vs))
    ends = pos[forest.edge_array]  # -1, all bits set, marks an end that is not anchored
    both = ends[(ends[:, 0] | ends[:, 1]) >= 0]
    s = graph.matrix[hosts[both[:, 0]], hosts[both[:, 1]]].sum(axis=0, dtype=np.int64)
    a = (degree - np.bincount(both.ravel(), minlength=len(vs))) @ r  # each anchored vertex's free neighbours
    free_free = forest.edge_count - int(degree.sum()) + len(both)
    den = k * (k - 1) if k > 1 else 1
    return s * den + a * max(k - 1, 1) + free_free * two_f, den


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
    """Pin the large-degree set to hosts whose signed degrees, weighted by degree, sum nearest 0.

    L = large_degree_set(forest, eps), eps = report.crossing_eps or else 1/8,
    goes in descending degree (ties by index), each v on the free host x of
    least |sum of deg(u) sd(h(u)) over the u placed + deg(v) sd(x)|, ties by
    |sd(x)|, then index.  None when L is empty, as always below max degree 16.
    """
    if forest.max_degree < 16:
        return None
    eps = report.crossing_eps if report.crossing_eps is not None else 0.125
    large = large_degree_set(forest, eps)
    if not large:
        return None
    sd = graph.signed_degrees()
    abs_sd, mapping, running = np.abs(sd), {}, 0
    for minus_d, v in sorted(zip((-forest.degree_array[large]).tolist(), large)):
        # |sd| < n: cost * n + |sd| orders by cost, |sd|, then index (argmin); a first vertex's d |sd| orders as |sd|
        cost = np.abs(sd * minus_d - running) * graph.n + abs_sd if mapping else abs_sd
        for x in mapping.values():
            cost[x] = 1 << 62  # above every cost, which stays below 2n^3 + n
        mapping[v] = x = int(cost.argmin())
        running -= minus_d * int(sd[x])
    return PartialEmbedding(mapping)


def pin_hub_leaves(forest: Forest, graph: ColouredCompleteGraph, anchor: PartialEmbedding) -> PartialEmbedding:
    """Extend the anchor by its vertices' neighbours, placed so that each step's anchored_mean lies nearest 0.

    Vertex by vertex, in the anchor's order, its d neighbours not yet placed
    go, ascending, onto the first k of its host's free red neighbours and
    the first d - k of its free blue ones, both in order of signed degree
    descending or ascending (ties by index); of every feasible k and both
    orders, the map of least |mean| wins, the first one on a tie.
    """
    n, matrix, sd = graph.n, graph.matrix, graph.signed_degrees()
    fwd = dict(anchor.mapping)
    for v, x in anchor.mapping.items():
        leaves = [u for u in forest.neighbours[v] if u not in fwd]
        d, placed = len(leaves), np.fromiter(fwd.values(), dtype=np.intp, count=len(fwd))
        free = np.ones(n, dtype=np.int64)
        free[placed] = 0
        red, blue = np.flatnonzero(free * matrix[x] > 0), np.flatnonzero(free * matrix[x] < 0)
        ks, i = np.arange(max(0, d - len(blue)), min(d, len(red)) + 1), np.arange(d)[:, None]
        r = sd - matrix[:, placed].sum(axis=1, dtype=np.int64)
        vs, nr, cols, best = [*fwd, *leaves], ks[-1], np.arange(len(ks)), None
        for sign in (-1, 1):
            order = np.concatenate([red[np.argsort(sign * sd[red], kind="stable")][:nr],
                                    blue[np.argsort(sign * sd[blue], kind="stable")][: d - ks[0]]])
            leaf_hosts = order[np.where(i < ks, i, nr + i - ks)]  # column c: k = ks[c]
            # prefix sums over the candidate hosts' columns give every map's r in O(n) each;
            # each is at most n in magnitude, so int32 holds it
            prefix = np.cumsum(np.pad(matrix[:, order], ((0, 0), (1, 0))), axis=1, dtype=np.int32)
            r_k = r[:, None] - prefix[:, ks] - prefix[:, nr + d - ks] + prefix[:, [nr]]
            hosts = np.concatenate([np.repeat(placed[:, None], len(ks), axis=1), leaf_hosts])
            two_f = free @ r_k - r_k[leaf_hosts, cols].sum(axis=0)
            num = np.abs(_mean_numerators(forest, graph, vs, hosts, r_k[hosts, cols], two_f)[0])
            if best is None or num.min() < best[0]:
                best = num.min(), leaf_hosts[:, num.argmin()]
        fwd.update(zip(leaves, best[1].tolist()))
    return PartialEmbedding(fwd)


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
    sampling search with the large-degree set anchored (large_degree_anchor,
    find_signed_pair) and interpolation, in every degree regime: ``hub-split``
    when the search pinned the anchor's neighbours, else ``interpolation``.
    A polish pass of strictly improving swaps then only lowers the sum under
    the walk's certificate.  ``stats`` is always ``{"samples_drawn": N}``.
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
    pair = find_signed_pair(forest, graph, anchor, random.Random(_sub_seed(cfg.seed, 0)), stats)
    emb, trace = interpolate_traced(pair, forest, graph)
    emb, _ = local_search(forest, graph, emb, SAMPLE_BUDGET)
    certified = CERT_HUB_SPLIT if stats.pop("hub_split") else CERT_INTERPOLATION
    return finish(emb, certified, float(abs(pair.centre) + pair.bound(forest)), trace)
