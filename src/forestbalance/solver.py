"""End-to-end embedding search with certified guarantees where the pipeline allows.

Strategy outline: tiny instances go to the exact oracle; everything else
samples embeddings of both signs and interpolates between them, which
certifies |sum| <= disagreement max degree + forest min degree.  One argument
covers all three degree regimes.  The large-degree set L (forest vertices of
degree >= 2/eps, with eps the bound report's crossing epsilon, or 1/8 where
there is none) is pinned to the host vertices of least |signed degree| before
sampling, so two extensions can disagree only on vertices of degree < 2/eps
and the certificate stays below 2/eps + min degree: the refined bound.  Below
max degree 16 no admissible eps leaves L non-empty, and sampling is
unanchored.  Deciding the sign of a partial embedding exactly is exponential,
so the search relies on both-sign sampling instead; when sampling fails the
result degrades to a budgeted local search and says so.  The explicit
two-anchor block construction runs only when asked for by name.

Sampling works in blocks: ExtensionSampler draws a block of uniform
extensions of the anchor at once (one argsort of random 64-bit keys per row,
taken from the caller's random.Random) and scores the whole block with one
gather from the int8 colour matrix.  Blocks start small and double, so a
search that succeeds early draws little more than it uses, while an anchored
star, whose every extension has the same sum, spends its whole budget in
a run of numpy blocks instead of one Python shuffle per sample.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import chain

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
    is_balanced,
    swap_delta,
    swap_images,
)
from .interpolate import InterpolationTrace, SignedPair, interpolate_traced
from .oracle import exact_min_imbalance

CERT_EXACT = "exact"
CERT_INTERPOLATION = "interpolation"
CERT_GREEDY_STAR = "greedy-star"
CERT_HEURISTIC = "heuristic"

STRATEGIES = ("auto", "interpolate-only", "greedy-star", "local-search")


class SignSearchFailure(Exception):
    """Sampling exhausted its budget without seeing both signs.

    Carries the best sample found so the caller can fall back to local search.
    This legitimately happens when an anchor pins the sign of every extension.
    """

    def __init__(self, message: str, best: Embedding | None, samples: int):
        super().__init__(message)
        self.best = best
        self.samples = samples


@dataclass(frozen=True)
class SolverConfig:
    seed: int = 0
    max_restarts: int = 200
    sample_budget: int = 5000
    strategy: str = "auto"
    exact_threshold: int = 8

    def __post_init__(self):
        if self.max_restarts < 1 or self.sample_budget < 1:
            raise InvalidInputError("budgets must be positive")
        if self.exact_threshold < 0:
            raise InvalidInputError(f"exact_threshold must be non-negative, got {self.exact_threshold}")
        if self.strategy not in STRATEGIES:
            raise InvalidInputError(f"unknown strategy {self.strategy!r}")


@dataclass
class SolveResult:
    embedding: Embedding
    achieved: int
    certified: str
    certified_value: float | None
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
    targets; the free vertices, in ascending order, take them.  Each row's
    colour sum is one gather from the flat int8 colour matrix.
    """

    __slots__ = ("stride", "base", "free_vs", "free_ts", "us", "vs", "flat", "cap")

    def __init__(self, forest: Forest, graph: ColouredCompleteGraph, anchor: PartialEmbedding | None = None):
        n = forest.n
        fixed = anchor.mapping if anchor is not None else {}
        if any(v >= n or t >= n for v, t in fixed.items()):
            raise InvalidInputError("anchor out of range")
        vs = np.fromiter(fixed, dtype=np.intp, count=len(fixed))
        ts = np.fromiter(fixed.values(), dtype=np.intp, count=len(fixed))
        self.stride = graph.n
        self.base = np.zeros(n, dtype=np.intp)
        self.base[vs] = ts
        free = np.ones((2, n), dtype=bool)
        free[0, vs] = free[1, ts] = False
        self.free_vs, self.free_ts = np.flatnonzero(free[0]), np.flatnonzero(free[1])
        m = forest.edge_count
        edges = np.fromiter(chain.from_iterable(forest.edges), dtype=np.intp, count=2 * m).reshape(m, 2)
        self.us, self.vs = edges[:, 0], edges[:, 1]
        self.flat = graph.matrix.reshape(-1)
        self.cap = max(1, _BLOCK_CELLS // n)

    def draw(self, rng: random.Random, size: int) -> tuple[np.ndarray, np.ndarray]:
        """``size`` samples: an intp (size, n) array of forward maps and their int64 sums."""
        k = len(self.free_ts)
        keys = np.frombuffer(rng.randbytes(8 * size * k), dtype=np.uint64).reshape(size, k)
        images = np.empty((size, len(self.base)), dtype=np.intp)
        images[:] = self.base
        images[:, self.free_vs] = self.free_ts[keys.argsort(axis=1)]
        del keys  # frees the key bytes before the gather below allocates
        cells = images[:, self.us]
        cells *= self.stride
        cells += images[:, self.vs]
        return images, self.flat[cells].sum(axis=1, dtype=np.int64)

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
    cfg: SolverConfig | None = None,
    rng: random.Random | None = None,
    stats: dict | None = None,
) -> SignedPair:
    """Sample embeddings extending the anchor until both signs are seen.

    On a balanced colouring the sum of a uniform unanchored embedding has mean
    zero, so both signs exist and are found quickly.  Samples are drawn in
    blocks (see ExtensionSampler); the pair is the first sample with sum >= 0
    and the first with sum <= 0 in stream order, and ``samples_drawn`` counts
    samples up to the later of the two.  Raises SignSearchFailure (with the
    first sample of least |sum| attached) once the budget is spent.
    """
    cfg = cfg or SolverConfig()
    sampler = ExtensionSampler(forest, graph, anchor)
    if rng is None:
        rng = random.Random(cfg.seed)
    non_neg = non_pos = best = None
    drawn = 0
    for images, sums in sampler.blocks(rng, cfg.sample_budget):
        if non_neg is None:
            non_neg = _first(images, sums, sums >= 0, drawn)
        if non_pos is None:
            non_pos = _first(images, sums, sums <= 0, drawn)
        if non_neg is not None and non_pos is not None:
            if stats is not None:
                stats["samples_drawn"] = stats.get("samples_drawn", 0) + max(non_neg[0], non_pos[0]) + 1
            return SignedPair.of(non_pos[1], non_neg[1], forest)
        r = int(np.argmin(np.abs(sums)))
        if best is None or abs(sums[r]) < abs(best.colour_sum):
            best = _row(images, sums, r)
        drawn += len(sums)
    if stats is not None:
        stats["samples_drawn"] = stats.get("samples_drawn", 0) + cfg.sample_budget
    raise SignSearchFailure(
        f"no embedding pair of opposite signs within {cfg.sample_budget} samples",
        best=best,
        samples=cfg.sample_budget,
    )


def _row(images: np.ndarray, sums: np.ndarray, r: int) -> Embedding:
    return Embedding(images[r].tolist(), int(sums[r]))


def _first(images: np.ndarray, sums: np.ndarray, mask: np.ndarray, offset: int):
    """(stream index, embedding) of the block's first row in the mask, or None."""
    hits = np.flatnonzero(mask)
    if not hits.size:
        return None
    r = int(hits[0])
    return offset + r, _row(images, sums, r)


def large_degree_set(forest: Forest, epsilon: float) -> list[int]:
    """Forest vertices of degree at least 2/epsilon; always at most epsilon*n of them."""
    n = forest.n
    if not 1.0 / n - 1e-12 <= epsilon <= 0.125 + 1e-12:
        raise InvalidInputError(f"epsilon {epsilon} outside [1/{n}, 1/8]")
    threshold = 2.0 / epsilon
    out = [v for v in range(n) if forest.degree[v] >= threshold]
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
    large = sorted(large_degree_set(forest, eps), key=lambda v: (-forest.degree[v], v))
    if not large:
        return None
    balance = np.abs(graph.matrix.sum(axis=1, dtype=np.int32))
    hosts = np.argsort(balance, kind="stable")[: len(large)].tolist()
    return PartialEmbedding(dict(zip(large, hosts)))


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
    n = forest.n
    floor = forest.edge_count % 2
    improved = True
    while improved and evals < budget and abs(emb.colour_sum) > floor:
        improved = False
        for u in range(n):
            for v in range(u + 1, n):
                if evals >= budget:
                    return emb, evals
                evals += 1
                delta = swap_delta(emb, u, v, forest, graph)
                if abs(emb.colour_sum + delta) < abs(emb.colour_sum):
                    emb = swap_images(emb, u, v, forest, graph)
                    improved = True
                    break
            if improved:
                break
    return emb, evals


def _reduce_best(a: Embedding | None, b: Embedding) -> Embedding:
    if a is None:
        return b
    ka = (abs(a.colour_sum), a.forward)
    kb = (abs(b.colour_sum), b.forward)
    return a if ka <= kb else b


def solve(
    forest: Forest,
    graph: ColouredCompleteGraph,
    cfg: SolverConfig | None = None,
) -> SolveResult:
    """Find an embedding with a small colour sum and report what it certifies.

    Dispatch (strategy "auto"): the exact oracle below the size threshold;
    otherwise both-sign sampling with the large-degree set anchored (see
    large_degree_anchor) and interpolation, in every degree regime.  Every
    interpolation result then gets a polish pass of strictly improving swaps,
    which certifies nothing.  "interpolate-only" is the same search without
    the oracle or the polish; "greedy-star" runs only the explicit two-anchor
    block construction; "local-search" only the heuristic descent.
    """
    cfg = cfg or SolverConfig()
    n = forest.n
    if n != graph.n:
        raise InvalidInputError(f"forest has {n} vertices but graph has {graph.n}")
    if forest.max_degree < 1:
        report = BoundReport.compute(n, 1)
        emb = Embedding.build(range(n), forest, graph)
        return SolveResult(
            embedding=emb,
            achieved=0,
            certified=CERT_EXACT,
            certified_value=0.0,
            bound_report=report,
            within_bound=True,
            stats={"restarts_used": 0, "samples_drawn": 0},
        )

    report = BoundReport.compute(n, forest.max_degree)
    stats = {"restarts_used": 0, "samples_drawn": 0, "strategy": cfg.strategy}

    def finish(
        emb: Embedding,
        certified: str,
        certified_value: float | None,
        trace: InterpolationTrace | None = None,
    ) -> SolveResult:
        achieved = abs(emb.colour_sum)
        if certified_value is not None and not fits(achieved, certified_value):
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

    if cfg.strategy == "auto" and n <= cfg.exact_threshold:
        value, emb = exact_min_imbalance(forest, graph, max_n=max(cfg.exact_threshold, 10))
        stats["restarts_used"] = 1
        return finish(emb, CERT_EXACT, float(value))

    if cfg.strategy == "local-search":
        best = None
        for k in range(cfg.max_restarts):
            rng = random.Random(_sub_seed(cfg.seed, k))
            start = sample_extension(rng, forest, graph)
            stats["samples_drawn"] += 1
            emb, evals = local_search(forest, graph, start, cfg.sample_budget)
            best = _reduce_best(best, emb)
            stats["restarts_used"] += 1
        return finish(best, CERT_HEURISTIC, None)

    if cfg.strategy == "greedy-star":
        oriented, x, y = _orient_for_greedy(forest, graph)
        if oriented is None:
            raise PreconditionError(
                "greedy-star needs two dominant forest vertices, a balanced "
                "red-rich anchor, and a red-poor vertex"
            )
        emb = greedy_star_balance(forest, oriented, x, y, seed=cfg.seed)
        if oriented is not graph:
            emb = Embedding.build(emb.forward, forest, graph)
        stats["restarts_used"] = 1
        return finish(emb, CERT_GREEDY_STAR, float(greedy_star_certificate(forest)))

    anchor = large_degree_anchor(forest, graph, report)
    rng = random.Random(_sub_seed(cfg.seed, 0))
    last_failure = None
    retryable = anchor is None and is_balanced(graph)
    for k in range(cfg.max_restarts):
        stats["restarts_used"] += 1
        try:
            pair = find_signed_pair(forest, graph, anchor, cfg, rng=rng, stats=stats)
            emb, trace = interpolate_traced(pair, forest, graph)
            if cfg.strategy == "auto":
                emb, _ = local_search(forest, graph, emb, cfg.sample_budget)
            return finish(emb, CERT_INTERPOLATION, float(pair.bound(forest)), trace)
        except SignSearchFailure as failure:
            last_failure = failure
            # An anchored or unbalanced miss means the sampling distribution is
            # effectively single-signed; retrying only helps on balanced inputs.
            if not retryable:
                break

    start = last_failure.best if last_failure and last_failure.best else None
    if start is None:
        rng2 = random.Random(_sub_seed(cfg.seed, 1))
        start = sample_extension(rng2, forest, graph, anchor)
        stats["samples_drawn"] += 1
    emb, _ = local_search(forest, graph, start, cfg.sample_budget)
    return finish(emb, CERT_HEURISTIC, None)


def _orient_for_greedy(forest: Forest, graph: ColouredCompleteGraph):
    """Find an orientation (graph or its negation) where greedy preconditions hold.

    Returns (oriented graph, x, y) or (None, None, None).  Flipping every
    colour leaves |sum| unchanged, so the red-rich/red-poor roles can be
    sought in either orientation.  The anchor x needs ceil(n/4 - 1) edges of
    each colour.
    """
    n = forest.n
    v1, v2 = _top_two_degree_vertices(forest)
    if 2 * forest.degree[v1] < n or 4 * forest.degree[v2] < n:
        return None, None, None
    r = -(-n // 4) - 1
    for flip in (False, True):
        g = graph.negated() if flip else graph
        red = g.red_degrees()
        xs = np.flatnonzero((np.minimum(red, n - 1 - red) >= r) & (2 * red >= n - 1)).tolist()
        ys = np.flatnonzero(4 * red < n).tolist()
        for x in xs:
            for y in ys:
                if x != y:
                    return g, x, y
    return None, None, None
