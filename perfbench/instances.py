"""Workload instances: built from a seed with the package's public constructors.

Building a workload is the benchmark's set-up: it generates colourings and
forests and serialises them to the package's text formats, so that every
timed op starts from text, as a CLI user does.

A workload is a *cycle* of passes.  Every pass holds the same kinds of
instance in the same proportions, so percentiles taken over whole passes
always fall on the same kind; successive passes draw fresh instances, so the
quality metrics average over the whole cycle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from forestbalance import core, generators
from forestbalance.generators import ForestSpec


@dataclass(frozen=True)
class Instance:
    """One op: parse both texts, then solve or query the oracle."""

    kind: str
    op: str  # "solve", "min" (exact_min_imbalance) or "sign" (exact_sign)
    n: int
    delta: int  # forest max degree
    colouring: str
    forest: str
    seed: int = 0
    partial: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, tuple, int], list]
    sizes: tuple
    passes: int
    tiny_sizes: tuple
    tiny_passes: int = 1

    def cycle(self, seed: int, tiny: bool = False) -> list[list[Instance]]:
        if tiny:
            return self.build(seed, self.tiny_sizes, self.tiny_passes)
        return self.build(seed, self.sizes, self.passes)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _relabel(n: int, edges, rng: random.Random) -> core.Forest:
    perm = list(range(n))
    rng.shuffle(perm)
    return core.Forest(n, [(perm[u], perm[v]) for u, v in edges])


def _attach_path(edges: list, start: int, first: int, n: int) -> None:
    """Hang vertices first..n-1 as a path below start."""
    prev = start
    for v in range(first, n):
        edges.append((prev, v))
        prev = v


def hubs_forest(n: int, rng: random.Random) -> core.Forest:
    """Four chained hubs with n//10 leaves each; the rest is a path off one leaf.

    The middle hubs have degree n//10 + 2, which lies strictly between 16 and
    n/2 for n >= 160: the middle degree regime.
    """
    k = n // 10
    edges = [(0, 1), (1, 2), (2, 3)]
    nxt = 4
    for hub in range(4):
        for _ in range(k):
            edges.append((hub, nxt))
            nxt += 1
    _attach_path(edges, nxt - 1, nxt, n)
    return _relabel(n, edges, rng)


def double_star_forest(n: int, rng: random.Random) -> core.Forest:
    """Adjacent centres of degree n/2 + 7 and n/2 - 9; two spare vertices as a tail."""
    a, b = n // 2 + 7, n // 2 - 9
    edges = [(0, 1)]
    nxt = 2
    for _ in range(a - 1):
        edges.append((0, nxt))
        nxt += 1
    for _ in range(b - 1):
        edges.append((1, nxt))
        nxt += 1
    _attach_path(edges, nxt - 1, nxt, n)
    return _relabel(n, edges, rng)


def random_tree(n: int, rng: random.Random) -> core.Forest:
    """Spanning tree by random recursive attachment, relabelled."""
    return _relabel(n, [(rng.randrange(v), v) for v in range(1, n)], rng)


def _from_upper(n: int, red_upper: np.ndarray) -> core.ColouredCompleteGraph:
    red = np.zeros((n, n), dtype=bool)
    red[np.triu_indices(n, 1)] = red_upper
    return core.ColouredCompleteGraph.from_red_matrix(red | red.T)


def red_poor_balanced_colouring(n: int, rng: random.Random) -> core.ColouredCompleteGraph:
    """Balanced colouring in which one vertex has only n//8 red edges."""
    gen = np.random.default_rng(rng.randrange(2**63))
    iu, ju = np.triu_indices(n, 1)
    npairs = len(iu)
    y = int(gen.integers(n))
    at_y = (iu == y) | (ju == y)
    red = np.zeros(npairs, dtype=bool)
    red[gen.choice(np.flatnonzero(at_y), n // 8, replace=False)] = True
    red[gen.choice(np.flatnonzero(~at_y), npairs // 2 - n // 8, replace=False)] = True
    graph = _from_upper(n, red)
    if not core.is_balanced(graph):
        raise AssertionError("red-poor colouring is not balanced")
    return graph


def biased_colouring(n: int, blue: int, rng: random.Random) -> core.ColouredCompleteGraph:
    """All edges red except `blue` random ones."""
    gen = np.random.default_rng(rng.randrange(2**63))
    npairs = n * (n - 1) // 2
    red = np.ones(npairs, dtype=bool)
    red[gen.choice(npairs, blue, replace=False)] = False
    return _from_upper(n, red)


def _balanced_text(n: int, rng: random.Random) -> str:
    graph = generators.random_balanced_colouring(n, rng.randrange(2**31))
    if not core.is_balanced(graph):
        raise AssertionError("random_balanced_colouring returned an unbalanced colouring")
    return core.serialize_colouring(graph)


def _solve(kind, n, colouring, forest, rng) -> Instance:
    return Instance(kind, "solve", n, forest.max_degree, colouring, core.serialize_forest(forest),
                    rng.randrange(2**31))


def build_sampled_large(seed: int, sizes: tuple, passes: int) -> list[list[Instance]]:
    """Low and middle regime: path, random (cap n/8) and hubs forests.

    Per pass: one of each family at the small size, and at the large size two
    paths, two random forests and one hubs forest.  The large paths then hold
    the median rank, and the large random/hubs ops the 90th percentile.  Two
    colourings per size alternate between passes and between the twin ops.
    """
    rng = _rng("sampled-large", seed)
    small, large = sizes
    cols = {n: [_balanced_text(n, rng) for _ in range(2)] for n in sizes}
    path = {n: generators.make_forest(ForestSpec("path", n)) for n in sizes}

    def rand(n):
        return generators.make_forest(ForestSpec("random", n, n // 8, rng.randrange(2**31)))

    cycle = []
    for p in range(passes):
        a, b = cols[small][p % 2], cols[large][p % 2]
        b2 = cols[large][(p + 1) % 2]
        cycle.append([
            _solve("path", small, a, path[small], rng),
            _solve("random", small, a, rand(small), rng),
            _solve("hubs", small, a, hubs_forest(small, rng), rng),
            _solve("path", large, b, path[large], rng),
            _solve("path", large, b2, path[large], rng),
            _solve("random", large, b, rand(large), rng),
            _solve("random", large, b2, rand(large), rng),
            _solve("hubs", large, b, hubs_forest(large, rng), rng),
        ])
    return cycle


def build_anchored_hub(seed: int, sizes: tuple, passes: int) -> list[list[Instance]]:
    """Dominant regime: star, broom (Δ = 3n/4) and double-stars.

    Per pass and size: one star and one broom on a random balanced colouring,
    and double-stars both on a balanced colouring with a red-poor vertex
    (greedy-star fires) and on the random colouring (greedy preconditions
    fail, anchored interpolation runs).  The large size gets four
    double-stars of each sort, so the median rank falls among the large
    double-stars and the 90th percentile among the small stars.
    """
    rng = _rng("anchored-hub", seed)
    cycle = []
    for _ in range(passes):
        ops = []
        for n, twins in zip(sizes, (1, 4)):
            plain = _balanced_text(n, rng)
            poor = core.serialize_colouring(red_poor_balanced_colouring(n, rng))
            ops.append(_solve("star", n, plain, generators.make_forest(ForestSpec("star", n)), rng))
            broom = generators.make_forest(ForestSpec("broom", n, 3 * n // 4))
            ops.append(_solve("broom", n, plain, broom, rng))
            for _ in range(twins):
                ops.append(_solve("ds-greedy", n, poor, double_star_forest(n, rng), rng))
                ops.append(_solve("ds-fallback", n, plain, double_star_forest(n, rng), rng))
        cycle.append(ops)
    return cycle


def build_oracle_small(seed: int, sizes: tuple, passes: int) -> list[list[Instance]]:
    """Exact queries: exact_sign with 0 and 1 fixed vertices, exact_min on ~93% red.

    Per pass: two one-fixed sign queries, three min queries and one
    unconstrained sign query.  The min colourings have two or three blue
    edges (alternating); at n=9 a spanning tree has 8 edges, so its optimum
    is at least 8 - 2*3 = 2, above the parity floor 0, and the scan never
    exits early.
    """
    rng = _rng("oracle-small", seed)
    (n,) = sizes

    def query(kind, op, colouring, partial=None):
        tree = random_tree(n, rng)
        return Instance(kind, op, n, tree.max_degree, colouring, core.serialize_forest(tree),
                        partial=partial or {})

    cycle = []
    for p in range(passes):
        ops = [query("sign1", "sign", _balanced_text(n, rng), {rng.randrange(n): rng.randrange(n)})
               for _ in range(2)]
        ops += [query("min", "min", core.serialize_colouring(biased_colouring(n, 2 + (p + k) % 2, rng)))
                for k in range(3)]
        ops.append(query("sign0", "sign", _balanced_text(n, rng)))
        cycle.append(ops)
    return cycle


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sampled-large", build_sampled_large, (256, 512), 8, (32, 64)),
        Workload("anchored-hub", build_anchored_hub, (64, 128), 16, (40, 44)),
        Workload("oracle-small", build_oracle_small, (9,), 8, (8,), 2),
    )
}
