"""Swap interpolation between two embeddings on either side of a window centre.

Given embeddings with colour sums on either side of a centre T (0 unless the
sums cannot straddle it), repeatedly swapping two images changes the sum by a
bounded amount, so somewhere along the way an embedding within that amount
of T must appear.  Routing every swap through a minimum-degree vertex keeps
each step's sum change at most 2 * (disagreement max degree + forest min
degree), so the walk certifies |T| + disagreement max degree + min degree.

The argument needs some sequence of such swaps, in any order.  The walk
places the disagreeing vertices in two ascending sweeps: the first places
a vertex only when its net move brings the sum strictly nearer T, the
second places the rest.  Each vertex is placed once and never moves again,
so the walk still ends at the far embedding and must enter the window.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    CertificateError,
    ColouredCompleteGraph,
    Embedding,
    Forest,
    InvalidInputError,
    PartialEmbedding,
    swap_delta,
    swap_images,  # unused here; perfbench's tracer wraps interpolate.swap_images and its tests read it
)


@dataclass(frozen=True)
class SignedPair:
    """Two embeddings with sums on opposite sides of ``centre``: h_neg's at most, h_pos's at least.

    disagreement is the sorted set of forest vertices the two maps send to
    different targets; disagreement_max_degree is the largest forest degree
    over that set (0 when they agree everywhere).
    """

    h_neg: Embedding
    h_pos: Embedding
    disagreement: tuple[int, ...]
    disagreement_max_degree: int
    centre: int = 0

    @classmethod
    def of(
        cls,
        first: Embedding | tuple[Embedding, np.ndarray],
        second: Embedding | tuple[Embedding, np.ndarray],
        forest: Forest,
        centre: int = 0,
    ) -> "SignedPair":
        """Order two embeddings by their side of the centre and compute their disagreement data.

        Either embedding may come paired with its forward map as an intp
        array, as the sign search passes the rows it sampled; a bare
        embedding's forward tuple is converted, and the disagreement is one
        ``!=`` of the two arrays.
        """
        n = forest.n
        (a, a_row), (b, b_row) = (
            m if isinstance(m, tuple) else (m, np.fromiter(m.forward, np.intp, n)) for m in (first, second)
        )
        if a.colour_sum <= centre <= b.colour_sum:
            neg, pos = a, b
        elif b.colour_sum <= centre <= a.colour_sum:
            neg, pos = b, a
        else:
            raise InvalidInputError(
                f"sums {a.colour_sum} and {b.colour_sum} are strictly on "
                f"the same side of {centre}"
            )
        dis = np.flatnonzero(a_row != b_row)
        dmax = int(forest.degree_array.take(dis).max(initial=0))
        return cls(neg, pos, tuple(dis.tolist()), dmax, centre)

    def bound(self, forest: Forest) -> int:
        return self.disagreement_max_degree + forest.min_degree


@dataclass
class InterpolationTrace:
    """Record of one interpolation run: (swap, running sum) per step.

    steps[0] is the starting embedding with no swap; each later entry is a
    single transposition of two images.
    """

    achieved_bound: int
    steps: list[tuple[tuple[int, int] | None, int]] = field(default_factory=list)
    result: Embedding | None = None


def interpolate_traced(
    pair: SignedPair, forest: Forest, graph: ColouredCompleteGraph
) -> tuple[Embedding, InterpolationTrace]:
    """Walk from h_pos towards h_neg until the sum is within ``pair.bound`` of the centre.

    A disagreeing vertex v is placed by the transposition of v and u, the
    vertex holding v's target under h_neg: directly when u or v has minimum
    degree, else in three steps through the lowest-index minimum-degree
    vertex w, which ends where it began.  The first sweep goes over
    ``pair.disagreement`` in ascending order and places v only when that
    transposition's delta brings the sum strictly nearer the centre (the
    route's last step reuses the delta); every other v waits for the second
    sweep, which places them in ascending order.  A placed vertex never
    moves again: u does not hold its own target, and w is restored.  So the
    walk ends at h_neg, below the window, having started above it, and no
    step moves the sum by more than twice the bound: some step lands in the
    window, and each step is checked against it and recorded in the trace.

    The walk swaps entries of one forward list in place and keeps the sum as
    a running int; the only Embedding it builds is the one it returns.
    """
    bound, centre = pair.bound(forest), pair.centre
    trace = InterpolationTrace(achieved_bound=bound)
    steps = trace.steps

    for end in (pair.h_pos, pair.h_neg):
        if abs(end.colour_sum - centre) <= bound:
            steps.append((None, end.colour_sum))
            trace.result = end
            return end, trace

    fwd = list(pair.h_pos.forward)
    total = pair.h_pos.colour_sum
    steps.append((None, total))
    holder = [0] * forest.n  # holder[t]: the forest vertex fwd sends to t
    for x, t in enumerate(fwd):
        holder[t] = x

    degree = forest.degree_array.tolist()
    min_deg = forest.min_degree
    # The three-step swap runs only when neither u nor v has minimum degree,
    # so the lowest-index minimum-degree vertex is always a free intermediate.
    w = degree.index(min_deg)
    goal = pair.h_neg.forward

    def moves():
        """(u, v, the net delta or None) per vertex v to place: first those whose move nears the centre."""
        deferred = []
        for v in pair.disagreement:
            if fwd[v] != goal[v]:
                u = holder[goal[v]]
                delta = swap_delta(fwd, u, v, forest, graph)
                if abs(total + delta - centre) < abs(total - centre):
                    yield u, v, delta
                else:
                    deferred.append(v)
        for v in deferred:
            if fwd[v] != goal[v]:
                yield holder[goal[v]], v, None

    for u, v, delta in moves():
        # u also disagrees with h_neg, so both swap partners lie in the
        # disagreement set and carry degree <= disagreement_max_degree.
        if degree[u] == min_deg or degree[v] == min_deg:
            route = ((u, v),)
        else:
            route = ((u, w), (v, w), (u, w))
        start, last = total, len(route) - 1
        for i, (a, b) in enumerate(route):
            if i < last or delta is None:
                total += swap_delta(fwd, a, b, forest, graph)
            else:  # the route nets the transposition (u v), whose delta moves() took at the route's start
                total = start + delta
            ta, tb = fwd[a], fwd[b]
            fwd[a], fwd[b] = tb, ta
            holder[ta], holder[tb] = b, a
            steps.append(((a, b), total))
            if abs(total - centre) <= bound:
                # each step is a transposition, so fwd is still a bijection
                trace.result = Embedding.of_bijection(tuple(fwd), total)
                return trace.result, trace
    # Unreachable: the walk ends at h_neg with sum < centre - bound while it
    # started above centre + bound, and no step moves the sum by more than 2*bound.
    raise AssertionError("interpolation walk finished without entering the bound window")


def partial_interpolation_sequence(
    target: PartialEmbedding,
    source: PartialEmbedding,
    domain: tuple[int, ...] | list[int],
    core: tuple[int, ...] | list[int],
    spare: int,
) -> list[PartialEmbedding]:
    """Interpolate between two partial embeddings through injections only.

    Both maps share the given domain and agree on the core subset.  The free
    vertices (domain minus core) are rewritten one at a time from source to
    target values; when a target value is already occupied, its holder is
    parked at the spare target and released once the old slot frees up.  The
    spare must not appear in the source image; if some free vertex maps to the
    spare under target, it is processed last.

    Returns the full list h_0 .. h_{3r} with h_0 = source and h_{3r} = target,
    where r is the number of free vertices; consecutive entries differ in the
    image of at most one vertex and every entry is injective.
    """
    dom = tuple(sorted(domain))
    core_set = frozenset(core)
    if tuple(target.domain) != dom or tuple(source.domain) != dom:
        raise InvalidInputError("target and source must share exactly the given domain")
    if not core_set <= set(dom):
        raise InvalidInputError("core must be a subset of the domain")
    for v in core_set:
        if target[v] != source[v]:
            raise InvalidInputError(f"maps disagree on core vertex {v}")
    if spare in source.image():
        raise InvalidInputError(f"spare target {spare} lies in the source image")

    free = [v for v in dom if v not in core_set]
    # the vertex sent to the spare by target (if any) must come last
    free.sort(key=lambda v: (target[v] == spare, v))
    r = len(free)

    # one map rewritten in place: each PartialEmbedding appended takes its own copy
    seq = [source]
    current = {v: source[v] for v in dom}
    for i, vi in enumerate(free, start=1):
        old, want = current[vi], target[vi]
        # step 3i-2: park whoever sits on the wanted target (nobody, when vi does)
        parked = next((vj for vj in free[i:] if current[vj] == want), None)
        if parked is not None:
            current[parked] = spare
        seq.append(PartialEmbedding(current))
        # step 3i-1: put vi in place
        current[vi] = want
        seq.append(PartialEmbedding(current))
        # step 3i: release the parked vertex onto vi's old slot
        if parked is not None:
            current[parked] = old
        seq.append(PartialEmbedding(current))

    if len(seq) != 3 * r + 1:
        raise CertificateError(f"sequence has {len(seq)} maps, expected {3 * r + 1}")
    if seq[-1].mapping != {v: target[v] for v in dom}:
        raise CertificateError("sequence does not end at the target map")
    return seq
