"""Swap interpolation between two opposite-sign embeddings.

Given embeddings with colour sums on either side of zero, repeatedly swapping
two images changes the sum by a bounded amount, so somewhere along the way an
embedding of small imbalance must appear.  Routing every swap through a
minimum-degree vertex keeps each step's sum change at most
2 * (disagreement max degree + forest min degree).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (
    CertificateError,
    ColouredCompleteGraph,
    Embedding,
    Forest,
    InvalidInputError,
    PartialEmbedding,
    swap_images,
)


@dataclass(frozen=True)
class SignedPair:
    """Two embeddings with sums on opposite sides of zero.

    disagreement is the sorted set of forest vertices the two maps send to
    different targets; disagreement_max_degree is the largest forest degree
    over that set (0 when they agree everywhere).
    """

    h_neg: Embedding
    h_pos: Embedding
    disagreement: tuple[int, ...]
    disagreement_max_degree: int

    @classmethod
    def of(cls, first: Embedding, second: Embedding, forest: Forest) -> "SignedPair":
        """Order two embeddings by sign and compute their disagreement data."""
        if first.colour_sum <= 0 <= second.colour_sum:
            neg, pos = first, second
        elif second.colour_sum <= 0 <= first.colour_sum:
            neg, pos = second, first
        else:
            raise InvalidInputError(
                f"sums {first.colour_sum} and {second.colour_sum} are strictly on "
                "the same side of zero"
            )
        dis = tuple(
            v for v in range(forest.n) if neg.forward[v] != pos.forward[v]
        )
        dmax = max((forest.degree[v] for v in dis), default=0)
        return cls(neg, pos, dis, dmax)

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
    """Interpolate and return the qualifying embedding together with its trace."""
    bound = pair.bound(forest)
    trace = InterpolationTrace(achieved_bound=bound)

    if abs(pair.h_pos.colour_sum) <= bound:
        trace.steps.append((None, pair.h_pos.colour_sum))
        trace.result = pair.h_pos
        return pair.h_pos, trace
    if abs(pair.h_neg.colour_sum) <= bound:
        trace.steps.append((None, pair.h_neg.colour_sum))
        trace.result = pair.h_neg
        return pair.h_neg, trace

    current = pair.h_pos
    trace.steps.append((None, current.colour_sum))
    holder = [0] * forest.n  # holder[t]: the forest vertex current sends to t
    for x, t in enumerate(current.forward):
        holder[t] = x

    def apply(u: int, v: int) -> Embedding | None:
        nonlocal current
        holder[current.forward[u]], holder[current.forward[v]] = v, u
        current = swap_images(current, u, v, forest, graph)
        trace.steps.append(((u, v), current.colour_sum))
        if abs(current.colour_sum) <= bound:
            return current
        return None

    min_deg = forest.min_degree
    # The three-step swap runs only when neither u nor v has minimum degree,
    # so the lowest-index minimum-degree vertex is always a free intermediate.
    w = forest.degree.index(min_deg)
    for v in pair.disagreement:
        target = pair.h_neg.forward[v]
        if current.forward[v] == target:
            continue
        u = holder[target]
        # u also disagrees with h_neg, so both swap partners lie in the
        # disagreement set and carry degree <= disagreement_max_degree.
        if forest.degree[u] == min_deg or forest.degree[v] == min_deg:
            done = apply(u, v)
            if done is not None:
                trace.result = done
                return done, trace
        else:
            for a, b in ((u, w), (v, w), (u, w)):
                done = apply(a, b)
                if done is not None:
                    trace.result = done
                    return done, trace
    # Unreachable: the walk ends at h_neg with sum < -bound while it started
    # above +bound, and no step moves the sum by more than 2*bound.
    raise AssertionError("interpolation walk finished without entering the bound window")


def interpolate(pair: SignedPair, forest: Forest, graph: ColouredCompleteGraph) -> Embedding:
    """Embedding with |colour sum| <= disagreement max degree + forest min degree."""
    result, _ = interpolate_traced(pair, forest, graph)
    if abs(result.colour_sum) > pair.bound(forest):
        raise CertificateError(
            f"interpolation returned |sum| = {abs(result.colour_sum)} above its bound {pair.bound(forest)}"
        )
    return result


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

    seq = [source]
    current = {v: source[v] for v in dom}
    for i, vi in enumerate(free, start=1):
        before = dict(current)
        want = target[vi]
        # step 3i-2: park whoever sits on the wanted target
        parked = None
        if before[vi] != want:
            for j in range(i, r):
                vj = free[j]
                if current[vj] == want:
                    parked = vj
                    current[vj] = spare
                    break
        seq.append(PartialEmbedding(current))
        # step 3i-1: put vi in place
        current = dict(current)
        current[vi] = want
        seq.append(PartialEmbedding(current))
        # step 3i: release the parked vertex onto vi's old slot
        current = dict(current)
        if parked is not None:
            current[parked] = before[vi]
        seq.append(PartialEmbedding(current))

    if len(seq) != 3 * r + 1:
        raise CertificateError(f"sequence has {len(seq)} maps, expected {3 * r + 1}")
    if seq[-1].mapping != {v: target[v] for v in dom}:
        raise CertificateError("sequence does not end at the target map")
    return seq
