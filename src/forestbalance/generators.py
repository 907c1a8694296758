"""Colouring constructions and forest families used by the solver and tests."""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    BLUE,
    RED,
    ColouredCompleteGraph,
    Forest,
    InvalidInputError,
    ParityError,
)

# Probability that a fresh vertex attaches to an earlier one in the random
# forest process; the remaining mass leaves it as a new component root.
_ATTACH_PROB = 0.9

#: the forest families make_forest builds
FOREST_KINDS = ("star", "path", "random", "broom")


def _check_size(n: int) -> None:
    if n < 2:
        raise InvalidInputError(f"a colouring needs at least 2 vertices, got n={n}")


#: a shuffle of at least this many pairs is drawn with numpy
#: (``_shuffle_signs_numpy``), which has fixed costs of ~0.2 ms; the loop
#: wins below it.  Medians of 15 on a 2-core VM (Python 3.11.7, numpy
#: 2.4.6), numpy / loop: n = 9 0.18 / 0.014 ms, n = 97 0.67 / 0.42 ms,
#: n = 121 0.68 / 0.66 ms, n = 129 0.76 / 0.73 ms, n = 145 0.87 / 0.94 ms,
#: n = 181 0.96 / 1.54 ms.  2^13 puts n <= 128 on the loop.
_NUMPY_PAIRS = 1 << 13
#: the most words one fixpoint pass of ``_shuffle_picks`` reads at once
_CHUNK = 1 << 14


def random_balanced_colouring(n: int, seed: int) -> ColouredCompleteGraph:
    """Uniformly random colouring with exactly half the edges of each colour.

    Requires an even number of edges, i.e. n = 0 or 1 (mod 4), and fewer
    than 2^32 edges.  Deterministic for a fixed seed: the pairs (1,0),
    (2,0), (2,1), (3,0), ... are numbered in that order, the numbers
    shuffled with ``random.Random(seed).shuffle`` and the first half
    painted red.

    Only the half of the shuffle that decides the red set runs.  Fisher-Yates
    fixes position i for good at step i, from the last position down, so once
    the steps i = npairs-1 ... npairs/2 are done the set left in the first
    half is decided; the remaining steps would only reorder it.  Each step
    draws j exactly as ``shuffle`` does (``_randbelow(i + 1)``:
    ``getrandbits`` of (i+1).bit_length() bits, redrawn while above i), so
    the colouring is the one the full shuffle gives, with half the draws.

    Two routes draw the same steps: below ``_NUMPY_PAIRS`` (8,192 pairs,
    so n <= 128) a Python loop swaps one pair per step
    (``_shuffle_signs_loop``); from there on numpy does the steps in bulk
    (``_shuffle_signs_numpy``), the faster of the two from about n = 129,
    where they measured even.
    """
    _check_size(n)
    npairs = n * (n - 1) // 2
    if npairs % 2 != 0:
        raise ParityError(
            f"K_{n} has {npairs} edges, which cannot be split evenly; "
            "a balanced colouring needs n = 0 or 1 (mod 4)"
        )
    if npairs >= 1 << 32:
        raise InvalidInputError(f"K_{n} has {npairs} edges; a random colouring needs fewer than 2^32")
    shuffle = _shuffle_signs_loop if npairs < _NUMPY_PAIRS else _shuffle_signs_numpy
    return ColouredCompleteGraph.from_lower_triangle(n, shuffle(npairs, seed))


def _shuffle_signs_loop(npairs: int, seed: int) -> np.ndarray:
    """The pairs' int8 signs: Fisher-Yates steps npairs-1 ... npairs/2, one swap at a time; the first half red."""
    getrandbits = random.Random(seed).getrandbits
    order = list(range(npairs))
    half = npairs // 2
    for i in range(npairs - 1, half - 1, -1):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        order[i], order[j] = order[j], order[i]
    signs = np.full(npairs, BLUE, dtype=np.int8)
    signs[order[:half]] = RED
    return signs


def _shuffle_signs_numpy(npairs: int, seed: int) -> np.ndarray:
    """``_shuffle_signs_loop``'s signs for 6 <= npairs < 2^32, from the same draws, with no per-step Python.

    ``_shuffle_picks`` gives every step's j.  The value that lands at i for
    good at step t is the one at j just before it: j itself unless an
    earlier step picked j too, in which case it is the value that step
    moved there from its own i, found by following, from each step, the
    last earlier step that picked its i.  A stable order of the picks by
    (j, step) gives both.  Every pair that never lands is red.
    """
    half = npairs // 2
    steps = npairs - half
    # sort the picks by (j, step) in one key: the step in the low bits
    shift = steps.bit_length()
    key = np.sort(_shuffle_picks(npairs, seed) << shift | np.arange(steps))
    picks, step = key >> shift, key & ((1 << shift) - 1)
    # source[t]: the last step to pick step t's i, else t; a step that picks its own i is that
    # last one, but then nothing reads what it moved, so it may stand as its own source
    ends = np.append(np.flatnonzero(picks[1:] != picks[:-1]), steps - 1)
    ends = ends[np.searchsorted(picks[ends], half):]
    source = np.arange(steps)
    source[npairs - 1 - picks[ends]] = step[ends]
    # pointer jumping: then source[t] is the step whose i's own value step t moves
    while True:
        nxt = source[source]
        if np.array_equal(nxt, source):
            break
        source = nxt
    # a position's first pick lands its own value; each later one what the step before it moved in
    again = np.flatnonzero(picks[1:] == picks[:-1])
    picks[again + 1] = npairs - 1 - source[step[again]]
    signs = np.full(npairs, RED, dtype=np.int8)
    signs[picks] = BLUE
    return signs


def _shuffle_picks(npairs: int, seed: int) -> np.ndarray:
    """The j that ``random.Random(seed)`` gives Fisher-Yates steps i = npairs-1 ... npairs/2, in step order.

    ``randbytes(4c)`` read as little-endian uint32 is the generator's next c
    ``getrandbits(32)`` words, and ``getrandbits(k)`` for k <= 32 is the next
    word shifted right by 32 - k.  The steps that share k = (i+1).bit_length()
    (at most two runs) draw words in batches of exactly the steps left, so
    no word past the run's last step is drawn.  The p-th word of a chunk is
    accepted iff its j <= i - s(p), with i the chunk's first step and s(p)
    the words accepted before p; since s(p) depends on earlier words only,
    iterating s = (exclusive cumulative sum of the acceptances) from a guess
    reaches that rule's one fixpoint, in a few passes over chunks of at most
    2^k / 8 words.
    """
    randbytes = random.Random(seed).randbytes
    half = npairs // 2
    picks = np.empty(npairs - half, dtype=np.int64)
    done, i = 0, npairs - 1
    while i >= half:
        k = (i + 1).bit_length()
        last = max(half, (1 << (k - 1)) - 1)  # the run's last step
        width = min(1 << (k - 3), _CHUNK)  # k >= 3, since npairs >= 6
        while i >= last:
            words = np.frombuffer(randbytes(4 * (i - last + 1)), dtype="<u4") >> (32 - k)
            ramp = np.arange(min(width, words.size), dtype=np.float64) * ((i + 1) / (1 << k))
            for a in range(0, words.size, width):
                j = words[a:a + width].astype(np.int64)
                s = ramp[:j.size].astype(np.int64)  # the expected acceptances, a guess
                while True:
                    accepted = j <= i - s
                    nxt = np.cumsum(accepted)
                    nxt -= accepted
                    if np.array_equal(nxt, s):
                        break
                    s = nxt
                got = j.compress(accepted)
                picks[done:done + got.size] = got
                done += got.size
                i -= got.size
    return picks


def split_parity_colouring(n: int) -> ColouredCompleteGraph:
    """Balanced colouring on two vertex classes forcing every spanning star to be skewed.

    Vertices split into a first class (indices 0..n/2-1, 1-based labels i) and
    a second class (indices n/2..n-1, labels j).  Edges inside the first class
    are blue, inside the second class red, and a cross edge is blue exactly
    when i + j is odd.  Every vertex ends up with |red - blue degree| = n/2 - 1,
    so every embedding of the n-vertex star has |sum| = (n-2)/2.
    """
    _check_size(n)
    if n % 4 != 0:
        raise InvalidInputError(f"split-parity colouring needs n divisible by 4, got {n}")
    half = n // 2
    label = np.arange(n) % half + 1  # 1-based within each class
    second = np.arange(n) >= half
    cross = second[:, None] != second[None, :]
    odd = (label[:, None] + label[None, :]) % 2 == 1
    red = np.where(cross, ~odd, second[:, None] & second[None, :])
    return ColouredCompleteGraph.from_red_matrix(red)


def degree_interval(epsilon: Fraction) -> tuple[Fraction, Fraction]:
    """Open interval of cross-edge densities keeping every vertex colour-skewed."""
    e = Fraction(epsilon)
    lo = (Fraction(1, 4) + e * e / 2 - e) / (Fraction(1, 2) - e)
    hi = (Fraction(1, 4) - e * e / 2) / (Fraction(1, 2) + e)
    return lo, hi


def density_interval(epsilon: Fraction) -> tuple[Fraction, Fraction]:
    """Open interval of cross-edge densities keeping the red edge density near 1/2."""
    e = Fraction(epsilon)
    lo = (Fraction(1, 8) - e - e * e / 2) / (Fraction(1, 4) - e * e)
    return lo, Fraction(1, 2)


def choose_density_ratio(epsilon: Fraction) -> Fraction:
    """Smallest-denominator rational strictly inside both admissible intervals.

    Ties between numerators are broken towards the smaller one.  The first
    interval is contained in the second for 0 < epsilon < 1/2, but both are
    checked explicitly.
    """
    e = Fraction(epsilon)
    if not 0 < e < Fraction(1, 2):
        raise InvalidInputError(f"epsilon must be in (0, 1/2), got {e}")
    lo1, hi1 = degree_interval(e)
    lo2, hi2 = density_interval(e)
    lo = max(lo1, lo2)
    hi = min(hi1, hi2)
    if not lo < hi:
        raise InvalidInputError(f"empty admissible interval for epsilon={e}")
    for q in range(1, 10_000):
        p_min = math.floor(lo * q) + 1
        p_max = math.ceil(hi * q) - 1
        for p in range(max(p_min, 1), p_max + 1):
            d = Fraction(p, q)
            if lo1 < d < hi1 and lo2 < d < hi2:
                return d
    raise InvalidInputError(f"no admissible rational found for epsilon={e}")


def _round_half_up(x: Fraction) -> int:
    return math.floor(x + Fraction(1, 2))


@dataclass(frozen=True)
class PerturbedParams:
    """Parameters for the two-block colouring with a modular cross-edge rule."""

    n: int
    epsilon: Fraction
    d: Fraction
    part_a: range
    part_b: range

    def __post_init__(self):
        if not 0 < self.d < 1:
            raise InvalidInputError(f"d must be in (0, 1), got {self.d}")
        if self.d.numerator <= 0 or self.d.numerator >= self.d.denominator:
            raise InvalidInputError(f"d = x/y needs 0 < x < y, got {self.d}")
        if not 0 < self.epsilon < Fraction(1, 2):
            raise InvalidInputError(f"epsilon must be in (0, 1/2), got {self.epsilon}")
        if (
            self.part_a.start != 0
            or self.part_a.stop != self.part_b.start
            or self.part_b.stop != self.n
        ):
            raise InvalidInputError("parts must partition [0, n) contiguously")
        if len(self.part_a) < 1 or len(self.part_b) < 1:
            raise InvalidInputError("both parts must be non-empty")

    @classmethod
    def for_ratio(
        cls, n: int, epsilon: Fraction, d: Fraction | None = None
    ) -> "PerturbedParams":
        """Standard parameters: |A| = round((1/2 - epsilon) n), admissible d.

        When d is given explicitly it is validated against both admissible
        intervals; omit it to take the smallest-denominator choice.
        """
        e = Fraction(epsilon)
        if d is None:
            d = choose_density_ratio(e)
        else:
            d = Fraction(d)
            lo1, hi1 = degree_interval(e)
            lo2, hi2 = density_interval(e)
            if not (lo1 < d < hi1 and lo2 < d < hi2):
                raise InvalidInputError(
                    f"d={d} is not strictly inside both admissible intervals for epsilon={e}"
                )
        size_a = _round_half_up((Fraction(1, 2) - e) * n)
        return cls(n, e, d, range(0, size_a), range(size_a, n))


def perturbed_colouring(params: PerturbedParams) -> ColouredCompleteGraph:
    """Two-block colouring: blue inside A, red inside B, modular rule across.

    Cross edge between the i-th vertex of A and the j-th vertex of B (both
    1-based) is red exactly when (i + j) mod y lands in {1, ..., x}, where
    d = x/y.
    """
    n = params.n
    x = params.d.numerator
    y = params.d.denominator
    size_a = len(params.part_a)
    red = np.zeros((n, n), dtype=bool)
    red[size_a:, size_a:] = True
    # residues of (i + j) for 1-based i in A, j in B, mapped to {1..y}
    ia = np.arange(1, size_a + 1)
    jb = np.arange(1, n - size_a + 1)
    res = (ia[:, None] + jb[None, :]) % y
    res[res == 0] = y
    cross_red = res <= x
    red[:size_a, size_a:] = cross_red
    red[size_a:, :size_a] = cross_red.T
    np.fill_diagonal(red, False)
    return ColouredCompleteGraph.from_red_matrix(red)


def perturbed_red_count(params: PerturbedParams) -> int:
    """Closed-form red-edge count of the perturbed colouring (exact).

    F(t) = (t // y) x + min(t mod y, x) counts the s in {1, ..., t} whose
    residue mod y lands in {1, ..., x}, so the i-th vertex of A has
    F(i + |B|) - F(i) red cross edges; all edges inside B are red.
    """
    x = params.d.numerator
    y = params.d.denominator
    size_b = len(params.part_b)

    def red_upto(t: int) -> int:
        return (t // y) * x + min(t % y, x)

    cross = sum(red_upto(i + size_b) - red_upto(i) for i in range(1, len(params.part_a) + 1))
    return size_b * (size_b - 1) // 2 + cross


@dataclass(frozen=True)
class ForestSpec:
    """Description of a forest family instance."""

    kind: str
    n: int
    max_degree: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in FOREST_KINDS:
            raise InvalidInputError(f"unknown forest kind {self.kind!r}")
        if self.n < 1:
            raise InvalidInputError(f"forest needs at least one vertex, got n={self.n}")


def make_forest(spec: ForestSpec) -> Forest:
    """Build a forest from a spec.  Star, path and broom are deterministic.

    ``random`` is seeded sequential attachment: each vertex v >= 1 draws
    ``rng.random()`` and, below the attach probability, joins a vertex drawn
    by ``rng.choice`` from the earlier vertices still below the degree cap
    (none when that list is empty).  The list is kept ascending as v
    advances, dropping a vertex when it reaches the cap and appending v
    after its own step when v is below it, so the build is linear in n and
    draws exactly what rebuilding the list for every v would.
    """
    n = spec.n
    if spec.kind == "star":
        if spec.max_degree is not None and spec.max_degree != n - 1:
            raise InvalidInputError(
                f"a spanning star on {n} vertices has max degree {n - 1}, "
                f"not {spec.max_degree}"
            )
        return Forest(n, [(0, i) for i in range(1, n)])

    if spec.kind == "path":
        if spec.max_degree is not None and n >= 3 and spec.max_degree != 2:
            raise InvalidInputError("a path on 3+ vertices has max degree 2")
        return Forest(n, [(i, i + 1) for i in range(n - 1)])

    if spec.kind == "broom":
        cap = spec.max_degree
        if cap is None or not 1 <= cap <= n - 1:
            raise InvalidInputError(f"broom needs a max degree in [1, {n - 1}], got {cap}")
        edges = [(0, i) for i in range(1, cap + 1)]
        edges.extend((i, i + 1) for i in range(cap, n - 1))
        return Forest(n, edges)

    # random: sequential attachment, rejecting vertices at the degree cap.
    cap = spec.max_degree if spec.max_degree is not None else n - 1
    if cap < 1:
        raise InvalidInputError(f"random forest needs max degree >= 1, got {cap}")
    rng = random.Random(spec.seed)
    degree = [0] * n
    edges = []
    eligible = [0]  # the earlier vertices below the cap, ascending
    for v in range(1, n):
        if rng.random() < _ATTACH_PROB and eligible:
            u = rng.choice(eligible)
            edges.append((u, v))
            degree[u] += 1
            degree[v] = 1
            if degree[u] == cap:
                del eligible[bisect.bisect_left(eligible, u)]
        if degree[v] < cap:
            eligible.append(v)
    forest = Forest(n, edges)
    if forest.max_degree > cap:
        raise AssertionError("degree cap violated by construction")
    return forest
