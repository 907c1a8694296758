import itertools
import random

import numpy as np
import pytest

from forestbalance.core import (
    Embedding,
    Forest,
    InvalidInputError,
    PartialEmbedding,
    subgraph_sum,
    swap_images,
)
from forestbalance.generators import ForestSpec, make_forest, random_balanced_colouring
from forestbalance.interpolate import (
    InterpolationTrace,
    SignedPair,
    interpolate_traced,
    partial_interpolation_sequence,
)
from forestbalance.solver import ExtensionSampler, find_signed_pair


def signed_pair_by_search(forest, graph, seed, budget=3000):
    return find_signed_pair(forest, graph, rng=random.Random(seed), budget=budget)


def trace_branch(pair, forest, graph):
    """Check one interpolation trace and name the branch that produced it."""
    out, trace = interpolate_traced(pair, forest, graph)
    bound = pair.bound(forest)
    assert trace.achieved_bound == bound
    assert abs(out.colour_sum) <= bound
    assert trace.result == out
    # an end of the pair already within the bound is returned unwalked, h_pos first
    for name, end in (("h_pos", pair.h_pos), ("h_neg", pair.h_neg)):
        if abs(end.colour_sum) <= bound:
            assert out == end
            assert trace.steps == [(None, end.colour_sum)]
            return name
    # otherwise the walk starts at h_pos; replay it: each step is one
    # transposition and sums are exact
    current = pair.h_pos
    assert trace.steps[0] == (None, pair.h_pos.colour_sum)
    assert len(trace.steps) > 1
    prev = trace.steps[0][1]
    for swap, recorded in trace.steps[1:]:
        u, v = swap
        fwd = list(current.forward)
        fwd[u], fwd[v] = fwd[v], fwd[u]
        current = Embedding.build(fwd, forest, graph)
        assert current.colour_sum == recorded
        assert abs(recorded - prev) <= 2 * bound
        prev = recorded
    assert current == out
    return "walk"


class TestSignedPair:
    def test_orders_by_sign(self):
        g = random_balanced_colouring(8, 1)
        p8 = make_forest(ForestSpec("path", 8))
        pair = signed_pair_by_search(p8, g, 5)
        assert pair.h_neg.colour_sum <= 0 <= pair.h_pos.colour_sum
        for v in pair.disagreement:
            assert pair.h_neg.forward[v] != pair.h_pos.forward[v]
        degs = [p8.degree[v] for v in pair.disagreement]
        assert pair.disagreement_max_degree == max(degs, default=0)

    def test_disagreement_data_skips_agreeing_vertices(self):
        # the hub 0 (degree 3) has the same image in both maps, so its degree does not count
        forest = Forest(6, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)])
        pair = SignedPair.of(Embedding([0, 2, 1, 3, 5, 4], 2), Embedding([0, 1, 2, 3, 4, 5], -2), forest)
        assert pair.h_neg.colour_sum == -2
        assert pair.disagreement == (1, 2, 4, 5)
        assert all(type(v) is int for v in pair.disagreement)
        assert pair.disagreement_max_degree == 2

    def test_rows_given_with_the_embeddings_give_the_same_pair(self):
        # the sign search passes each sampled embedding with its forward map as an intp row
        forest = Forest(6, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)])
        low, high = Embedding([0, 2, 1, 3, 5, 4], -2), Embedding([0, 1, 2, 3, 4, 5], 2)
        with_row = {emb: (emb, np.array(emb.forward, dtype=np.intp)) for emb in (low, high)}
        bare = SignedPair.of(high, low, forest)
        assert bare.disagreement == (1, 2, 4, 5) and bare.disagreement_max_degree == 2
        for first, second in ((with_row[high], with_row[low]), (with_row[high], low), (high, with_row[low])):
            assert SignedPair.of(first, second, forest) == bare

    def test_same_strict_sign_rejected(self):
        g = random_balanced_colouring(8, 2)
        p8 = make_forest(ForestSpec("path", 8))
        rng = random.Random(0)
        embs = []
        while len(embs) < 2:
            fwd = list(range(8))
            rng.shuffle(fwd)
            e = Embedding.build(fwd, p8, g)
            if e.colour_sum > 0:
                embs.append(e)
        with pytest.raises(InvalidInputError):
            SignedPair.of(embs[0], embs[1], p8)

    def test_orders_by_side_of_the_centre(self):
        forest = Forest(4, [(0, 1), (1, 2), (2, 3)])
        low, high = Embedding([0, 1, 2, 3], 1), Embedding([1, 0, 2, 3], 3)
        pair = SignedPair.of(high, low, forest, centre=2)
        assert (pair.h_neg, pair.h_pos, pair.centre) == (low, high, 2)
        for centre in (0, 4):
            with pytest.raises(InvalidInputError, match=f"strictly on the same side of {centre}"):
                SignedPair.of(low, high, forest, centre=centre)


class TestInterpolate:
    def test_early_exit_returns_h_pos_unchanged(self):
        g = random_balanced_colouring(9, 3)
        forest = make_forest(ForestSpec("path", 9))
        pairs = [signed_pair_by_search(forest, g, seed) for seed in range(11, 21)]
        early = [pair for pair in pairs if abs(pair.h_pos.colour_sum) <= pair.bound(forest)]
        assert early  # the seeds include an early exit, so the check below runs
        for pair in early:
            assert interpolate_traced(pair, forest, g)[0] == pair.h_pos

    def test_identical_embeddings_mean_zero_sum(self):
        g = random_balanced_colouring(8, 4)
        forest = Forest(8, [])  # empty forest: every embedding sums to 0
        emb = Embedding.build(range(8), forest, g)
        pair = SignedPair.of(emb, emb, forest)
        assert pair.disagreement == ()
        assert interpolate_traced(pair, forest, g)[0] == emb

    def test_path_bound_500_trials(self):
        violations = 0
        for seed in range(500):
            n = 8
            g = random_balanced_colouring(n, seed)
            forest = make_forest(ForestSpec("path", n))
            pair = signed_pair_by_search(forest, g, 10_000 + seed)
            out = interpolate_traced(pair, forest, g)[0]
            if abs(out.colour_sum) > pair.disagreement_max_degree + 1:
                violations += 1
            assert subgraph_sum(g, out, forest) == out.colour_sum
        assert violations == 0

    def test_trace_structure(self):
        g = random_balanced_colouring(12, 9)
        forest = make_forest(ForestSpec("random", 12, max_degree=4, seed=2))
        branches = {trace_branch(signed_pair_by_search(forest, g, seed), forest, g) for seed in range(160, 170)}
        # the seeds cover every branch, so each one's checks ran
        assert branches == {"h_pos", "h_neg", "walk"}

    def test_three_step_swaps_use_lowest_minimum_degree_vertex(self):
        # a path has two leaves; pairing the extreme samples forces a long walk
        g = random_balanced_colouring(40, 3)
        forest = make_forest(ForestSpec("path", 40, seed=5))
        rng = random.Random(0)
        samples = []
        for _ in range(300):
            fwd = list(range(40))
            rng.shuffle(fwd)
            samples.append(Embedding.build(fwd, forest, g))
        low = min(samples, key=lambda e: e.colour_sum)
        high = max(samples, key=lambda e: e.colour_sum)
        pair = SignedPair.of(low, high, forest)
        out, trace = interpolate_traced(pair, forest, g)
        assert abs(out.colour_sum) <= pair.bound(forest) < min(-low.colour_sum, high.colour_sum)
        w = forest.degree.index(forest.min_degree)
        steps = [swap for swap, _ in trace.steps[1:]]
        assert len(steps) > 3
        # every step moves a minimum-degree vertex; the three-step swaps all use w
        assert all(forest.min_degree in (forest.degree[u], forest.degree[v]) for u, v in steps)
        assert sum(w in swap for swap in steps) > len(steps) // 2

    def test_walk_stops_within_the_bound_of_the_centre(self):
        g = random_balanced_colouring(40, 3)
        forest = make_forest(ForestSpec("path", 40))
        for seed in range(10):
            pair = extreme_pair(forest, g, None, seed, centre=5)
            out, trace = interpolate_traced(pair, forest, g)
            assert abs(out.colour_sum - 5) <= pair.bound(forest) == trace.achieved_bound
            assert all(abs(s - 5) > pair.bound(forest) for _, s in trace.steps[:-1])

    def test_isolated_vertex_strengthens_bound(self):
        # forest with an isolated vertex has min degree 0: certified at
        # disagreement max degree alone
        n = 9
        g = random_balanced_colouring(n, 21)
        forest = Forest(n, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)])
        assert forest.min_degree == 0
        for seed in range(50):
            pair = signed_pair_by_search(forest, g, 300 + seed)
            out = interpolate_traced(pair, forest, g)[0]
            assert abs(out.colour_sum) <= pair.disagreement_max_degree


def reference_interpolate_traced(pair, forest, graph, first_sweep=True):
    """The two-sweep walk with one new Embedding per step, via swap_images.

    The first sweep places, in ascending order, each disagreement vertex whose
    transposition with the holder of its target brings the sum strictly
    nearer the centre; the second places the rest, in ascending order.
    Without ``first_sweep`` every vertex waits for the second: the walk in
    index order.  Returns the result, its trace and whether the walk ended
    in the second sweep.
    """
    bound, centre = pair.bound(forest), pair.centre
    trace = InterpolationTrace(achieved_bound=bound)

    if abs(pair.h_pos.colour_sum - centre) <= bound:
        trace.steps.append((None, pair.h_pos.colour_sum))
        trace.result = pair.h_pos
        return pair.h_pos, trace, False
    if abs(pair.h_neg.colour_sum - centre) <= bound:
        trace.steps.append((None, pair.h_neg.colour_sum))
        trace.result = pair.h_neg
        return pair.h_neg, trace, False

    current = pair.h_pos
    trace.steps.append((None, current.colour_sum))
    holder = [0] * forest.n
    for x, t in enumerate(current.forward):
        holder[t] = x

    def apply(u, v):
        nonlocal current
        holder[current.forward[u]], holder[current.forward[v]] = v, u
        current = swap_images(current, u, v, forest, graph)
        trace.steps.append(((u, v), current.colour_sum))
        return abs(current.colour_sum - centre) <= bound

    min_deg = forest.min_degree
    w = forest.degree.index(min_deg)

    def place(u, v):
        """Move v onto its target, held by u; True once a step enters the window."""
        if forest.degree[u] == min_deg or forest.degree[v] == min_deg:
            return apply(u, v)
        return apply(u, w) or apply(v, w) or apply(u, w)

    deferred = []
    for v in pair.disagreement:
        target = pair.h_neg.forward[v]
        if current.forward[v] == target:
            continue
        u = holder[target]
        moved = swap_images(current, u, v, forest, graph).colour_sum
        if not first_sweep or abs(moved - centre) >= abs(current.colour_sum - centre):
            deferred.append(v)
        elif place(u, v):
            trace.result = current
            return current, trace, False
    for v in deferred:
        target = pair.h_neg.forward[v]
        if current.forward[v] != target and place(holder[target], v):
            trace.result = current
            return current, trace, True
    raise AssertionError("interpolation walk finished without entering the bound window")


def extreme_pair(forest, graph, anchor, seed, samples=40, centre=0):
    """The least and greatest of a few sampled extensions: far apart, so the walk is long."""
    images, sums = ExtensionSampler(forest, graph, anchor).draw(random.Random(seed), samples)
    lo, hi = int(np.argmin(sums)), int(np.argmax(sums))
    return SignedPair.of(
        Embedding(images[lo].tolist(), int(sums[lo])), Embedding(images[hi].tolist(), int(sums[hi])), forest, centre
    )


def walk_kinds(trace, forest):
    """{'end'} for an unwalked end; else which swap routes the walk took."""
    if len(trace.steps) == 1:
        return {"end"}
    w = forest.degree.index(forest.min_degree)
    swaps = [swap for swap, _ in trace.steps[1:]]
    kinds = set()
    # every three-step swap has w second, and only that route makes three such swaps in a row
    if any(b != w for _, b in swaps):
        kinds.add("direct")
    for first, second, third in zip(swaps, swaps[1:], swaps[2:]):
        if first[1] == second[1] == third[1] == w and first == third:
            kinds.add("three-step")
    return kinds


class TestInPlaceWalk:
    @pytest.mark.parametrize("n", [16, 64, 256, 512])
    def test_matches_the_swap_images_walk(self, n):
        g = random_balanced_colouring(n, n + 1)
        path = make_forest(ForestSpec("path", n))
        spider = make_forest(ForestSpec("random", n, max_degree=max(3, n // 8), seed=n))
        anchor = PartialEmbedding({0: n - 1, n // 2: 0, n - 1: n // 3})
        pairs = []
        for forest in (path, spider):
            for a in (None, anchor):
                pairs += [(forest, extreme_pair(forest, g, a, seed)) for seed in range(5)]
                pairs += [(forest, extreme_pair(forest, g, a, seed, centre=3)) for seed in range(5)]
                pairs += [(forest, find_signed_pair(forest, g, a, random.Random(seed))) for seed in range(5)]
        kinds = set()
        for forest, pair in pairs:
            out, trace = interpolate_traced(pair, forest, g)
            ref, ref_trace, second = reference_interpolate_traced(pair, forest, g)
            assert trace.steps == ref_trace.steps
            assert trace.achieved_bound == ref_trace.achieved_bound
            assert out.forward == ref.forward and out.colour_sum == ref.colour_sum
            assert type(out.forward) is tuple and trace.result is out
            assert subgraph_sum(g, out, forest) == out.colour_sum
            kinds |= walk_kinds(trace, forest)
            if len(trace.steps) > 1:
                kinds.add("second sweep" if second else "first sweep")
        # the pairs cover an unwalked end and both swap routes, so each was compared; they all
        # enter the window in the first sweep, and the test below reaches the second
        assert kinds == {"end", "direct", "three-step", "first sweep"}

    def test_walk_reaches_the_window_when_the_first_sweep_defers_every_vertex(self):
        # two samples on either side of the centre between them seldom leave no vertex whose
        # move nears it, so a few seeded blocks are searched for such pairs
        n = 12
        g = random_balanced_colouring(n, 7)
        forest = make_forest(ForestSpec("path", n))
        bound = max(forest.degree) + forest.min_degree  # no pair has a larger bound, so both ends lie outside its window
        found = 0
        for seed in range(20):
            images, sums = ExtensionSampler(forest, g).draw(random.Random(seed), 64)
            embs = [Embedding(row, s) for row, s in zip(images.tolist(), sums.tolist())]
            for low, high in itertools.product(embs, embs):
                centre = (low.colour_sum + high.colour_sum) // 2
                if not low.colour_sum < centre - bound < centre + bound < high.colour_sum:
                    continue
                pair = SignedPair.of(low, high, forest, centre)
                holder = {t: x for x, t in enumerate(high.forward)}
                moves = [swap_images(high, holder[low.forward[v]], v, forest, g) for v in pair.disagreement]
                if any(abs(m.colour_sum - centre) < abs(high.colour_sum - centre) for m in moves):
                    continue
                found += 1
                out, trace = interpolate_traced(pair, forest, g)
                ref, ref_trace, second = reference_interpolate_traced(pair, forest, g)
                in_order = reference_interpolate_traced(pair, forest, g, first_sweep=False)[1]
                assert second
                # nothing moved in the first sweep, so the walk is the one in index order
                assert trace.steps == ref_trace.steps == in_order.steps
                assert out.forward == ref.forward and out.colour_sum == ref.colour_sum
                assert abs(out.colour_sum - centre) <= pair.bound(forest) == trace.achieved_bound
                assert subgraph_sum(g, out, forest) == out.colour_sum
        assert found >= 2

    def test_two_sweeps_take_a_fifth_of_the_steps_in_index_order(self):
        steps = {"two sweeps": 0, "index order": 0}
        for n in (256, 512):
            g = random_balanced_colouring(n, n + 1)
            forest = make_forest(ForestSpec("path", n))
            for seed in range(10):
                pair = find_signed_pair(forest, g, rng=random.Random(seed))
                steps["two sweeps"] += len(interpolate_traced(pair, forest, g)[1].steps) - 1
                steps["index order"] += len(reference_interpolate_traced(pair, forest, g, first_sweep=False)[1].steps) - 1
        # 154 against 1,812 when this test was written
        assert 0 < 5 * steps["two sweeps"] <= steps["index order"]


def _pe(mapping):
    return PartialEmbedding(mapping)


class TestPartialInterpolationSequence:
    def test_equal_maps_yield_constant_sequence(self):
        g_map = _pe({0: 1, 2: 3, 4: 5})
        seq = partial_interpolation_sequence(g_map, g_map, [0, 2, 4], [0], spare=9)
        assert len(seq) == 3 * 2 + 1
        assert all(h == g_map for h in seq)

    def test_disjoint_images_single_free_vertex(self):
        source = _pe({0: 1, 5: 2})
        target = _pe({0: 1, 5: 7})
        seq = partial_interpolation_sequence(target, source, [0, 5], [0], spare=9)
        assert len(seq) == 4
        assert seq[0] == source
        assert seq[1] == source  # nothing to park
        assert seq[2] == target  # the free vertex moves
        assert seq[3] == target

    def test_overlapping_images_r3(self):
        # |domain| = 5, |universe| = 7, three free vertices with entangled targets
        domain = [0, 1, 2, 3, 4]
        core = [0, 1]
        source = _pe({0: 10, 1: 11, 2: 12, 3: 13, 4: 14})
        target = _pe({0: 10, 1: 11, 2: 13, 3: 14, 4: 12})
        spare = 16
        universe = {10, 11, 12, 13, 14, 16}
        seq = partial_interpolation_sequence(target, source, domain, core, spare)
        free = [2, 3, 4]
        r = 3
        assert len(seq) == 3 * r + 1
        assert seq[0] == source and seq[-1] == target
        for k, h in enumerate(seq):
            vals = [h[v] for v in domain]
            assert len(set(vals)) == len(vals)  # injective
            assert set(vals) <= universe  # stays inside the universe
            if k > 0:
                diff = [v for v in domain if seq[k - 1][v] != h[v]]
                assert len(diff) <= 1  # one vertex moves at a time
            assert h[0] == 10 and h[1] == 11  # core pinned
        for i in range(1, r + 1):
            h3i = seq[3 * i]
            if i < r:
                assert spare not in {h3i[v] for v in domain}
            for j in range(1, i + 1):
                assert h3i[free[j - 1]] == target[free[j - 1]]

    def test_spare_as_final_target(self):
        # one free vertex must land on the spare itself: it is processed last
        source = _pe({0: 1, 2: 3, 4: 5})
        target = _pe({0: 1, 2: 9, 4: 3})
        seq = partial_interpolation_sequence(target, source, [0, 2, 4], [0], spare=9)
        assert seq[-1] == target
        free_order_last = 2  # target[2] == spare, so vertex 2 goes last
        mid = seq[3]  # after the first free vertex (4) is finished
        assert mid[4] == 3

    def test_preconditions(self):
        source = _pe({0: 1, 2: 3})
        target = _pe({0: 2, 2: 3})
        with pytest.raises(InvalidInputError):  # disagree on core
            partial_interpolation_sequence(target, source, [0, 2], [0], spare=9)
        with pytest.raises(InvalidInputError):  # spare inside source image
            partial_interpolation_sequence(
                _pe({0: 1, 2: 4}), source, [0, 2], [0], spare=3
            )
        with pytest.raises(InvalidInputError):  # domain mismatch
            partial_interpolation_sequence(_pe({0: 1}), source, [0, 2], [0], spare=9)

    def test_randomised_conclusions(self):
        from forestbalance.verify import suite_partial_interpolation

        report = suite_partial_interpolation(trials=60, seed=5)
        assert report["passed"], report["violations"]
