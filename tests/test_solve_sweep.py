"""The fixed solve() and oracle grids of tools/solve_sweep.py and its row comparison."""

import copy
import importlib.util
import json
import math
import time
from pathlib import Path

import pytest

from forestbalance.solver import SAMPLE_BUDGET

_PATH = Path(__file__).resolve().parent.parent / "tools" / "solve_sweep.py"
_SPEC = importlib.util.spec_from_file_location("solve_sweep", _PATH)
solve_sweep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(solve_sweep)


@pytest.fixture(scope="module")
def timed_grid():
    """Both grids' lines, run once, each line's wall time, and the texts parse_forest read in each grid."""
    from forestbalance import core

    timings, parsed = [], []
    parse_forest = core.parse_forest

    def recording(text, graph_n=None):
        parsed[-1].append(text)
        return parse_forest(text, graph_n)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "parse_forest", recording)
        parsed.append([])
        grid = solve_sweep.grid_lines(timings)
        parsed.append([])
        oracle = solve_sweep.oracle_lines(timings)
    return grid, oracle, timings, parsed


def test_grid_reaches_every_mechanism_and_repeats_itself(timed_grid):
    # the first run also recorded timings, which must leave the rows alone
    first, second = timed_grid[0], solve_sweep.grid_lines([])
    assert first == second
    rows = [json.loads(line) for line in first]
    assert len(rows) == 13 * 4 * 9 * 2 * 2
    assert {row.get("mechanism") for row in rows} == {"exact", "interpolation", "hub-split", None}
    assert all(row["stats"].keys() == {"samples_drawn"} for row in rows if row["error"] is None)
    # one digest per (n, colouring, forest, seed) input, the same under both thresholds;
    # None only where the colouring itself was refused
    instances = {}
    for row in rows:
        instances.setdefault((row["n"], row["colouring"], row["forest"], row["seed"]), set()).add(row["instance"])
    assert all(len(digests) == 1 for digests in instances.values())
    assert all(len(row["instance"]) == 16 for row in rows if "embedding" in row)
    assert {row["balanced"] for row in rows if row["colouring"] in ("random", "red-poor")} == {True}
    assert False in {row["balanced"] for row in rows if row["colouring"] == "perturbed"}


def test_oracle_grid_covers_twin_leaves_and_partials_and_repeats_itself(timed_grid):
    first, second = timed_grid[1], solve_sweep.oracle_lines([])
    assert first == second
    rows = [json.loads(line) for line in first]
    assert len(rows) == 5 * 3 * 2 * 8 * 4
    assert all(row["error"] is None for row in rows)
    assert {row["n"] for row in rows} == {5, 6, 7, 8, 9}
    signs = [row for row in rows if row["query"] == "sign"]
    assert {len(row["fixed"]) for row in signs} == {0, 1, 2}
    assert all(row["extensions"] == math.factorial(row["n"] - len(row["fixed"])) for row in signs)
    assert all(row["min_sum"] <= row["max_sum"] for row in signs)
    mins = [row for row in rows if row["query"] == "min"]
    assert len(mins) == len(signs) // 3 and all(sorted(row["witness"]) == list(range(row["n"])) for row in mins)

    def has_twins(kind, n):
        # two leaves of one parent, or two isolated vertices
        forest = solve_sweep._oracle_forest(kind, n, 0)
        neighbours = [forest.neighbours[v] for v in range(n) if forest.degree[v] <= 1]
        return len(neighbours) > len(set(neighbours))

    assert not any(has_twins("path", n) for n in solve_sweep.ORACLE_N)
    for kind in ("broom", "caterpillar", "isolated"):
        assert all(has_twins(kind, n) for n in solve_sweep.ORACLE_N), kind
    for kind, degree in (("edgeless", lambda n: 0), ("one-edge", lambda n: 1), ("star-isolated", lambda n: n // 2)):
        for n in solve_sweep.ORACLE_N:
            forest = solve_sweep._oracle_forest(kind, n, 0)
            assert forest.edge_count == forest.max_degree == degree(n), kind
    assert all(row["value"] == 0 for row in mins if row["forest"] == "edgeless")
    assert all(len(row["instance"]) == 16 for row in rows)


def test_every_forest_is_parsed_back_from_its_canonical_text(timed_grid):
    from forestbalance.core import parse_forest, serialize_forest

    grid, oracle, _, parsed = timed_grid
    for lines, texts in ((grid, parsed[0]), (oracle, parsed[1])):
        rows = [json.loads(line) for line in lines]
        # one forest per input cell whose colouring was built
        cells = {(row["n"], row["colouring"], row["forest"], row["seed"]) for row in rows if row["instance"]}
        assert len(texts) == len(cells)
        assert all(serialize_forest(parse_forest(text)) == text for text in texts)


def test_relabelled_forests_repeat_a_high_end():
    # a vertex above two of its neighbours, so parse_forest's union-find pass decides acyclicity;
    # at n = 256 and 257 that is the numpy route's fallback
    for n in solve_sweep.N_LIST:
        for seed in solve_sweep.SEEDS:
            forest, random_forest = solve_sweep._forest("relabelled", n, seed), solve_sweep._forest("random", n, seed)
            assert forest == solve_sweep._forest("relabelled", n, seed) != random_forest
            assert sorted(forest.degree) == sorted(random_forest.degree)
            highs = [v for _, v in forest.edges]
            assert len(set(highs)) < len(highs) or n == 5, (n, seed)


def test_census_counts_add_up_to_the_grids(timed_grid):
    grid, oracle, timings, _ = timed_grid
    rows = [json.loads(line) for line in grid + oracle]
    assert len(timings) == len(rows)
    summary = solve_sweep.census(rows, timings, SAMPLE_BUDGET)
    assert sum(count for count, _ in summary["solve"].values()) == len(grid) == 13 * 4 * 9 * 2 * 2
    assert sum(count for count, _ in summary["oracle"].values()) == len(oracle) == 5 * 3 * 2 * 8 * 4
    assert {query for query, _ in summary["oracle"]} == {"min", "sign"}
    certified = sum(1 for row in rows if row.get("certified_value") is not None)
    assert sum(total for _, total in summary["over_refined"].values()) == certified
    assert all(0 <= over <= total for over, total in summary["over_refined"].values())
    # no grid row reaches the sample cap, and only the oracle's exact rows draw nothing
    assert summary["samples"].keys() == {"exact", "interpolation", "hub-split"}
    assert summary["samples"]["exact"] == [0, 0]
    assert all(0 < largest < SAMPLE_BUDGET and at_cap == 0 for largest, at_cap in
               (summary["samples"][m] for m in ("interpolation", "hub-split")))
    # every mechanism but the oracle's walks; the oracle's rows carry no trace
    assert summary["walks"].keys() == {"interpolation", "hub-split"}
    assert all(total >= largest >= 0 for total, largest in summary["walks"].values())
    assert sum(total for total, _ in summary["walks"].values()) == sum(
        len(row["trace"]) - 1 for row in rows if row.get("trace") is not None)
    text = solve_sweep.format_census("change", summary)
    assert text.startswith("census of the change: ")
    assert len(text.splitlines()) == (len(summary["solve"]) + len(summary["samples"]) + len(summary["walks"])
                                      + len(summary["oracle"]) + 5)
    assert f"samples drawn by mechanism: largest, rows at SAMPLE_BUDGET = {SAMPLE_BUDGET}" in text


def test_census_counts_the_largest_draw_and_the_rows_at_the_cap():
    rows = [{"colouring": "c", "mechanism": m, "balanced": True, "stats": {"samples_drawn": d},
             "trace": [[None, 9], *[[[0, 1], 9 - 2 * k] for k in range(1, walk + 1)]]}
            for m, d, walk in (("interpolation", 7, 4), ("interpolation", 50, 0), ("hub-split", 3, 2),
                               ("hub-split", 50, 5))]
    rows.append({"colouring": "c", "mechanism": None, "balanced": True, "error": "InvalidInputError: x"})
    summary = solve_sweep.census(rows, [1.0] * len(rows), 50)
    assert summary["samples"] == {"interpolation": [50, 1], "hub-split": [50, 1]}
    assert summary["walks"] == {"interpolation": [4, 4], "hub-split": [7, 5]}
    lines = solve_sweep.format_census("parent", summary).splitlines()
    start = lines.index("  samples drawn by mechanism: largest, rows at SAMPLE_BUDGET = 50")
    assert [line.split() for line in lines[start + 1:start + 3]] == [["hub-split", "50", "1"],
                                                                      ["interpolation", "50", "1"]]
    assert lines[start + 3] == "  walk steps by mechanism: total, largest"
    assert [line.split() for line in lines[start + 4:start + 6]] == [["hub-split", "7", "5"],
                                                                      ["interpolation", "4", "4"]]


def test_instance_digest_tells_inputs_apart():
    from forestbalance.core import Forest
    from forestbalance.generators import random_balanced_colouring

    graph = random_balanced_colouring(8, 0)
    path = Forest(8, [(v, v + 1) for v in range(7)])
    digest = solve_sweep.instance_digest(graph, path)
    assert digest == solve_sweep.instance_digest(random_balanced_colouring(8, 0), Forest(8, path.edges))
    assert digest != solve_sweep.instance_digest(random_balanced_colouring(8, 1), path)
    assert digest != solve_sweep.instance_digest(graph, Forest(8, path.edges[:-1]))


def test_compare_counts_differing_rows_per_field():
    parent = [{"n": 8, "colouring": "random", "forest": "path", "seed": s, "exact_threshold": 0,
               "achieved": 1, "certified_value": 5.0, "stats": {"samples_drawn": 3}} for s in range(5)]
    change = copy.deepcopy(parent)
    change[1].update(achieved=3, stats={"samples_drawn": 4})
    change[2].update(certified_value=3.0)
    change[3].update(achieved=None, error="InvalidInputError: x")  # an error on one side neither rose nor fell
    change[4]["stats"] = {}
    lines = solve_sweep.compare(parent, change).splitlines()
    assert lines[0] == ("4 of 5 rows differ from the parent's (by field: achieved 2, certified_value 1, error 1, "
                        "stats 2); achieved rose in 1 and fell in 0; certified_value rose in 0 and fell in 1")
    assert lines[2:4] == ["    achieved: parent 1 / change 3",
                          '    stats: parent {"samples_drawn": 3} / change {"samples_drawn": 4}']
    assert solve_sweep.compare(parent, parent).splitlines() == [
        "0 of 5 rows differ from the parent's (by field: none); achieved rose in 0 and fell in 0; "
        "certified_value rose in 0 and fell in 0"]


def test_both_tools_count_rises_and_falls_with_one_helper():
    import bench_pairs  # solve_sweep put tools/ on the path

    parent = [{"n": 8, "seed": s, "achieved": a, "certified_value": c, "failed": False}
              for s, (a, c) in enumerate(((1, 5.0), (2, 4.0), (None, 3.0), (3, None)))]
    change = copy.deepcopy(parent)
    change[0].update(achieved=2, certified_value=4.0)
    change[1].update(certified_value=6.0)
    change[2].update(achieved=1)  # None on the parent side: neither rose nor fell
    moves = "achieved rose in 1 and fell in 0; certified_value rose in 1 and fell in 1"
    assert bench_pairs.answer_moves(parent, change) == moves
    assert solve_sweep.compare(parent, change).splitlines()[0].endswith(f"); {moves}")
    assert bench_pairs.row_changes(parent, change).endswith(f"); {moves}; 0 failed ops on the change side")


def test_best_of_keeps_the_first_answer_and_the_least_time():
    calls = []

    def call():
        calls.append(len(calls))
        if len(calls) == 1:
            time.sleep(0.05)
            return "first"
        raise ValueError("a later call")

    answer, ms = solve_sweep.best_of(call)
    assert answer == "first" and len(calls) == solve_sweep.REPEATS == 3 and ms < 50
    error, _ = solve_sweep.best_of(lambda: 1 // 0)
    assert isinstance(error, ZeroDivisionError)
