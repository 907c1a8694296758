"""Answer diff: fixed grids of solve() and exact-oracle calls on a parent revision and the working tree.

Usage (from the repository root):

    python3 tools/solve_sweep.py --parent HEAD

The parent side is the committed files of ``--parent``, exported with
``git archive`` into a temporary directory; the change side is the working
tree.  Each side runs this file's grid in its own process with that side's
``src`` first on the path, so both build their inputs with their own
``forestbalance.core`` and ``forestbalance.generators`` from the same
parameters.  Every solve and query reads its colouring and its forest as
parsed back from their canonical text, so the parsers' output, built the
way the benchmark builds it, is what both sides answer on.  A row holds
the embedding, the achieved value, the mechanism, the certified value,
``within_bound``, the bound report, the interpolation trace steps and
``stats`` of one solve, or the type and message of the error it raised.
A second grid queries the exact oracle at n = 5-9, on colourings with
red-edge probability 0.5, 0.85 and 0.95, on forests with and without twin
leaves (leaves of one parent, isolated vertices), on forests
whose edges all meet one vertex (d = 0, 1 and n // 2), and with 0-2 fixed
vertices: an ``exact_min_imbalance`` row holds the value and witness,
an ``exact_sign`` row the min and max sums, both witnesses and
``extensions``.  Every row of both grids also holds ``instance``, a digest
of the serialised colouring and forest, so a changed generator shows as a
differing field of its own and not only through changed answers; a solve
row also says whether its colouring is ``balanced``.  The tool prints how
many rows differ, how many differ in each field, in how many rows
``achieved`` and ``certified_value`` rose and fell, and the first few
differing rows.

After the diff it prints each side's census: the solve rows' count and
total wall time per (colouring, mechanism), per mechanism the largest
``samples_drawn`` and the rows that drew the side's whole
``solver.SAMPLE_BUDGET``, per mechanism the total and the largest number
of interpolation walk steps (the trace's steps after its start), the
oracle rows' count and time per (query, n), and how many solve rows
certify more than the refined bound, balanced and unbalanced colourings
apart.  Each call's wall time is measured around
the solve or query alone and kept apart from the rows, so timings never
show as differing rows; every solve and query runs three times, its row is
the first call's answer and its time the least of the three, so one slow
call does not read as a change of speed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

# forestbalance is imported inside the functions below: this process only
# compares the two sides' rows, and each side's process has its own src on the path
ROOT = Path(__file__).resolve().parent.parent
N_LIST = (5, 8, 9, 12, 16, 17, 32, 33, 64, 128, 129, 256, 257)
#: split-parity and perturbed are the paper's two extremal constructions
COLOURINGS = ("random", "split-parity", "perturbed", "red-poor")
#: spider (four hubs of degree ~n/4) is a middle-regime forest from n = 64 on; relabelled is random
#: under a seeded permutation, so a vertex can lie above several of its neighbours
FORESTS = ("edgeless", "path", "star", "star-isolated", "broom", "random", "double-star", "spider", "relabelled")
SEEDS = (0, 1)
#: 0 sends only stars and edgeless forests to the oracle; None keeps SolverConfig's default
THRESHOLDS = (0, None)
SHOWN = 3
#: the fields that name a row's cell
CELL = ("n", "colouring", "forest", "seed", "exact_threshold", "query", "fixed")
ORACLE_N = (5, 6, 7, 8, 9)
#: path has no twins; broom, caterpillar and isolated have twin leaves or two isolated vertices;
#: edgeless, one-edge and star-isolated take exact_min_imbalance's closed form at d = 0, 1 and n // 2
ORACLE_FORESTS = ("path", "broom", "caterpillar", "isolated", "random", "edgeless", "one-edge", "star-isolated")
#: red-edge probability of each oracle colouring, which need not be balanced; near-red leaves so few
#: blue edges that the colour counts alone bound |sum| away from 0 and can end exact_min_imbalance's scan
ORACLE_COLOURINGS = {"even": 0.5, "red-heavy": 0.85, "near-red": 0.95}


def _parsed_back(value):
    """The colouring or forest as its parser reads it from the canonical text its serializer writes."""
    from forestbalance.core import Forest, parse_colouring, parse_forest, serialize_colouring, serialize_forest

    if isinstance(value, Forest):
        return parse_forest(serialize_forest(value))
    return parse_colouring(serialize_colouring(value))


def _colouring(kind: str, n: int, seed: int):
    from forestbalance.core import ColouredCompleteGraph
    from forestbalance.generators import (
        PerturbedParams,
        perturbed_colouring,
        random_balanced_colouring,
        split_parity_colouring,
    )

    if kind == "split-parity":
        return split_parity_colouring(n)
    if kind == "perturbed":
        return perturbed_colouring(PerturbedParams.for_ratio(n, Fraction(1, 10)))
    if kind == "random":
        return random_balanced_colouring(n, seed)
    # red-poor: vertex 0 keeps n // 8 red edges; the dropped red edges go back
    # at random among the blue edges that avoid it, so the colouring stays balanced
    red = random_balanced_colouring(n, seed).matrix > 0
    drop = np.flatnonzero(red[0])[n // 8:]
    red[0, drop] = red[drop, 0] = False
    iu, ju = np.triu_indices(n, 1)
    blue = np.flatnonzero(~red[iu, ju] & (iu > 0))
    add = np.random.default_rng(seed).choice(blue, len(drop), replace=False)
    red[iu[add], ju[add]] = red[ju[add], iu[add]] = True
    return ColouredCompleteGraph.from_red_matrix(red)


def _forest(kind: str, n: int, seed: int):
    from forestbalance.core import Forest
    from forestbalance.generators import ForestSpec, make_forest

    if kind == "edgeless":
        return Forest(n, [])
    if kind == "star-isolated":
        return Forest(n, [(0, v) for v in range(1, n // 2 + 1)])
    if kind == "broom":
        return make_forest(ForestSpec("broom", n, max_degree=3 * n // 4))
    if kind == "random":
        return make_forest(ForestSpec("random", n, max_degree=max(1, n // 4), seed=seed))
    if kind == "relabelled":
        # every other family puts each parent below its children, so each vertex is the high end of one edge at most
        perm = np.random.default_rng([n, seed]).permutation(n).tolist()
        return Forest(n, [(perm[u], perm[v]) for u, v in _forest("random", n, seed).edges])
    if kind == "double-star":
        k = (n + 1) // 2
        return Forest(n, [(0, 1), *((0, v) for v in range(2, k + 1)), *((1, v) for v in range(k + 1, n))])
    if kind == "spider":
        # hubs 0-1-2-3 on a path; every other vertex is a leaf of hub v % 4
        return Forest(n, [(0, 1), (1, 2), (2, 3), *((v % 4, v) for v in range(4, n))])
    return make_forest(ForestSpec(kind, n))


def _oracle_forest(kind: str, n: int, seed: int):
    from forestbalance.core import Forest
    from forestbalance.generators import ForestSpec, make_forest

    if kind == "broom":
        return make_forest(ForestSpec("broom", n, max_degree=n // 2 + 1))
    if kind in ("edgeless", "star-isolated"):
        return _forest(kind, n, seed)
    if kind == "one-edge":
        # the centre is the lower endpoint, which is not vertex 0
        return Forest(n, [(1, n - 1)])
    if kind == "caterpillar":
        # spine 0-1; the other vertices alternate between the two as leaves
        return Forest(n, [(0, 1), *((v % 2, v) for v in range(2, n))])
    if kind == "isolated":
        # a path on n - 2 vertices and two isolated vertices
        return Forest(n, [(v, v + 1) for v in range(n - 3)])
    if kind == "random":
        return make_forest(ForestSpec("random", n, max_degree=3, seed=seed))
    return make_forest(ForestSpec(kind, n))


#: each solve and query runs this many times; its row is the first call's and its time the least
REPEATS = 3


def best_of(call) -> tuple:
    """The first call's result, or the exception it raised, and the least wall time in ms of REPEATS calls."""
    first, best = None, math.inf
    for k in range(REPEATS):
        start = time.perf_counter()
        try:
            outcome = call()
        except Exception as exc:  # the error itself is the answer to compare
            outcome = exc
        best = min(best, (time.perf_counter() - start) * 1e3)
        if k == 0:
            first = outcome
    return first, best


def oracle_lines(timings: list[float]) -> list[str]:
    """One JSON line per oracle query, answered by the forestbalance found on the path.

    Each query's wall time in ms, the least of ``REPEATS`` calls, is
    appended to ``timings``, one per line.
    """
    from forestbalance.core import ColouredCompleteGraph, PartialEmbedding
    from forestbalance.oracle import exact_min_imbalance, exact_sign

    lines = []
    for n in ORACLE_N:
        for colouring, p_red in ORACLE_COLOURINGS.items():
            for seed in SEEDS:
                red = np.triu(np.random.default_rng([n, seed]).random((n, n)) < p_red, 1)
                graph = _parsed_back(ColouredCompleteGraph.from_red_matrix(red | red.T))
                for forest_kind in ORACLE_FORESTS:
                    forest = _parsed_back(_oracle_forest(forest_kind, n, seed))
                    cell = {"n": n, "colouring": colouring, "forest": forest_kind, "seed": seed,
                            "instance": instance_digest(graph, forest)}
                    queries = [("min", None), *(("sign", fixed) for fixed in ({}, {0: n - 1}, {n - 1: 0, 2: 1}))]
                    for query, fixed in queries:
                        row = {**cell, "query": query, "error": None}
                        if query == "sign":
                            row["fixed"] = sorted(fixed.items())

                        def answer():
                            if query == "min":
                                value, witness = exact_min_imbalance(forest, graph)
                                return {"value": value, "witness": list(witness.forward)}
                            v = exact_sign(forest, graph, PartialEmbedding(fixed))
                            return {"min_sum": v.min_sum, "max_sum": v.max_sum,
                                    "min_witness": list(v.min_witness.forward),
                                    "max_witness": list(v.max_witness.forward), "extensions": v.extensions}

                        outcome, ms = best_of(answer)
                        if isinstance(outcome, Exception):
                            row["error"] = f"{type(outcome).__name__}: {outcome}"
                        else:
                            row.update(outcome)
                        timings.append(ms)
                        lines.append(json.dumps(row, sort_keys=True))
    return lines


def instance_digest(graph, forest) -> str:
    """A digest of the serialised colouring and forest, so a changed input shows as its own field."""
    from forestbalance.core import serialize_colouring, serialize_forest

    text = serialize_colouring(graph) + serialize_forest(forest)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def grid_lines(timings: list[float]) -> list[str]:
    """One JSON line per grid cell, solved with the forestbalance found on the path.

    Each solve's wall time in ms, the least of ``REPEATS`` calls, is
    appended to ``timings``, one per line.
    """
    from forestbalance.core import is_balanced
    from forestbalance.solver import SolverConfig, solve

    lines = []
    for n in N_LIST:
        for colouring in COLOURINGS:
            for seed in SEEDS:
                try:
                    graph, error = _parsed_back(_colouring(colouring, n, seed)), None
                except Exception as exc:  # the error itself is the answer to compare
                    graph, error = None, f"{type(exc).__name__}: {exc}"
                for forest_kind in FORESTS:
                    forest = instance = None
                    if graph is not None:
                        forest = _parsed_back(_forest(forest_kind, n, seed))
                        instance = instance_digest(graph, forest)
                    for threshold in THRESHOLDS:
                        row = {"n": n, "colouring": colouring, "forest": forest_kind, "seed": seed,
                               "exact_threshold": threshold, "error": error, "instance": instance,
                               "balanced": None if graph is None else is_balanced(graph)}
                        cfg = {"seed": seed} if threshold is None else {"seed": seed, "exact_threshold": threshold}
                        result, ms = (None, 0.0) if graph is None else best_of(
                            lambda: solve(forest, graph, SolverConfig(**cfg)))
                        if isinstance(result, Exception):
                            row["error"] = f"{type(result).__name__}: {result}"
                        elif result is not None:
                            row.update(
                                embedding=list(result.embedding.forward),
                                achieved=result.achieved,
                                mechanism=result.certified,
                                certified_value=result.certified_value,
                                within_bound=result.within_bound,
                                bounds=result.bound_report.to_json(),
                                trace=None if result.trace is None else result.trace.steps,
                                stats=result.stats,
                            )
                        timings.append(ms)
                        lines.append(json.dumps(row, sort_keys=True))
    return lines


def side_rows(side: Path) -> tuple[list[dict], list[float], int]:
    """The solve and oracle grid rows of the checkout at ``side``, each row's ms and its solver's SAMPLE_BUDGET.

    They are computed in a fresh process.
    """
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import solve_sweep; timings = []; "
            "from forestbalance.solver import SAMPLE_BUDGET; "
            "lines = [*solve_sweep.grid_lines(timings), *solve_sweep.oracle_lines(timings)]; "
            "print(json.dumps([timings, SAMPLE_BUDGET]), *lines, sep='\\n')")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(Path(__file__).resolve().parent)],
        env={**os.environ, "PYTHONPATH": str(side / "src")}, capture_output=True, text=True, check=True,
    )
    head, *lines = proc.stdout.splitlines()
    timings, budget = json.loads(head)
    return [json.loads(line) for line in lines], timings, budget


def census(rows: list[dict], timings: list[float], budget: int) -> dict:
    """Counts and total ms per (colouring, mechanism) and per (query, n), samples, and certificates over the bound.

    ``samples`` maps each mechanism to [the largest ``samples_drawn`` of its
    rows, its rows that drew ``budget`` samples], ``walks`` maps each
    mechanism with a trace to [its rows' total walk steps, the largest],
    and ``over_refined`` maps "balanced" and "unbalanced" to [rows whose
    certified value exceeds the refined bound, solve rows with a
    certificate].
    """
    solves: dict[tuple, list] = {}
    queries: dict[tuple, list] = {}
    samples: dict[str, list] = {}
    walks: dict[str, list] = {}
    over = {"balanced": [0, 0], "unbalanced": [0, 0]}
    for row, ms in zip(rows, timings, strict=True):
        if "query" in row:
            cell = queries.setdefault((row["query"], row["n"]), [0, 0.0])
        else:
            cell = solves.setdefault((row["colouring"], row.get("mechanism")), [0, 0.0])
            if row.get("stats") is not None:
                drawn, tally = row["stats"]["samples_drawn"], samples.setdefault(row["mechanism"], [0, 0])
                tally[0], tally[1] = max(tally[0], drawn), tally[1] + (drawn == budget)
            if row.get("trace") is not None:
                steps, tally = len(row["trace"]) - 1, walks.setdefault(row["mechanism"], [0, 0])
                tally[0], tally[1] = tally[0] + steps, max(tally[1], steps)
            if row.get("certified_value") is not None:
                tally = over["balanced" if row["balanced"] else "unbalanced"]
                tally[0] += row["certified_value"] > row["bounds"]["refined"]
                tally[1] += 1
        cell[0] += 1
        cell[1] += ms
    return {"solve": solves, "oracle": queries, "samples": samples, "walks": walks, "budget": budget,
            "over_refined": over}


def format_census(name: str, summary: dict) -> str:
    """The census of one side as text: one line per (colouring, mechanism) and per (query, n)."""
    lines = [f"census of the {name}: solves by (colouring, mechanism): count, total ms"]
    lines += [f"  {colouring:<13} {str(mechanism):<14} {count:5d} {ms:10.1f}"
              for (colouring, mechanism), (count, ms) in sorted(summary["solve"].items(), key=str)]
    lines.append(f"  samples drawn by mechanism: largest, rows at SAMPLE_BUDGET = {summary['budget']}")
    lines += [f"  {mechanism:<28} {largest:5d} {at_cap:10d}"
              for mechanism, (largest, at_cap) in sorted(summary["samples"].items())]
    lines.append("  walk steps by mechanism: total, largest")
    lines += [f"  {mechanism:<28} {total:5d} {largest:10d}"
              for mechanism, (total, largest) in sorted(summary["walks"].items())]
    lines.append("  oracle queries by (query, n): count, total ms")
    lines += [f"  {query:<13} {n:<14} {count:5d} {ms:10.1f}"
              for (query, n), (count, ms) in sorted(summary["oracle"].items())]
    lines.append("  certificate over the refined bound: " + ", ".join(
        f"{kind} {over} of {rows}" for kind, (over, rows) in summary["over_refined"].items()))
    return "\n".join(lines) + "\n"


def compare(parent: list[dict], change: list[dict]) -> str:
    """How many rows differ, per field, where achieved and certified_value rose and fell, and a few differing rows."""
    if len(parent) != len(change):
        raise SystemExit(f"the sides gave {len(parent)} and {len(change)} rows")
    per_field: dict[str, int] = {}
    shown = []
    differing = 0
    for p, c in zip(parent, change):
        fields = sorted(k for k in p.keys() | c.keys() if p.get(k) != c.get(k))
        if not fields:
            continue
        differing += 1
        for k in fields:
            per_field[k] = per_field.get(k, 0) + 1
        if len(shown) < SHOWN:
            cell = {k: c[k] for k in CELL if k in c}
            shown.append(f"  {json.dumps(cell)}\n"
                         + "".join(f"    {k}: parent {json.dumps(p.get(k))} / change {json.dumps(c.get(k))}\n"
                                   for k in fields))
    counts = ", ".join(f"{k} {v}" for k, v in sorted(per_field.items())) or "none"
    moved = []
    for k in ("achieved", "certified_value"):
        pairs = [(p[k], c[k]) for p, c in zip(parent, change) if p.get(k) is not None and c.get(k) is not None]
        moved.append(f"{k} rose in {sum(c > p for p, c in pairs)} and fell in {sum(c < p for p, c in pairs)}")
    return (f"{differing} of {len(change)} rows differ from the parent's (by field: {counts}); {'; '.join(moved)}\n"
            + "".join(shown))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="git revision of the parent side")
    args = parser.parse_args(argv)
    from bench_pairs import export  # a sibling in tools/, which is on the path when this file runs

    with tempfile.TemporaryDirectory(prefix="sweep-parent-") as tmp:
        parent = Path(tmp)
        export(args.parent, parent)
        (parent_rows, *parent_run), (change_rows, *change_run) = side_rows(parent), side_rows(ROOT)
        print(compare(parent_rows, change_rows), end="")
        print(format_census("parent", census(parent_rows, *parent_run)), end="")
        print(format_census("change", census(change_rows, *change_run)), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
