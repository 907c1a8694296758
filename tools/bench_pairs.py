"""Paired benchmark runs: a parent revision against the working tree.

Usage (from the repository root):

    python3 tools/bench_pairs.py --parent HEAD --pr N --seeds 101-110 \
        --trace-workload sampled-large --trace-seed 5 --rows-seeds 1-3
    python3 tools/bench_pairs.py --parent HEAD --rows-seeds 1-3

The parent side is the committed files of ``--parent``, exported with
``git archive`` into a temporary directory; the change side is the working
tree.  For every workload in BENCHMARK.json and every seed, both sides run
``perfbench/run.py --trace 0`` once for the benchmark's ``run_seconds``, one
process at a time; odd seeds run the parent first and even seeds the change
first, so a drift of the machine's speed does not favour one side.  The
result is written to ``BENCH_<pr>.json`` at the repository root: per
end-to-end metric, the median and quartiles of each side's runs, the
number of pairs in which the change was better or worse, ``claim_gate``
(the change won at least 90% of the pairs and the medians differ in its
favour by more than the parent's interquartile range) and ``within_bound``
(the change's median is no worse than the parent's by more than the
metric's BENCHMARK.json bound, relative to the parent's median).

``--trace-workload`` adds two ``--trace 1`` runs per side, in the order
parent, change, change, parent, so a drift of the machine's speed that is
linear in time cancels in each side's mean; it records every per-layer
metric's per-side mean and both readings, and takes 4 x ``run_seconds``.
``--rows-seeds`` adds ``--seconds 0`` runs of every
workload and compares their per-op rows on the answer fields; it prints how
many rows differ in each field and in how many rows ``achieved`` and
``certified_value`` rose or fell.  It also builds every workload's cycle for
those seeds on both sides, in one process per side that imports that side's
own ``src/`` and ``perfbench/``, and prints per workload and seed whether
the SHA-256 of every colouring and forest text matches.  Given without
``--seeds`` it runs alone and writes no file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: the per-op row fields that must not differ between the sides
ROW_FIELDS = ("workload", "family", "op", "n", "mechanism", "achieved", "certified_value",
              "samples_drawn", "walk_steps", "failed")


def seed_list(text: str) -> list[int]:
    """"101-110" or "1,5,9" -> a list of seeds."""
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def export(revision: str, dest: Path) -> None:
    """The committed files of ``revision``, extracted into ``dest`` with ``git archive``."""
    archive = subprocess.run(["git", "archive", revision], cwd=ROOT, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def run_bench(side: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in the checkout at ``side``; its JSON result (last line of stdout)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=side, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


#: the order of the traced runs (ABBA): a linear drift adds the same to both sides' means
TRACE_ORDER = ("parent", "change", "change", "parent")


def trace_layers(sides: dict, workload: str, seed: int, seconds: float) -> dict:
    """Run ``--trace 1`` in TRACE_ORDER; per layer, each side's mean and its two readings (None where absent)."""
    runs = {side: [] for side in sides}
    for side in TRACE_ORDER:
        runs[side].append(run_bench(sides[side], workload, seed, seconds, 1)["metrics"])
    names = sorted({name for side_runs in runs.values() for run in side_runs for name in run})
    readings = {name: {side: [round(run[name]["value"], 6) if name in run else None for run in runs[side]]
                       for side in sides} for name in names}
    layers = {name: {side: None if None in values else round(statistics.mean(values), 6)
                     for side, values in readings[name].items()} for name in names}
    return {
        "note": (f"two --trace 1 runs per side, seed {seed}, in the order {', '.join(TRACE_ORDER)}; "
                 "layers holds each side's mean of its two readings, readings both; per-layer values "
                 "per op (ms are self time, unscaled)"),
        "layers": layers,
        "readings": readings,
    }


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def summarise(spec: dict, runs: dict, seeds: list[int]) -> dict:
    """One workload's entry: op counts per side and, per metric, quartiles and pair counts."""
    entry = {
        "seeds": seeds,
        "pairs": len(seeds),
        "failed_ops": {side: sum(r["failed"] for r in runs[side]) for side in runs},
        "attempted_ops": {side: sum(r["attempted"] for r in runs[side]) for side in runs},
        "correct": {side: all(r["correct"] for r in runs[side]) for side in runs},
        "metrics": {},
    }
    for metric in spec["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        pairs = list(zip(values["parent"], values["change"]))
        parent_median = statistics.median(values["parent"])
        change_median = statistics.median(values["change"])
        parent = quartiles(values["parent"])
        gain = sign * (change_median - parent_median)
        better_in = sum(sign * (c - p) > 0 for p, c in pairs)
        entry["metrics"][name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            "parent": parent,
            "change": quartiles(values["change"]),
            "change_vs_parent_pct": round((change_median / parent_median - 1) * 100, 2) if parent_median else None,
            "change_better_in": better_in,
            "change_worse_in": sum(sign * (c - p) < 0 for p, c in pairs),
            # a gain may be claimed only if the change wins >= 90% of the pairs and the
            # medians differ in its favour by more than the parent's interquartile range
            "claim_gate": better_in >= 0.9 * len(pairs) and gain > parent["q3"] - parent["q1"],
            # no worse than the parent's median by more than the bound, relative to that median
            "within_bound": -gain <= metric["bound"] * abs(parent_median),
        }
    return entry


def compare_rows(sides: dict, workloads: list[str], seeds: list[int]) -> str:
    """Run --seconds 0 on both sides and say how the per-op rows differ on ROW_FIELDS."""
    rows = {side: [] for side in sides}
    for workload in workloads:
        for seed in seeds:
            run = {}
            for side, path in sides.items():
                run_bench(path, workload, seed, 0, 0)
                out = path / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.jsonl"
                run[side] = [json.loads(line) for line in out.read_text().splitlines()]
                rows[side] += run[side]
            if len(run["parent"]) != len(run["change"]):
                raise SystemExit(f"{workload} seed {seed}: the sides ran different numbers of ops")
    return (f"perfbench --seconds 0 runs, seeds {seeds[0]}-{seeds[-1]}, {len(workloads)} workloads "
            f"({len(rows['change'])} rows per side): {row_changes(rows['parent'], rows['change'])}")


#: run in a side's checkout: the SHA-256 of each instance's colouring and forest text, per workload and seed
_DIGEST_SCRIPT = """
import hashlib, json, sys
sys.path[:0] = ["src", "perfbench"]
from instances import WORKLOADS
workloads, seeds, tiny = json.loads(sys.argv[1])
print(json.dumps({w: {str(s): [hashlib.sha256(text.encode()).hexdigest()
                               for ops in WORKLOADS[w].cycle(s, tiny) for inst in ops
                               for text in (inst.colouring, inst.forest)]
                      for s in seeds} for w in workloads}))
"""


def cycle_digests(side: Path, workloads: list[str], seeds: list[int], tiny: bool = False) -> dict:
    """{workload: {seed: [sha256 of each colouring and forest text of the cycle]}}, built by ``side``'s own code."""
    proc = subprocess.run([sys.executable, "-c", _DIGEST_SCRIPT, json.dumps([workloads, seeds, tiny])],
                          cwd=side, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def compare_texts(sides: dict, workloads: list[str], seeds: list[int], tiny: bool = False) -> str:
    """One line per workload and seed: whether the two sides' cycles hold byte-identical texts."""
    digests = {side: cycle_digests(path, workloads, seeds, tiny) for side, path in sides.items()}
    lines = []
    for workload in workloads:
        for seed in seeds:
            parent, change = (digests[side][workload][str(seed)] for side in ("parent", "change"))
            differ = sum(p != c for p, c in zip_longest(parent, change))
            verdict = (f"{differ} of {max(len(parent), len(change))} texts differ" if differ
                       else f"all {len(parent)} colouring and forest texts identical")
            lines.append(f"{workload} seed {seed} instance texts (sha256): {verdict}")
    return "\n".join(lines)


def row_changes(parent: list[dict], change: list[dict]) -> str:
    """How many rows differ, per ROW_FIELDS entry, whether achieved and certified_value rose or fell, and failures."""
    per_field = {k: sum(p.get(k) != c.get(k) for p, c in zip(parent, change)) for k in ROW_FIELDS}
    differing = sum(any(p.get(k) != c.get(k) for k in ROW_FIELDS) for p, c in zip(parent, change))
    fields = ", ".join(f"{k} {v}" for k, v in per_field.items() if v) or "none"
    return (f"{differing} rows differ from the parent's (by field: {fields}); {answer_moves(parent, change)}; "
            f"{sum(c['failed'] for c in change)} failed ops on the change side")


def answer_moves(parent: list[dict], change: list[dict]) -> str:
    """In how many row pairs achieved and certified_value rose and fell, of those where both sides hold one."""
    moved = []
    for k in ("achieved", "certified_value"):
        pairs = [(p[k], c[k]) for p, c in zip(parent, change) if p.get(k) is not None and c.get(k) is not None]
        moved.append(f"{k} rose in {sum(c > p for p, c in pairs)} and fell in {sum(c < p for p, c in pairs)}")
    return "; ".join(moved)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="git revision of the parent side")
    parser.add_argument("--pr", help="number for the output file BENCH_<pr>.json; needed with --seeds")
    parser.add_argument("--seeds", type=seed_list, help='timed pairs, e.g. "101-110" or "1,4,9"')
    parser.add_argument("--trace-workload")
    parser.add_argument("--trace-seed", type=int, default=5)
    parser.add_argument("--rows-seeds", type=seed_list)
    parser.add_argument("--machine", default="", help="hardware and versions, recorded as given")
    args = parser.parse_args(argv)
    if args.seeds is None and args.rows_seeds is None:
        parser.error("give --seeds, --rows-seeds or both")
    if args.seeds is not None and args.pr is None:
        parser.error("--seeds needs --pr, the number of the output file BENCH_<pr>.json")
    if args.seeds is None and args.trace_workload:
        parser.error("--trace-workload needs --seeds")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent = Path(tmp)
        export(args.parent, parent)
        sides = {"parent": parent, "change": ROOT}
        if args.rows_seeds:
            rows = compare_rows(sides, workloads, args.rows_seeds)
            texts = compare_texts(sides, workloads, args.rows_seeds)
            print(rows)
            print(texts)
        if args.seeds is None:
            return 0

        result = {
            "about": (f"Paired parent/change runs of perfbench/run.py ({seconds:g} s, --trace 0) on each "
                      "workload, alternating which side runs first (odd seeds parent first); medians and "
                      "inclusive quartiles over the runs of each side. Times are the benchmark's scaled times."),
            "machine": args.machine,
            "command": f"python3 perfbench/run.py --workload <w> --seed <s> --seconds {seconds:g} --trace <0|1>",
            "parent": subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT, capture_output=True,
                                     text=True, check=True).stdout.strip(),
            "workloads": {},
        }
        for workload in workloads:
            runs = {"parent": [], "change": []}
            for seed in args.seeds:
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                for side in order:
                    runs[side].append(run_bench(sides[side], workload, seed, seconds, 0))
                print(f"{workload} seed {seed}: op_ms.p50 "
                      + " / ".join(f"{s} {runs[s][-1]['metrics']['op_ms.p50']['value']:.4g}" for s in runs),
                      file=sys.stderr)
            result["workloads"][workload] = summarise(spec, runs, args.seeds)

        if args.trace_workload:
            result[f"trace_{args.trace_workload.replace('-', '_')}_seed{args.trace_seed}"] = trace_layers(
                sides, args.trace_workload, args.trace_seed, seconds)
        if args.rows_seeds:
            result[f"rows_seeds_{args.rows_seeds[0]}_{args.rows_seeds[-1]}"] = rows
            result[f"texts_seeds_{args.rows_seeds[0]}_{args.rows_seeds[-1]}"] = texts.splitlines()

    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {out.relative_to(ROOT)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
