"""forestbalance benchmark: one workload, closed loop, one op at a time.

Usage (from the repository root):

    python3 perfbench/run.py --workload sampled-large --seed 1 --seconds 30 --trace 0

An op is what a CLI user pays for: parse the colouring and forest texts, then
solve, or run one exact oracle query.  Generating and serialising the
instances is set-up, timed separately.  Every op's output is checked by
perfbench/check.py; a failed check or a raised exception counts as a failed
op and the run goes on.

--trace 0 measures the end-to-end metrics.  --trace 1 measures one stretch
untraced and one traced, and reports per-layer metrics plus the tracing
overhead.  Each op is written as one JSON row to perfbench/out/.  The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
# set-up is repeated at least SETUP_REPEATS times and for at least SETUP_SECONDS
# of wall time, so that a set-up of a few milliseconds still gets a steady median
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0
MODULES = ("bounds", "core", "generators", "interpolate", "oracle", "solver")
TOL = 1e-9
# The reference loop's time on the 2-core machine the baseline comes from, in a
# quiet spell; timings are reported scaled to it (see reference_ms).
REFERENCE_MS = 1.6


def _reference_work() -> int:
    table = {}
    for i in range(4000):
        table[i] = (i, str(i), [i])
    return sum(k * 3 % 7 + len(v[1]) for k, v in table.items())


def reference_ms() -> float:
    """Time of a fixed pure-Python loop that uses nothing from the package.

    The shared machine's speed swings by a factor of two to three over
    seconds to minutes, for the package and this loop alike.  Each op's wall
    time is scaled by REFERENCE_MS over the loop's time during the same pass,
    which takes the machine's swings out of the comparison between runs while
    any change in the package's own speed stays in full.
    """
    start = time.perf_counter()
    _reference_work()
    return (time.perf_counter() - start) * 1e3


def import_package() -> dict:
    """Import forestbalance from this checkout's src/ and return its modules by name."""
    src = ROOT / "src"
    if not (src / "forestbalance" / "__init__.py").is_file():
        raise ImportError(f"no forestbalance package under {src}")
    sys.path.insert(0, str(src))
    # import_module, because the package rebinds the name `interpolate` to a function
    mods = {name: importlib.import_module(f"forestbalance.{name}") for name in MODULES}
    where = Path(mods["core"].__file__).resolve().parent
    if where != src / "forestbalance":
        raise ImportError(f"forestbalance imported from {where}, not from {src}")
    return mods


def run_op(mods: dict, inst):
    core = mods["core"]
    graph = core.parse_colouring(inst.colouring)
    forest = core.parse_forest(inst.forest)
    if inst.op == "solve":
        return mods["solver"].solve(forest, graph, mods["solver"].SolverConfig(seed=inst.seed))
    if inst.op == "min":
        return mods["oracle"].exact_min_imbalance(forest, graph)
    return mods["oracle"].exact_sign(forest, graph, core.PartialEmbedding(inst.partial))


def summarise(mods, inst, result) -> dict:
    """The per-op row fields read from a result, so the result need not be kept."""
    if result is None:
        return {}
    if inst.op == "solve":
        return {
            "mechanism": result.certified, "achieved": result.achieved,
            "certified_value": result.certified_value, "refined": result.bound_report.refined,
            "samples_drawn": result.stats.get("samples_drawn"),
            "walk_steps": len(result.trace.steps) - 1 if result.trace else None,
        }
    if inst.op == "min":
        # the exact optimum certifies itself
        return {"mechanism": "exact-min", "achieved": result[0], "certified_value": result[0],
                "refined": mods["bounds"].refined_bound(inst.n, inst.delta)}
    return {"mechanism": f"exact-sign:{result.kind}"}


def _run_one(mods, inst, checker, phase, pass_index, tracer=None) -> dict:
    """Time, check and summarise one op; the returned row keeps no result object."""
    polish = tracer.stats["solver.polish"].counts if tracer else None
    evals_before = polish["evals"] if tracer else 0
    result = None
    start = time.perf_counter()
    try:
        result = run_op(mods, inst)
    except Exception as exc:  # an op that raises is a failed op, not the end of the run
        ms = (time.perf_counter() - start) * 1e3
        traceback.print_exc(file=sys.stderr)
        problems = [f"raised {type(exc).__name__}: {exc}"]
    else:
        ms = (time.perf_counter() - start) * 1e3
        try:
            problems = checker.check(inst, result)
        except Exception as exc:  # malformed output the checker cannot even read
            problems = [f"checker raised {type(exc).__name__}: {exc}"]
    return {
        "wall_ms": ms, "reference_ms": reference_ms(), "op_ms": None,
        "phase": phase, "pass": pass_index, "family": inst.kind, "op": inst.op, "n": inst.n,
        "delta": inst.delta, "regime": regime(inst.n, inst.delta),
        "failed": bool(problems), "problems": problems, "mechanism": None, "achieved": None,
        "certified_value": None, "refined": None, "samples_drawn": None, "walk_steps": None,
        "polish_evals": polish["evals"] - evals_before if tracer else None,
        **summarise(mods, inst, result),
    }


def measure(mods, cycle, seconds, checker, phase, min_passes, tracer=None, whole_cycles=False) -> list[dict]:
    """Run whole passes until `seconds` have passed and at least `min_passes` are done.

    With `whole_cycles` the run also ends on a cycle boundary, so that every
    instance has run equally often and per-op counts do not depend on timing.
    """
    records = []
    start = time.perf_counter()
    p = 0
    while p < min_passes or time.perf_counter() - start < seconds or (whole_cycles and p % len(cycle)):
        rows = [_run_one(mods, inst, checker, phase, p, tracer) for inst in cycle[p % len(cycle)]]
        scale = REFERENCE_MS / statistics.median(r["reference_ms"] for r in rows)
        for r in rows:
            r["op_ms"] = r["wall_ms"] * scale
        records += rows
        p += 1
    return records


def tail_percentile(times: list[float]) -> tuple[float, str]:
    """p90, or below 100 ops the highest rank with ten ops beyond it."""
    if len(times) >= 100:
        return statistics.quantiles(times, n=10)[8], "p90"
    ranked = sorted(times)
    k = max(0, len(ranked) - 11)
    return ranked[k], f"rank {k + 1} of {len(ranked)}"


def regime(n: int, delta: int) -> str:
    """Degree regime as the refined bound splits it."""
    if 2 * delta >= n:
        return "dominant"
    return "low" if delta <= 15 else "middle"


def quality(rows: list[dict]) -> tuple[float, float]:
    """(certified_refined_share, achieved_mean) over the solve and exact-min ops.

    An op that failed its check counts as uncertified; one that raised also
    has no achieved value.
    """
    counted = [r for r in rows if r["op"] != "sign"]
    returned = [r for r in counted if r["achieved"] is not None]
    certified = sum(
        not r["failed"] and r["certified_value"] is not None and r["certified_value"] <= r["refined"] + TOL
        for r in returned
    )
    return certified / len(counted), sum(r["achieved"] for r in returned) / max(len(returned), 1)


def run(mods: dict, workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload and return the result object printed on the last line.

    `tiny` swaps in the workload's small sizes and short cycle, for tests.
    The benchmark's own modules are imported here because they import the
    package, which import_package has put on the path.
    """
    from check import Checker
    from instances import WORKLOADS
    from tracer import Tracer, layer_metrics

    spec = WORKLOADS[workload]

    setup_times = []
    gc.collect()
    began = time.perf_counter()
    while len(setup_times) < SETUP_REPEATS or time.perf_counter() - began < SETUP_SECONDS:
        cycle = None  # free the previous repeat first, so every repeat starts from the same heap
        start = time.perf_counter()
        cycle = spec.cycle(seed, tiny)
        elapsed = time.perf_counter() - start
        setup_times.append(elapsed * REFERENCE_MS / statistics.median(reference_ms() for _ in range(5)))
    ops_per_cycle = sum(len(p) for p in cycle)

    checker = Checker()
    for inst in cycle[0]:  # warm-up pass, not timed, not counted
        try:
            run_op(mods, inst)
        except Exception:  # the same op runs again in the first measured pass and is reported there
            pass

    phase_seconds = seconds / 2 if trace else seconds
    # the trace-0 run takes its quality metrics from one full cycle
    records = measure(mods, cycle, phase_seconds, checker, "untraced", 1 if trace else len(cycle))
    notes = []
    if trace:
        with Tracer(mods) as tracer:
            spec.cycle(seed, tiny)  # one traced set-up, for the generators and serialise layers
            traced = measure(mods, cycle, phase_seconds, checker, "traced", 1, tracer, whole_cycles=True)
        metrics = layer_metrics(tracer, len(traced), 1)
        # both phases are scaled, so the machine's drift between them cancels
        p50_plain = statistics.median(r["op_ms"] for r in records)
        p50_traced = statistics.median(r["op_ms"] for r in traced)
        metrics["trace.overhead_pct"] = {"value": (p50_traced / p50_plain - 1) * 100, "unit": "%"}
        if tracer.missing:
            notes.append(f"absent layers (package no longer defines them): {sorted(tracer.missing)}")
        records += traced
    else:
        times = [r["op_ms"] for r in records]
        tail, tail_label = tail_percentile(times)
        share, mean = quality(records[:ops_per_cycle])
        metrics = {
            "op_ms.p50": {"value": statistics.median(times), "unit": "ms"},
            "op_ms.p90": {"value": tail, "unit": "ms"},
            "ops_per_s": {"value": len(times) / (sum(times) / 1e3), "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "certified_refined_share": {"value": share, "unit": "ratio"},
            "achieved_mean": {"value": mean, "unit": "edges"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
        wall = [r["wall_ms"] for r in records]
        notes.append(f"op_ms.p90 is the {tail_label} over {len(times)} ops")
        notes.append(
            f"unscaled wall time: p50 {statistics.median(wall):.4g} ms, {tail_label} "
            f"{tail_percentile(wall)[0]:.4g} ms; reference loop median "
            f"{statistics.median(r['reference_ms'] for r in records):.4g} ms (nominal {REFERENCE_MS} ms)"
        )

    failed = sum(r["failed"] for r in records)
    notes.append(f"failed_share = {failed}/{len(records)} = {failed / len(records):.4f}")

    OUT_DIR.mkdir(exist_ok=True)
    rows_path = OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.jsonl"
    with rows_path.open("w") as fh:
        for r in records:
            fh.write(json.dumps({"workload": workload, **r}) + "\n")
    notes.append(f"per-op rows: {rows_path.relative_to(ROOT)}")

    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
        "notes": notes,
    }


def main(argv=None) -> int:
    try:
        mods = import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import the package: {exc}", file=sys.stderr)
        return 2
    from instances import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not math.isfinite(args.seconds) or args.seconds < 0:
        parser.error("--seconds must be a non-negative number")
    result = run(mods, args.workload, args.seed, args.seconds, bool(args.trace))
    notes = result.pop("notes")
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    for note in notes:
        print(f"{args.workload} {note}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
