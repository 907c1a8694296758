"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:  python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

MODS = run.import_package()

from check import Checker  # noqa: E402
from instances import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DETERMINISTIC = (
    "achieved_mean",
    "certified_refined_share",
    "solver.samples_drawn",
    "solver.polish_evals",
    "interpolate.walk_steps",
    "oracle.sign_extensions",
)


def _run(workload, trace, seed=3):
    return run.run(MODS, workload, seed, 0, trace, tiny=True)


@pytest.fixture(scope="module")
def tiny_results():
    return {
        (w, trace, rep): _run(w, trace)
        for w in WORKLOADS
        for trace in (False, True)
        for rep in range(2)
    }


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_reports_every_declared_metric(tiny_results, workload):
    for trace, declared in ((False, SPEC["end_to_end"]), (True, SPEC["per_layer"])):
        result = tiny_results[(workload, trace, 0)]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == {m["name"]: m["unit"] for m in declared}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_same_counts_and_quality(tiny_results, workload):
    for trace in (False, True):
        first, second = tiny_results[(workload, trace, 0)], tiny_results[(workload, trace, 1)]
        assert first["failed"] == second["failed"]
        for name in DETERMINISTIC:
            if name in first["metrics"]:
                assert first["metrics"][name] == second["metrics"][name], name


def test_layers_run_only_where_expected(tiny_results):
    sampled = tiny_results[("sampled-large", True, 0)]["metrics"]
    oracle = tiny_results[("oracle-small", True, 0)]["metrics"]
    assert sampled["oracle.min_calls"]["value"] == sampled["oracle.sign_calls"]["value"] == 0
    assert oracle["solver.pair_calls"]["value"] == oracle["solver.pair_ms"]["value"] == 0
    assert sampled["solver.polish_evals"]["value"] > 0
    assert oracle["oracle.sign_extensions"]["value"] > 0


def _solved(workload="sampled-large"):
    inst = WORKLOADS[workload].cycle(3, tiny=True)[0][0]
    return inst, run.run_op(MODS, inst)


def test_checker_accepts_a_true_result():
    inst, result = _solved()
    assert Checker().check(inst, result) == []


def test_checker_flags_corrupted_embeddings():
    inst, result = _solved()
    fwd, colour_sum = list(result.embedding.forward), result.embedding.colour_sum
    duplicate = [fwd[1]] + fwd[1:]
    checker = Checker()
    for forward, cached in ((duplicate, colour_sum), (fwd, colour_sum + 2)):
        corrupted = SimpleNamespace(forward=tuple(forward), colour_sum=cached)
        assert checker.check(inst, dataclasses.replace(result, embedding=corrupted)), forward
    assert checker.check(inst, dataclasses.replace(result, achieved=result.achieved + 1))
    assert checker.check(inst, dataclasses.replace(result, certified_value=result.achieved - 1.0))


def test_checker_flags_wrong_oracle_answers():
    cycle = WORKLOADS["oracle-small"].cycle(3, tiny=True)
    sign = next(i for p in cycle for i in p if i.op == "sign")
    minimum = next(i for p in cycle for i in p if i.op == "min")
    checker = Checker()
    verdict = run.run_op(MODS, sign)
    value, witness = run.run_op(MODS, minimum)
    assert checker.check(sign, verdict) == [] and checker.check(minimum, (value, witness)) == []
    assert checker.check(sign, dataclasses.replace(verdict, max_sum=verdict.max_sum + 2))
    assert checker.check(sign, dataclasses.replace(verdict, extensions=verdict.extensions - 1))
    assert checker.check(minimum, (value + 2, witness))


def test_failed_check_is_counted_not_fatal(monkeypatch):
    monkeypatch.setattr(Checker, "check", lambda self, inst, result: ["forced failure"])
    result = _run("oracle-small", False)
    assert result["failed"] == result["attempted"] and not result["correct"]


def test_traced_run_restores_every_wrapped_name():
    solver, core = MODS["solver"], MODS["core"]
    before = (solver.find_signed_pair, solver.swap_images, core.Embedding.__dict__["build"],
              MODS["interpolate"].swap_images, MODS["oracle"].exact_sign)
    _run("sampled-large", True)
    after = (solver.find_signed_pair, solver.swap_images, core.Embedding.__dict__["build"],
             MODS["interpolate"].swap_images, MODS["oracle"].exact_sign)
    assert all(a is b for a, b in zip(before, after))


def test_missing_function_leaves_its_layer_absent(monkeypatch):
    # sampled-large never reaches the greedy construction, so the run can go on without it
    monkeypatch.delattr(MODS["solver"], "greedy_star_balance")
    result = _run("sampled-large", True)
    assert result["correct"]
    assert "solver.greedy_calls" not in result["metrics"]
    assert "solver.greedy_ms" not in result["metrics"]
    assert "solver.polish_evals" in result["metrics"]
    assert not hasattr(MODS["solver"], "greedy_star_balance")


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "oracle-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_spec_matches_the_built_workloads_and_benchmark_json():
    spec = json.loads((BENCH / "spec.json").read_text())
    assert set(spec["workloads"]) == set(WORKLOADS) == {w["name"] for w in SPEC["workloads"]}
    assert set(spec["layer_moves"]) == {m["name"] for m in SPEC["per_layer"]}
    for name, doc in spec["workloads"].items():
        cycle = WORKLOADS[name].cycle(3)
        assert len(cycle) == doc["passes_per_cycle"]
        want = sorted((p["family"], p["n"], p["count"]) for p in doc["pass"])
        for ops in cycle:
            kinds = [(i.kind, i.n) for i in ops]
            assert sorted((k, n, kinds.count((k, n))) for k, n in set(kinds)) == want


def test_op_time_is_scaled_by_the_reference_loop(monkeypatch):
    monkeypatch.setattr(run, "reference_ms", lambda: 2 * run.REFERENCE_MS)
    cycle = WORKLOADS["oracle-small"].cycle(3, tiny=True)
    rows = run.measure(MODS, cycle, 0, Checker(), "untraced", 1)
    assert rows and all(r["op_ms"] == r["wall_ms"] / 2 for r in rows)


def test_span_with_one_name_left_is_still_reported(monkeypatch):
    # the oracle layer is still reachable through oracle.exact_min_imbalance
    monkeypatch.delattr(MODS["solver"], "exact_min_imbalance")
    result = _run("oracle-small", True)
    assert result["metrics"]["oracle.min_calls"]["value"] > 0
