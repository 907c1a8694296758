"""The paired-run summary of tools/bench_pairs.py on synthetic runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

SPEC = {"end_to_end": [
    {"name": "op_ms.p50", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]}

# ten parent runs with median 10.0 and quartiles 9.5 / 10.5 (IQR 1.0)
PARENT = [9.0, 9.3, 9.5, 9.5, 9.9, 10.1, 10.5, 10.5, 10.7, 11.0]


def runs(parent_ms, change_ms):
    def run(ms):
        return {"failed": 0, "attempted": 100, "correct": True,
                "metrics": {"op_ms.p50": {"value": ms}, "ops_per_s": {"value": 1000.0 / ms}}}

    return {"parent": [run(v) for v in parent_ms], "change": [run(v) for v in change_ms]}


def summary(change_ms, parent_ms=PARENT):
    return bench_pairs.summarise(SPEC, runs(parent_ms, change_ms), list(range(len(parent_ms))))["metrics"]


def test_quartiles_of_the_synthetic_parent():
    assert bench_pairs.quartiles(PARENT) == {"median": 10.0, "q1": 9.5, "q3": 10.5}


def test_clear_gain_passes_the_claim_gate():
    m = summary([v - 2.0 for v in PARENT])
    for name in ("op_ms.p50", "ops_per_s"):
        assert m[name]["change_better_in"] == 10
        assert m[name]["claim_gate"] and m[name]["within_bound"]


def test_eight_wins_in_ten_fail_the_claim_gate():
    m = summary([v - 2.0 for v in PARENT[:8]] + [v + 0.5 for v in PARENT[8:]])
    assert m["op_ms.p50"]["change_better_in"] == 8
    assert not m["op_ms.p50"]["claim_gate"]


def test_ten_wins_within_the_parent_spread_fail_the_claim_gate():
    # every pair is won, but the medians differ by 0.9 < IQR 1.0
    m = summary([v - 0.9 for v in PARENT])
    assert m["op_ms.p50"]["change_better_in"] == 10
    assert not m["op_ms.p50"]["claim_gate"]
    assert m["op_ms.p50"]["within_bound"]


@pytest.mark.parametrize("slowdown, within", [(1.2, True), (1.3, False)])
def test_within_bound_is_relative_to_the_parent_median(slowdown, within):
    m = summary([v * slowdown for v in PARENT])
    assert m["op_ms.p50"]["within_bound"] is within
    assert not m["op_ms.p50"]["claim_gate"]
    # ops_per_s falls by 1 - 1/slowdown: 17% or 23%, inside its 25% bound
    assert m["ops_per_s"]["within_bound"]


def test_higher_is_better_regression_beyond_the_bound():
    m = summary([v * 1.5 for v in PARENT])
    assert m["ops_per_s"]["change_worse_in"] == 10
    assert not m["ops_per_s"]["within_bound"]
    assert not m["ops_per_s"]["claim_gate"]


@pytest.mark.parametrize("argv, message", [
    ([], "give --seeds, --rows-seeds or both"),
    (["--seeds", "1-3"], "--seeds needs --pr"),
    (["--rows-seeds", "1-3", "--trace-workload", "oracle-small"], "--trace-workload needs --seeds"),
])
def test_argument_errors_exit_before_any_run(argv, message, monkeypatch, capsys):
    monkeypatch.setattr(bench_pairs, "export", pytest.fail)
    with pytest.raises(SystemExit) as err:
        bench_pairs.main(argv)
    assert err.value.code == 2
    assert message in capsys.readouterr().err


def test_rows_seeds_alone_prints_the_comparison_and_writes_no_file(tmp_path, monkeypatch, capsys):
    spec = {"run_seconds": 30, "workloads": [{"name": "w1"}, {"name": "w2"}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    calls = []
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "export", lambda revision, dest: calls.append(("export", revision)))
    monkeypatch.setattr(bench_pairs, "run_bench", pytest.fail)

    def compare_rows(sides, workloads, seeds):
        calls.append((sides["change"], workloads, seeds))
        return "0 rows differ"

    def compare_texts(sides, workloads, seeds):
        calls.append(("texts", sides["change"], workloads, seeds))
        return "texts identical"

    monkeypatch.setattr(bench_pairs, "compare_rows", compare_rows)
    monkeypatch.setattr(bench_pairs, "compare_texts", compare_texts)
    assert bench_pairs.main(["--parent", "abc123", "--rows-seeds", "1-3"]) == 0
    assert calls == [("export", "abc123"), (tmp_path, ["w1", "w2"], [1, 2, 3]),
                     ("texts", tmp_path, ["w1", "w2"], [1, 2, 3])]
    assert capsys.readouterr().out == "0 rows differ\ntexts identical\n"
    assert list(tmp_path.iterdir()) == [tmp_path / "BENCHMARK.json"]


def test_traced_runs_go_abba_and_a_linear_drift_cancels_in_the_means(monkeypatch):
    # the machine slows by 0.1 ms per run: 1.0, 1.1, 1.2, 1.3 in call order
    calls = []

    def run_bench(side, workload, seed, seconds, trace):
        calls.append((side, workload, seed, seconds, trace))
        return {"metrics": {"solver.pair_ms": {"value": 1.0 + 0.1 * (len(calls) - 1)}}}

    monkeypatch.setattr(bench_pairs, "run_bench", run_bench)
    sides = {"parent": Path("parent"), "change": Path("change")}
    entry = bench_pairs.trace_layers(sides, "sampled-large", 5, 30)
    assert [c[0] for c in calls] == [sides[s] for s in ("parent", "change", "change", "parent")]
    assert all(c[1:] == ("sampled-large", 5, 30, 1) for c in calls)
    assert entry["layers"]["solver.pair_ms"] == {"parent": 1.15, "change": 1.15}
    assert entry["readings"]["solver.pair_ms"] == {"parent": [1.0, 1.3], "change": [1.1, 1.2]}


def test_row_changes_count_fields_and_moves_of_the_answer():
    parent = [{"workload": "w", "achieved": a, "certified_value": c, "samples_drawn": 4, "failed": False}
              for a, c in ((1, 2.0), (3, 5.0), (2, 4.0), (None, None))]
    change = [dict(row) for row in parent]
    change[0].update(samples_drawn=9)
    change[1].update(achieved=1, certified_value=3.0)
    change[2].update(certified_value=6.0)
    change[3].update(failed=True)
    assert bench_pairs.row_changes(parent, change) == (
        "4 rows differ from the parent's (by field: achieved 1, certified_value 2, samples_drawn 1, failed 1); "
        "achieved rose in 0 and fell in 1; certified_value rose in 1 and fell in 1; "
        "1 failed ops on the change side")
    assert bench_pairs.row_changes(parent, parent) == (
        "0 rows differ from the parent's (by field: none); achieved rose in 0 and fell in 0; "
        "certified_value rose in 0 and fell in 0; 0 failed ops on the change side")


def test_compare_rows_reads_each_sides_rows(tmp_path, monkeypatch):
    sides = {"parent": tmp_path / "parent", "change": tmp_path / "change"}

    def run_bench(side, workload, seed, seconds, trace):
        out = side / "perfbench" / "out"
        out.mkdir(parents=True, exist_ok=True)
        achieved = 2 if side == sides["change"] and seed == 2 else 3
        row = {"workload": workload, "achieved": achieved, "certified_value": 4.0, "failed": False}
        (out / f"{workload}-seed{seed}-trace0.jsonl").write_text(json.dumps(row) + "\n")

    monkeypatch.setattr(bench_pairs, "run_bench", run_bench)
    text = bench_pairs.compare_rows(sides, ["w1", "w2"], [1, 2])
    assert text.startswith("perfbench --seconds 0 runs, seeds 1-2, 2 workloads (4 rows per side): 2 rows differ")
    assert "(by field: achieved 2)" in text and "achieved rose in 0 and fell in 2" in text


WORKLOADS = ["sampled-large", "anchored-hub", "oracle-small"]


def test_cycle_digests_hash_every_text_of_the_tiny_cycles():
    digests = bench_pairs.cycle_digests(bench_pairs.ROOT, WORKLOADS, [1, 2], tiny=True)
    # tiny cycles: sampled-large one pass of 8 ops, anchored-hub one of 14, oracle-small two of 6
    sizes = {"sampled-large": 16, "anchored-hub": 28, "oracle-small": 24}
    for workload in WORKLOADS:
        assert set(digests[workload]) == {"1", "2"}
        for seed in ("1", "2"):
            assert len(digests[workload][seed]) == sizes[workload]
            assert all(len(d) == 64 and int(d, 16) >= 0 for d in digests[workload][seed])
        assert digests[workload]["1"] != digests[workload]["2"]


def test_compare_texts_of_one_checkout_with_itself_finds_them_identical():
    sides = {"parent": bench_pairs.ROOT, "change": bench_pairs.ROOT}
    assert bench_pairs.compare_texts(sides, WORKLOADS, [1], tiny=True).splitlines() == [
        "sampled-large seed 1 instance texts (sha256): all 16 colouring and forest texts identical",
        "anchored-hub seed 1 instance texts (sha256): all 28 colouring and forest texts identical",
        "oracle-small seed 1 instance texts (sha256): all 24 colouring and forest texts identical",
    ]


def test_compare_texts_counts_the_texts_that_differ(monkeypatch):
    sides = {"parent": Path("parent"), "change": Path("change")}

    def cycle_digests(side, workloads, seeds, tiny=False):
        texts = {"1": ["a", "b", "c", "d"], "2": ["e", "f"]}
        if side == sides["change"]:
            texts = {"1": ["a", "x", "c", "y"], "2": ["e", "f", "g"]}
        return {"w": texts}

    monkeypatch.setattr(bench_pairs, "cycle_digests", cycle_digests)
    assert bench_pairs.compare_texts(sides, ["w"], [1, 2]).splitlines() == [
        "w seed 1 instance texts (sha256): 2 of 4 texts differ",
        "w seed 2 instance texts (sha256): 1 of 3 texts differ",
    ]
