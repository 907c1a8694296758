import io
import json
import math
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestbalance.bounds import BoundReport
from forestbalance.cli import main
from forestbalance.core import parse_colouring, parse_forest, serialize_colouring, serialize_forest
from forestbalance.generators import ForestSpec, make_forest, random_balanced_colouring
from forestbalance.verify import suite_partial_interpolation


@pytest.fixture
def instance(tmp_path):
    g = random_balanced_colouring(9, 7)
    forest = make_forest(ForestSpec("path", 9))
    cpath = tmp_path / "c.txt"
    fpath = tmp_path / "f.txt"
    cpath.write_text(serialize_colouring(g))
    fpath.write_text(serialize_forest(forest))
    return cpath, fpath


class TestGen:
    @pytest.mark.parametrize(
        "args",
        [
            ["--kind", "random", "--n", "9", "--seed", "3"],
            ["--kind", "split-parity", "--n", "8"],
            ["--kind", "perturbed", "--n", "40", "--epsilon", "1/10"],
        ],
    )
    def test_gen_colouring_round_trips(self, tmp_path, args, capsys):
        out = tmp_path / "c.txt"
        assert main(["gen-colouring", *args, "--out", str(out)]) == 0
        g = parse_colouring(out.read_text())
        assert serialize_colouring(g) == out.read_text()

    def test_gen_forest_round_trips(self, tmp_path):
        out = tmp_path / "f.txt"
        code = main(
            ["gen-forest", "--kind", "random", "--n", "20", "--max-degree", "5",
             "--seed", "2", "--out", str(out)]
        )
        assert code == 0
        forest = parse_forest(out.read_text())
        assert serialize_forest(forest) == out.read_text()
        assert forest.max_degree <= 5

    def test_gen_colouring_parity_error_is_usage(self, tmp_path, capsys):
        out = tmp_path / "c.txt"
        code = main(["gen-colouring", "--kind", "random", "--n", "6", "--out", str(out)])
        assert code == 1
        assert "mod 4" in capsys.readouterr().err

    def test_gen_colouring_of_2_to_the_32_edges_is_usage_error(self, tmp_path, capsys):
        # BEHAVIOUR CHANGE: refused before anything of that size is allocated
        out = tmp_path / "c.txt"
        assert main(["gen-colouring", "--kind", "random", "--n", "92684", "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: K_92684 has 4295115586 edges; a random colouring needs fewer than 2^32"]
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["random", "split-parity"])
    @pytest.mark.parametrize("n", ["-8", "-4", "-3", "0", "1"])
    def test_gen_colouring_below_two_vertices_is_usage_error(self, tmp_path, kind, n, capsys):
        out = tmp_path / "c.txt"
        assert main(["gen-colouring", "--kind", kind, "--n", n, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: a colouring needs at least 2 vertices, got n={n}"]
        assert not out.exists()


class TestSolveCommand:
    def test_solve_writes_json_and_exits_zero(self, instance, tmp_path, capsys):
        cpath, fpath = instance
        jpath = tmp_path / "result.json"
        code = main(
            ["solve", "--colouring", str(cpath), "--forest", str(fpath),
             "--seed", "1", "--json", str(jpath)]
        )
        assert code == 0
        payload = json.loads(jpath.read_text())
        assert payload["within_bound"] is True
        assert payload["balanced_input"] is True
        assert payload["achieved"] == abs(payload["embedding"]["sum"])
        assert "achieved" in capsys.readouterr().out

    def test_trace_written_when_interpolation_fires(self, tmp_path):
        g = random_balanced_colouring(16, 2)
        forest = make_forest(ForestSpec("random", 16, max_degree=4, seed=1))
        cpath, fpath = tmp_path / "c.txt", tmp_path / "f.txt"
        cpath.write_text(serialize_colouring(g))
        fpath.write_text(serialize_forest(forest))
        tpath = tmp_path / "trace.jsonl"
        code = main(
            ["solve", "--colouring", str(cpath), "--forest", str(fpath),
             "--trace", str(tpath)]
        )
        assert code == 0
        lines = [json.loads(ln) for ln in tpath.read_text().splitlines()]
        assert lines[0]["swap"] is None
        assert all(set(ln) == {"step", "swap", "sum"} for ln in lines)

    def test_split_parity_broom_certifies_by_hub_split(self, tmp_path):
        # on the paper's extremal colouring the hub's anchored mean lies far from 0, so its leaves are pinned
        cpath, fpath, jpath = tmp_path / "c.txt", tmp_path / "f.txt", tmp_path / "result.json"
        assert main(["gen-colouring", "--kind", "split-parity", "--n", "32", "--out", str(cpath)]) == 0
        assert main(["gen-forest", "--kind", "broom", "--n", "32", "--max-degree", "24", "--out", str(fpath)]) == 0
        assert main(["solve", "--colouring", str(cpath), "--forest", str(fpath), "--json", str(jpath)]) == 0
        payload = json.loads(jpath.read_text())
        assert payload["certified"] == "hub-split"
        assert type(payload["certified_value"]) is float
        assert payload["achieved"] <= payload["certified_value"] <= payload["bounds"]["refined"]

    def test_solve_deterministic_output(self, instance, tmp_path):
        cpath, fpath = instance
        j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
        base = ["solve", "--colouring", str(cpath), "--forest", str(fpath), "--seed", "9"]
        assert main([*base, "--json", str(j1)]) == 0
        assert main([*base, "--json", str(j2)]) == 0
        assert j1.read_text() == j2.read_text()

    def test_negative_exact_threshold_is_usage_error(self, instance, tmp_path, capsys):
        cpath, fpath = instance
        jpath = tmp_path / "result.json"
        code = main(["solve", "--colouring", str(cpath), "--forest", str(fpath),
                     "--exact-threshold", "-3", "--json", str(jpath)])
        assert code == 1
        assert "exact_threshold must be non-negative, got -3" in capsys.readouterr().err
        assert not jpath.exists()

    def test_exact_threshold_past_the_oracle_guard_is_usage_error(self, tmp_path, capsys):
        # a 16-vertex non-star forest: a threshold of 16 would enumerate 16! maps
        cpath, fpath = tmp_path / "c.txt", tmp_path / "f.txt"
        cpath.write_text(serialize_colouring(random_balanced_colouring(16, 1)))
        fpath.write_text(serialize_forest(make_forest(ForestSpec("path", 16))))
        code = main(["solve", "--colouring", str(cpath), "--forest", str(fpath), "--exact-threshold", "16"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: exact_threshold must be at most 10, the largest n whose n! embeddings fit "
            "the oracle's budget of 3628800, got 16\n"
        )

    @pytest.mark.parametrize("argv, message", [
        (["--max-restarts", "3"], "error: unrecognized arguments: --max-restarts 3"),
        (["--strategy", "local-search"], "error: unrecognized arguments: --strategy local-search"),
        (["--strategy", "interpolate-only"], "error: unrecognized arguments: --strategy interpolate-only"),
        (["--strategy", "greedy-star"], "error: unrecognized arguments: --strategy greedy-star"),
        (["--sample-budget", "10"], "error: unrecognized arguments: --sample-budget 10"),
    ])
    def test_removed_options_are_usage_errors(self, instance, argv, message, capsys):
        cpath, fpath = instance
        with pytest.raises(SystemExit) as err:
            main(["solve", "--colouring", str(cpath), "--forest", str(fpath), *argv])
        assert err.value.code == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("flag", ["--colouring", "--forest", "--json"])
    def test_directory_path_is_usage_error(self, instance, tmp_path, flag, capsys):
        cpath, fpath = instance
        paths = {"--colouring": cpath, "--forest": fpath, "--json": tmp_path / "out.json", flag: tmp_path}
        argv = ["solve", *(str(part) for item in paths.items() for part in item)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Is a directory" in err

    @pytest.mark.parametrize("flag", ["--colouring", "--forest"])
    def test_non_utf8_file_is_usage_error(self, instance, tmp_path, flag, capsys):
        cpath, fpath = instance
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"9\n\xff\xfe\n")
        paths = {"--colouring": cpath, "--forest": fpath, flag: bad}
        argv = ["solve", *(str(part) for item in paths.items() for part in item)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: {bad} is not UTF-8 text: invalid start byte at byte 2\n"

    @pytest.mark.parametrize("text, message", [
        ("4\nR\nBR\nRBx\n", "row 3 must be 3 characters over RB, got 'RBx'"),
        ("4\nRR\nB\nRRB\n", "row 1 must be 1 characters over RB, got 'RR'"),
        ("0\n", "need at least 2 vertices, got n=0"),
        ("-3\n", "need at least 2 vertices, got n=-3"),
        ("1\n", "need at least 2 vertices, got n=1"),
    ])
    def test_malformed_colouring_is_usage_error(self, instance, tmp_path, text, message, capsys):
        _, fpath = instance
        cpath = tmp_path / "bad.txt"
        cpath.write_text(text)
        assert main(["solve", "--colouring", str(cpath), "--forest", str(fpath)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_oversized_forest_header_is_refused_before_allocating(self, instance, tmp_path, capsys):
        cpath, _ = instance
        fpath = tmp_path / "huge.txt"
        fpath.write_text("100000000 0\n")
        start = time.perf_counter()
        assert main(["solve", "--colouring", str(cpath), "--forest", str(fpath)]) == 1
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == "error: forest has 100000000 vertices but graph has 9\n"

    def test_bound_violation_exit_code(self, instance, monkeypatch, capsys):
        cpath, fpath = instance
        import forestbalance.cli as cli_mod

        real_solve = cli_mod.solve

        def fake_solve(forest, graph, cfg):
            result = real_solve(forest, graph, cfg)
            result.within_bound = False
            return result

        monkeypatch.setattr(cli_mod, "solve", fake_solve)
        code = main(["solve", "--colouring", str(cpath), "--forest", str(fpath)])
        assert code == 2
        assert "BOUND VIOLATION" in capsys.readouterr().err


@pytest.fixture(scope="module")
def small_instance(tmp_path_factory):
    """A balanced colouring and a random forest on 5 vertices: every sign query is instant."""
    tmp = tmp_path_factory.mktemp("small")
    cpath, fpath = tmp / "c.txt", tmp / "f.txt"
    cpath.write_text(serialize_colouring(random_balanced_colouring(5, 2)))
    fpath.write_text(serialize_forest(make_forest(ForestSpec("random", 5, max_degree=3, seed=1))))
    return cpath, fpath


#: tokens of --partial texts for fuzzing: JSON punctuation, keys and values, valid or not
_PARTIAL_TOKENS = ['{', '}', '[', ']', ':', ',', ' ', '"0"', '"1"', '"4"', '"01"', '"-1"', '"a"', '"9"',
                   '0', '1', '3', '4', '5', '-1', '1.5', '1e400', 'true', 'null', '"3"']


class TestOracleCommand:
    def test_min_mode(self, instance, capsys):
        cpath, fpath = instance
        assert main(["oracle", "--colouring", str(cpath), "--forest", str(fpath)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["min_imbalance"] >= 0

    def test_sign_mode_with_partial(self, instance, capsys):
        cpath, fpath = instance
        code = main(
            ["oracle", "--colouring", str(cpath), "--forest", str(fpath),
             "--mode", "sign", "--partial", '{"0": 3, "1": 5}']
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["kind"] in ("red", "blue", "mixed")
        assert out["min_sum"] <= out["max_sum"]

    def test_sign_fixing_mode(self, tmp_path, capsys):
        g = random_balanced_colouring(5, 1)
        forest = make_forest(ForestSpec("path", 5))
        cpath, fpath = tmp_path / "c.txt", tmp_path / "f.txt"
        cpath.write_text(serialize_colouring(g))
        fpath.write_text(serialize_forest(forest))
        code = main(
            ["oracle", "--colouring", str(cpath), "--forest", str(fpath),
             "--mode", "sign-fixing", "--l-set", "0", "--u-set", "0,1,2,3,4"]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert "fixing" in out

    @pytest.mark.parametrize("partial", ['[1]', '3', 'null', '{"a": 1}', '{"0": 1.5}', '{"0": "3"}'])
    def test_malformed_partial_is_usage_error(self, instance, partial, capsys):
        cpath, fpath = instance
        code = main(
            ["oracle", "--colouring", str(cpath), "--forest", str(fpath),
             "--mode", "sign", "--partial", partial]
        )
        assert code == 1
        assert "--partial" in capsys.readouterr().err

    @pytest.mark.parametrize("partial, message", [
        ('{"0": 1', "--partial is not valid JSON"),
        ('{"0": 1' + "0" * 5000 + "}", "--partial is not valid JSON"),
        ("[" * 100_000, "--partial is not valid JSON"),
        ('{"1": 0, "01": 2}', "--partial names a vertex twice"),
        ('{"0": 1e400}', "--partial values must be integers"),
    ], ids=["truncated", "5001-digit-value", "deep-nesting", "duplicate-vertex", "infinite-value"])
    def test_partial_json_that_python_cannot_load_is_usage_error(self, instance, partial, message, capsys):
        cpath, fpath = instance
        code = main(["oracle", "--colouring", str(cpath), "--forest", str(fpath),
                     "--mode", "sign", "--partial", partial])
        assert code == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @given(st.lists(st.sampled_from(_PARTIAL_TOKENS), max_size=12).map("".join))
    @settings(max_examples=200, deadline=None)
    def test_fuzzed_partial_exits_zero_or_one_with_a_message(self, small_instance, partial):
        cpath, fpath = small_instance
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["oracle", "--colouring", str(cpath), "--forest", str(fpath),
                         "--mode", "sign", f"--partial={partial}"])
        if code == 0:
            assert json.loads(out.getvalue())["mode"] == "sign"
        else:
            assert code == 1 and err.getvalue().startswith("error: ") and out.getvalue() == ""

    @pytest.mark.parametrize("mode, flag, value", [
        ("sign", "--budget", "0"), ("sign", "--budget", "-5"), ("sign-fixing", "--budget", "0"),
        ("min", "--budget", "0"),
    ])
    def test_limit_below_one_is_usage_error(self, instance, mode, flag, value, capsys):
        cpath, fpath = instance
        code = main(["oracle", "--colouring", str(cpath), "--forest", str(fpath), "--mode", mode,
                     "--l-set", "0", "--u-set", "0,1", flag, value])
        assert code == 1
        assert f"{flag} must be at least 1, got {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("mode, flag, value", [
        ("min", "--partial", '{"0": 3}'), ("sign-fixing", "--partial", '{"0": 3}'),
        ("min", "--l-set", "1"), ("sign", "--l-set", "1,2"),
        ("min", "--u-set", "0,1"), ("sign", "--u-set", "3"),
    ])
    def test_flag_the_mode_does_not_read_is_usage_error(self, instance, mode, flag, value, capsys):
        cpath, fpath = instance
        code = main(["oracle", "--colouring", str(cpath), "--forest", str(fpath), "--mode", mode, flag, value])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: mode {mode!r} takes no {flag}, got {value}"]
        assert captured.out == ""

    def test_non_integer_forest_edge_is_usage_error(self, instance, tmp_path, capsys):
        cpath, _ = instance
        fpath = tmp_path / "bad.txt"
        fpath.write_text("9 1\n0 x\n")
        assert main(["oracle", "--colouring", str(cpath), "--forest", str(fpath)]) == 1
        assert "bad edge line" in capsys.readouterr().err

    def test_negative_forest_edge_count_is_usage_error(self, instance, tmp_path, capsys):
        cpath, _ = instance
        fpath = tmp_path / "bad.txt"
        fpath.write_text("9 -1\n")
        assert main(["solve", "--colouring", str(cpath), "--forest", str(fpath)]) == 1
        assert capsys.readouterr().err == "error: need a non-negative edge count, got m=-1\n"

    @pytest.mark.parametrize("mode", ["min", "sign", "sign-fixing"])
    def test_max_n_flag_is_gone(self, instance, mode, capsys):
        cpath, fpath = instance
        with pytest.raises(SystemExit) as err:
            main(["oracle", "--colouring", str(cpath), "--forest", str(fpath), "--mode", mode, "--max-n", "9"])
        assert err.value.code == 1
        assert "unrecognized arguments: --max-n 9" in capsys.readouterr().err

    def test_min_mode_reads_the_budget(self, instance, capsys):
        cpath, fpath = instance
        assert main(["oracle", "--colouring", str(cpath), "--forest", str(fpath), "--budget", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["refused: 362880 extensions exceed the budget of 1"]
        assert captured.out == ""
        # a star takes the closed form, which enumerates nothing
        fpath.write_text(serialize_forest(make_forest(ForestSpec("star", 9))))
        assert main(["oracle", "--colouring", str(cpath), "--forest", str(fpath), "--budget", "1"]) == 0
        signed = parse_colouring(cpath.read_text()).signed_degrees()
        assert json.loads(capsys.readouterr().out)["min_imbalance"] == min(abs(signed))

    def test_refusal_exit_code(self, tmp_path, capsys):
        g = random_balanced_colouring(12, 1)
        forest = make_forest(ForestSpec("path", 12))
        cpath, fpath = tmp_path / "c.txt", tmp_path / "f.txt"
        cpath.write_text(serialize_colouring(g))
        fpath.write_text(serialize_forest(forest))
        code = main(["oracle", "--colouring", str(cpath), "--forest", str(fpath)])
        assert code == 3
        assert capsys.readouterr().err.splitlines() == ["refused: 479001600 extensions exceed the budget of 3628800"]

    def test_eleven_vertices_exceed_the_default_budget(self, tmp_path, capsys):
        cpath, fpath = tmp_path / "c.txt", tmp_path / "f.txt"
        cpath.write_text("11\n" + "".join("R" * i + "\n" for i in range(1, 11)))
        fpath.write_text(serialize_forest(make_forest(ForestSpec("path", 11))))
        assert main(["oracle", "--colouring", str(cpath), "--forest", str(fpath)]) == 3
        assert capsys.readouterr().err.splitlines() == ["refused: 39916800 extensions exceed the budget of 3628800"]


class TestBoundsCommand:
    def test_output_matches_report(self, capsys):
        assert main(["bounds", "--n", "100", "--delta", "20"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == BoundReport.compute(100, 20).to_json()


class TestVerifyCommand:
    def test_passing_suite(self, capsys):
        code = main(["verify", "--suite", "split-parity-star", "--n", "8,12"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["passed"] is True

    def test_lower_bound_suite_passes(self, capsys):
        assert main(["verify", "--suite", "lower-bound", "--n", "6,8", "--trials", "10", "--seed", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["suite"] == "lower-bound" and out["passed"] is True
        assert out["details"]["checks"] == 30

    def test_lower_bound_suite_past_the_oracle_is_usage_error(self, capsys):
        assert main(["verify", "--suite", "lower-bound", "--n", "11"]) == 1
        err = capsys.readouterr().err
        assert "lower-bound needs 2 <= n with n! <= 3628800, got 11" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("n", ["0", "1", "-5"])
    def test_bounds_suite_small_n_is_usage_error(self, n, capsys):
        assert main(["verify", "--suite", "bounds", "--n", n]) == 1
        err = capsys.readouterr().err
        assert f"need n >= 32, got {n}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("suite, sizes, takes", [
        ("partial-interpolation", "8", "no size"),
        ("anchored-expectation", "64,128", "one size"),
        ("perturbed", "200,400", "one size"),
    ])
    def test_sizes_the_suite_cannot_take_are_usage_errors(self, suite, sizes, takes, capsys):
        assert main(["verify", "--suite", suite, "--n", sizes]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: suite {suite!r} takes {takes} in --n, got {sizes}"]
        assert captured.out == ""

    @pytest.mark.parametrize("suite, flag, value", [
        ("split-parity-star", "--trials", "7"),
        ("split-parity-star", "--seed", "3"),
        ("perturbed", "--trials", "7"),
        ("perturbed", "--seed", "-2"),
        ("bounds", "--seed", "3"),
    ])
    def test_flags_the_suite_cannot_take_are_usage_errors(self, suite, flag, value, capsys):
        assert main(["verify", "--suite", suite, "--n", "32", flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: suite {suite!r} takes no {flag}, got {value}"]
        assert "Traceback" not in captured.err and captured.out == ""

    def test_trials_and_seed_reach_a_suite_that_takes_them(self, capsys):
        assert main(["verify", "--suite", "partial-interpolation", "--trials", "5", "--seed", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == json.loads(json.dumps(suite_partial_interpolation(trials=5, seed=3)))
        assert out != json.loads(json.dumps(suite_partial_interpolation(trials=5, seed=4)))

    def test_unknown_suite_is_usage_error(self, capsys):
        assert main(["verify", "--suite", "nonsense"]) == 1

    @pytest.mark.parametrize("sizes", [",", ""])
    def test_empty_size_list_is_usage_error(self, sizes, capsys):
        assert main(["verify", "--suite", "split-parity-star", "--n", sizes]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error: --n names no size"]
        assert captured.out == ""

    def test_anchored_expectation_single_trial_is_usage_error(self, capsys):
        # one sample has no standard error, so the check it feeds cannot fail
        assert main(["verify", "--suite", "anchored-expectation", "--trials", "1"]) == 1
        captured = capsys.readouterr()
        assert "anchored-expectation needs at least 2 trials, got 1" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_anchored_expectation_passes_with_two_trials(self, capsys):
        assert main(["verify", "--suite", "anchored-expectation", "--trials", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["passed"] and math.isfinite(out["details"]["limit"])

    def test_anchored_expectation_below_n41_derives_the_broom_degree(self, capsys):
        assert main(["verify", "--suite", "anchored-expectation", "--n", "32", "--trials", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["passed"] and out["details"]["delta"] == 24
        assert math.isfinite(out["details"]["limit"])

    def test_anchored_expectation_without_a_large_vertex_is_usage_error(self, capsys):
        # 3n/4 = 15 at n = 20, below the max degree 16 that any large-degree set needs
        assert main(["verify", "--suite", "anchored-expectation", "--n", "20", "--trials", "2"]) == 1
        captured = capsys.readouterr()
        assert "a broom on 20 vertices with max degree 15 has no large-degree vertex" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as err:
            main(["solve"])  # missing required arguments
        assert err.value.code == 1


class TestBenchCommand:
    def test_bench_rows_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["bench", "--n-list", "16", "--families", "path,star", "--seeds", "2",
                "--redact-millis"]
        assert main([*base, "--out", str(out1)]) == 0
        assert main([*base, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().strip().splitlines()
        assert lines[0] == "n,delta,family,seed,achieved,bound,mechanism,certified_value,millis"
        assert len(lines) == 1 + 4
        for line in lines[1:]:
            cells = line.split(",")
            assert int(cells[4]) <= float(cells[5])
            assert cells[6] in ("exact", "interpolation", "hub-split")
            assert int(cells[4]) <= float(cells[7])  # never an empty cell

    def test_broom_family_gets_a_dominant_max_degree(self, tmp_path):
        out = tmp_path / "broom.csv"
        assert main(["bench", "--n-list", "32,64", "--families", "broom", "--seeds", "2",
                     "--redact-millis", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        assert [(r[0], r[1], r[2]) for r in rows] == [("32", "24", "broom")] * 2 + [("64", "48", "broom")] * 2
        for r in rows:
            assert r[6] == "interpolation" and float(r[7]) <= float(r[5])

    @pytest.mark.parametrize("flag, value", [
        ("--seeds", "0"), ("--seeds", "-1"),
    ])
    def test_count_below_one_is_usage_error(self, tmp_path, monkeypatch, flag, value, capsys):
        def unreachable(**kwargs):
            raise AssertionError("bench ran despite an invalid count")

        monkeypatch.setattr("forestbalance.cli.run_bench", unreachable)
        out = tmp_path / "b.csv"
        code = main(["bench", "--n-list", "16", "--families", "path", flag, value, "--out", str(out)])
        assert code == 1
        assert f"{flag} must be at least 1, got {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--n-list", ",", "--n-list names no size"),
        ("--n-list", "", "--n-list names no size"),
        ("--families", "", "--families names no family"),
        ("--families", " , ", "--families names no family"),
    ])
    def test_empty_grid_is_usage_error(self, tmp_path, flag, value, message, capsys):
        out = tmp_path / "b.csv"
        assert main(["bench", flag, value, "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("n_list, families, message", [
        ("16,32,16", "path", "bench grid names the size 16 twice"),
        ("16", "path,star,path", "bench grid names the family path twice"),
        ("16", "path,foo", "unknown forest family 'foo'; known: star, path, random, broom"),
    ])
    def test_bad_grid_is_refused_before_any_solve(self, tmp_path, monkeypatch, n_list, families, message, capsys):
        def unreachable(*args, **kwargs):
            raise AssertionError("bench solved a cell of a grid it should refuse")

        monkeypatch.setattr("forestbalance.verify.solve", unreachable)
        out = tmp_path / "b.csv"
        assert main(["bench", "--n-list", n_list, "--families", families, "--seeds", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    def test_threads_flag_is_gone(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        with pytest.raises(SystemExit) as err:
            main(["bench", "--n-list", "16", "--threads", "2", "--out", str(out)])
        assert err.value.code == 1
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
        assert not out.exists()
