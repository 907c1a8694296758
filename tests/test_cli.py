import json
import math

import pytest

from forestbalance.bounds import BoundReport
from forestbalance.cli import main
from forestbalance.core import parse_colouring, parse_forest, serialize_colouring, serialize_forest
from forestbalance.generators import ForestSpec, make_forest, random_balanced_colouring


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

    @pytest.mark.parametrize("text, message", [
        ("4\nR\nBR\nRBx\n", "row 3 must be 3 characters over RB, got 'RBx'"),
        ("4\nRR\nB\nRRB\n", "row 1 must be 1 characters over RB, got 'RR'"),
        ("0\n", "expected -1 colour rows, found 0"),
        ("1\n", "need at least 2 vertices, got n=1"),
    ])
    def test_malformed_colouring_is_usage_error(self, instance, tmp_path, text, message, capsys):
        _, fpath = instance
        cpath = tmp_path / "bad.txt"
        cpath.write_text(text)
        assert main(["solve", "--colouring", str(cpath), "--forest", str(fpath)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

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

    @pytest.mark.parametrize("mode, flag, value", [
        ("sign", "--budget", "0"), ("sign", "--budget", "-5"), ("sign-fixing", "--budget", "0"),
        ("min", "--max-n", "0"), ("min", "--max-n", "-1"),
    ])
    def test_limit_below_one_is_usage_error(self, instance, mode, flag, value, capsys):
        cpath, fpath = instance
        code = main(["oracle", "--colouring", str(cpath), "--forest", str(fpath), "--mode", mode,
                     "--l-set", "0", "--u-set", "0,1", flag, value])
        assert code == 1
        assert f"{flag} must be at least 1, got {value}" in capsys.readouterr().err

    def test_non_integer_forest_edge_is_usage_error(self, instance, tmp_path, capsys):
        cpath, _ = instance
        fpath = tmp_path / "bad.txt"
        fpath.write_text("9 1\n0 x\n")
        assert main(["oracle", "--colouring", str(cpath), "--forest", str(fpath)]) == 1
        assert "bad edge line" in capsys.readouterr().err

    def test_refusal_exit_code(self, tmp_path, capsys):
        g = random_balanced_colouring(12, 1)
        forest = make_forest(ForestSpec("path", 12))
        cpath, fpath = tmp_path / "c.txt", tmp_path / "f.txt"
        cpath.write_text(serialize_colouring(g))
        fpath.write_text(serialize_forest(forest))
        code = main(["oracle", "--colouring", str(cpath), "--forest", str(fpath)])
        assert code == 3
        assert "refused" in capsys.readouterr().err


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

    @pytest.mark.parametrize("n", ["0", "1", "-5"])
    def test_bounds_suite_small_n_is_usage_error(self, n, capsys):
        assert main(["verify", "--suite", "bounds", "--n", n]) == 1
        err = capsys.readouterr().err
        assert f"need n >= 32, got {n}" in err
        assert "Traceback" not in err

    def test_unknown_suite_is_usage_error(self, capsys):
        assert main(["verify", "--suite", "nonsense"]) == 1

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
            assert cells[6] in ("exact", "interpolation", "greedy-star", "heuristic")
            if cells[7]:
                assert int(cells[4]) <= float(cells[7])

    def test_broom_family_gets_a_dominant_max_degree(self, tmp_path):
        out = tmp_path / "broom.csv"
        assert main(["bench", "--n-list", "32,64", "--families", "broom", "--seeds", "2",
                     "--redact-millis", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        assert [(r[0], r[1], r[2]) for r in rows] == [("32", "24", "broom")] * 2 + [("64", "48", "broom")] * 2
        for r in rows:
            assert r[6] == "interpolation" and float(r[7]) <= float(r[5])

    @pytest.mark.parametrize("flag, value", [
        ("--seeds", "0"), ("--seeds", "-1"), ("--threads", "0"), ("--threads", "-1"),
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
