"""Command-line interface.

Exit codes: 0 success / all properties pass, 1 usage error, 2 a balanced
input exceeded its guarantee (report it!), 3 enumeration refused by budget.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .bounds import BoundReport
from .core import (
    InvalidInputError,
    PartialEmbedding,
    embedding_to_json,
    is_balanced,
    parse_colouring,
    parse_forest,
    serialize_colouring,
    serialize_forest,
)
from .generators import (
    FOREST_KINDS,
    ForestSpec,
    PerturbedParams,
    choose_density_ratio,
    make_forest,
    perturbed_colouring,
    random_balanced_colouring,
    split_parity_colouring,
)
from .oracle import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    exact_min_imbalance,
    exact_sign,
    is_sign_fixing,
)
from .solver import SolverConfig, solve
from .verify import bench_csv, run_bench, run_verify

USAGE_EXIT = 1
BOUND_VIOLATION_EXIT = 2
REFUSAL_EXIT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a fraction: {text!r}")


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def _load_instance(args):
    graph = parse_colouring(_read(args.colouring))
    forest = parse_forest(_read(args.forest), graph.n)
    return forest, graph


def build_parser() -> _Parser:
    parser = _Parser(prog="forestbalance")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-colouring", help="write a colouring file")
    p.add_argument("--kind", choices=["random", "split-parity", "perturbed"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon", type=_fraction, default=Fraction(1, 10))
    p.add_argument("--d", type=_fraction, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("gen-forest", help="write a forest file")
    p.add_argument("--kind", choices=FOREST_KINDS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("solve", help="embed a forest with a small colour sum")
    p.add_argument("--colouring", required=True)
    p.add_argument("--forest", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exact-threshold", type=int, default=8)
    p.add_argument("--json", dest="json_out", default=None)
    p.add_argument("--trace", dest="trace_out", default=None,
                   help="write the interpolation walk as JSON lines (step, swap, sum)")

    p = sub.add_parser("oracle", help="exact enumeration at small n")
    p.add_argument("--colouring", required=True)
    p.add_argument("--forest", required=True)
    p.add_argument("--mode", choices=["min", "sign", "sign-fixing"], default="min")
    p.add_argument("--partial", default=None,
                   help='JSON object of fixed images, e.g. \'{"0": 3}\'')
    p.add_argument("--l-set", type=_int_list, default=None)
    p.add_argument("--u-set", type=_int_list, default=None)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="most full maps a query may enumerate (default: %(default)s, all 10! at n = 10)")
    p.add_argument("--json", dest="json_out", default=None)

    p = sub.add_parser("bounds", help="print every guarantee for (n, delta)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--eta", type=_fraction, default=None)

    p = sub.add_parser("verify", help="run a property suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--n", type=_int_list, default=None)
    p.add_argument("--trials", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", dest="json_out", default=None)

    p = sub.add_parser("bench", help="solver benchmark grid, CSV output")
    p.add_argument("--n-list", type=_int_list, default=(16, 32, 48, 64))
    p.add_argument("--families", default="path,star,random")
    p.add_argument("--seeds", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--redact-millis", action="store_true",
                   help="write 0 in the millis column for byte-reproducible output")
    p.add_argument("--out", required=True)
    return parser


def _cmd_gen_colouring(args) -> int:
    if args.kind == "random":
        g = random_balanced_colouring(args.n, args.seed)
    elif args.kind == "split-parity":
        g = split_parity_colouring(args.n)
    else:
        d = args.d if args.d is not None else choose_density_ratio(args.epsilon)
        g = perturbed_colouring(PerturbedParams.for_ratio(args.n, args.epsilon, d))
    Path(args.out).write_text(serialize_colouring(g))
    print(f"wrote {args.kind} colouring on {g.n} vertices to {args.out}")
    return 0


def _cmd_gen_forest(args) -> int:
    forest = make_forest(ForestSpec(args.kind, args.n, args.max_degree, args.seed))
    Path(args.out).write_text(serialize_forest(forest))
    print(
        f"wrote {args.kind} forest: n={forest.n}, edges={forest.edge_count}, "
        f"max_degree={forest.max_degree} to {args.out}"
    )
    return 0


def _cmd_solve(args) -> int:
    forest, graph = _load_instance(args)
    result = solve(forest, graph, SolverConfig(seed=args.seed, exact_threshold=args.exact_threshold))
    balanced = is_balanced(graph)
    out = {
        "embedding": embedding_to_json(result.embedding),
        "achieved": result.achieved,
        "certified": result.certified,
        "certified_value": result.certified_value,
        "bounds": result.bound_report.to_json(),
        "within_bound": result.within_bound,
        "balanced_input": balanced,
        "stats": result.stats,
    }
    if args.json_out:
        Path(args.json_out).write_text(json.dumps(out, sort_keys=True, indent=2) + "\n")
    if args.trace_out:
        if result.trace is None:
            print("no interpolation trace for this run", file=sys.stderr)
        else:
            lines = [
                json.dumps({"step": i, "swap": list(swap) if swap else None, "sum": s})
                for i, (swap, s) in enumerate(result.trace.steps)
            ]
            Path(args.trace_out).write_text("\n".join(lines) + "\n")
    print(
        f"achieved |sum| = {result.achieved} "
        f"(certified: {result.certified}, refined bound {result.bound_report.refined:.3f})"
    )
    if balanced and not result.within_bound:
        print("BOUND VIOLATION on a balanced input", file=sys.stderr)
        return BOUND_VIOLATION_EXIT
    return 0


def _parse_partial(text: str | None) -> PartialEmbedding:
    if not text:
        return PartialEmbedding({})
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too-long digit strings and deep nesting
        raise InvalidInputError(f"--partial is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise InvalidInputError(f"--partial must be a JSON object, got {text!r}")
    try:
        mapping = {int(k): v for k, v in data.items()}
    except ValueError:
        raise InvalidInputError(f"--partial keys must be integers, got {text!r}") from None
    if len(mapping) != len(data):
        raise InvalidInputError(f"--partial names a vertex twice, got {text!r}")
    if not all(type(v) is int for v in mapping.values()):
        raise InvalidInputError(f"--partial values must be integers, got {text!r}")
    return PartialEmbedding(mapping)


#: the oracle flags that only some modes read
_ORACLE_FLAG_MODES = {
    "partial": ("sign",),
    "l_set": ("sign-fixing",),
    "u_set": ("sign-fixing",),
}


def _cmd_oracle(args) -> int:
    if args.budget < 1:
        raise InvalidInputError(f"--budget must be at least 1, got {args.budget}")
    for name, modes in _ORACLE_FLAG_MODES.items():
        value = getattr(args, name)
        if value is not None and args.mode not in modes:
            shown = ",".join(map(str, value)) if isinstance(value, tuple) else value
            flag = "--" + name.replace("_", "-")
            raise InvalidInputError(f"mode {args.mode!r} takes no {flag}, got {shown}")
    forest, graph = _load_instance(args)
    out: dict
    if args.mode == "min":
        value, witness = exact_min_imbalance(forest, graph, budget=args.budget)
        out = {"mode": "min", "min_imbalance": value, "witness": embedding_to_json(witness)}
    elif args.mode == "sign":
        verdict = exact_sign(forest, graph, _parse_partial(args.partial), budget=args.budget)
        out = {
            "mode": "sign",
            "kind": verdict.kind,
            "min_sum": verdict.min_sum,
            "max_sum": verdict.max_sum,
            "extensions": verdict.extensions,
        }
    else:
        if args.l_set is None or args.u_set is None:
            raise InvalidInputError("sign-fixing mode needs --l-set and --u-set")
        res = is_sign_fixing(forest, graph, args.l_set, args.u_set, budget=args.budget)
        out = {
            "mode": "sign-fixing",
            "fixing": res.fixing,
            "placements_checked": res.placements_checked,
        }
        if res.verdict is not None:
            out["counterexample"] = {
                "placement": res.placement.mapping,
                "min_sum": res.verdict.min_sum,
                "max_sum": res.verdict.max_sum,
            }
    text = json.dumps(out, sort_keys=True, indent=2)
    if args.json_out:
        Path(args.json_out).write_text(text + "\n")
    print(text)
    return 0


def _cmd_bounds(args) -> int:
    eta = float(args.eta) if args.eta is not None else None
    report = BoundReport.compute(args.n, args.delta, eta)
    print(json.dumps(report.to_json(), sort_keys=True, indent=2))
    return 0


def _cmd_verify(args) -> int:
    if args.n == ():
        raise InvalidInputError("--n names no size")
    report = run_verify(args.suite, n_list=args.n or (), trials=args.trials, seed=args.seed)
    text = json.dumps(report, sort_keys=True, indent=2)
    if args.json_out:
        Path(args.json_out).write_text(text + "\n")
    print(text)
    return 0 if report["passed"] else BOUND_VIOLATION_EXIT


def _cmd_bench(args) -> int:
    if args.seeds < 1:
        raise InvalidInputError(f"--seeds must be at least 1, got {args.seeds}")
    families = tuple(f.strip() for f in args.families.split(",") if f.strip())
    if not args.n_list:
        raise InvalidInputError("--n-list names no size")
    if not families:
        raise InvalidInputError("--families names no family")
    rows = run_bench(
        n_list=args.n_list,
        families=families,
        seeds=args.seeds,
        seed=args.seed,
        redact_millis=args.redact_millis,
    )
    Path(args.out).write_text(bench_csv(rows))
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


_COMMANDS = {
    "gen-colouring": _cmd_gen_colouring,
    "gen-forest": _cmd_gen_forest,
    "solve": _cmd_solve,
    "oracle": _cmd_oracle,
    "bounds": _cmd_bounds,
    "verify": _cmd_verify,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BudgetExceededError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return REFUSAL_EXIT
    except (InvalidInputError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
