"""Span tracer: times calls into the package's layers from outside the package.

The tracer replaces module attributes (and one classmethod) that the package
looks up at call time with timing wrappers, and puts the originals back when
it exits.  Spans nest: each call's self time is its duration minus the time
its child spans took, so the per-layer self times add up to the op time.
Spans are aggregated per name as they close rather than stored one by one,
because a single star solve opens tens of thousands of them.

A span none of whose names the package still defines is reported as
missing, and every metric that needs it is left out of the output instead
of reading zero.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class SpanStats:
    calls: int = 0
    self_ns: int = 0
    counts: dict = field(default_factory=lambda: defaultdict(int))


def _count_parse_bytes(counts, args, kwargs, result):
    counts["bytes"] += len((args or tuple(kwargs.values()))[0])


def _count_solve(counts, args, kwargs, result):
    forest = args[0] if args else kwargs["forest"]
    top = sorted(forest.degree, reverse=True)
    if len(top) >= 2 and 2 * top[0] >= forest.n and 4 * top[1] >= forest.n:
        counts["greedy_eligible"] += 1
        counts["greedy_fired"] += result.certified == "greedy-star"


def _count_found(counts, args, kwargs, result):
    counts["found"] += 1


def _count_polish(counts, args, kwargs, result):
    start = args[2] if len(args) > 2 else kwargs["start"]
    emb, evals = result
    counts["evals"] += evals
    counts["improved"] += abs(emb.colour_sum) < abs(start.colour_sum)


def _count_walk(counts, args, kwargs, result):
    counts["steps"] += len(result[1].steps) - 1


def _count_extensions(counts, args, kwargs, result):
    counts["extensions"] += result.extensions


#: (module, attribute, span name, observer run on each successful return)
WRAPS = (
    ("generators", "random_balanced_colouring", "generators.colouring", None),
    ("core", "serialize_colouring", "core.serialize", None),
    ("core", "serialize_forest", "core.serialize", None),
    ("core", "parse_colouring", "core.parse", _count_parse_bytes),
    ("core", "parse_forest", "core.parse", _count_parse_bytes),
    ("core", "Embedding.build", "core.build", None),
    ("core", "swap_delta", "core.swap_delta", None),
    ("solver", "swap_delta", "core.swap_delta", None),
    ("solver", "swap_images", "core.swap_images", None),
    ("interpolate", "swap_images", "core.swap_images", None),
    ("solver", "solve", "solver.solve", _count_solve),
    ("solver", "find_signed_pair", "solver.pair", _count_found),
    ("solver", "sample_extension", "solver.sample", None),
    ("solver", "local_search", "solver.polish", _count_polish),
    ("solver", "greedy_star_balance", "solver.greedy", None),
    ("solver", "interpolate_traced", "interpolate.walk", _count_walk),
    ("solver", "exact_min_imbalance", "oracle.min", None),
    ("oracle", "exact_min_imbalance", "oracle.min", None),
    ("oracle", "exact_sign", "oracle.sign", _count_extensions),
)


class Tracer:
    """Context manager that installs the wrappers on enter and restores them on exit."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.stats: dict[str, SpanStats] = defaultdict(SpanStats)
        self.missing: set[str] = set()
        self._stack: list[list[int]] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        installed = set()
        try:
            for module, path, span, observe in WRAPS:
                if self._install(module, path, span, observe):
                    installed.add(span)
        except BaseException:
            self.restore()
            raise
        self.missing = {span for _, _, span, _ in WRAPS} - installed
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _install(self, module: str, path: str, span: str, observe) -> bool:
        """Wrap one name; False when the package no longer defines it."""
        owner = self.modules[module]
        *outer, attr = path.split(".")
        for name in outer:
            owner = getattr(owner, name, None)
        raw = getattr(owner, "__dict__", {}).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            return False
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(raw.__func__, span, observe))
        else:
            wrapped = self._wrap(raw, span, observe)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, wrapped)
        return True

    def _wrap(self, fn, span: str, observe):
        stats = self.stats[span]
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            children = [0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stats.calls += 1
                stats.self_ns += elapsed - children[0]
            if observe is not None:
                observe(stats.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced


def _calls(span):
    return "count/op", (span,), lambda st, ops, setups: st[span].calls / ops


def _count(span, key, unit="count/op"):
    return unit, (span,), lambda st, ops, setups: st[span].counts[key] / ops


def _self_ms(*spans, per="op"):
    def value(st, ops, setups):
        return sum(st[s].self_ns for s in spans) / 1e6 / (ops if per == "op" else setups)

    return f"ms/{per}", spans, value


def _ratio(span, num, den=None):
    """counts[num] / counts[den], or per call when den is None; 0 with no attempts."""

    def value(st, ops, setups):
        base = st[span].counts[den] if den else st[span].calls
        return st[span].counts[num] / base if base else 0.0

    return "ratio", (span,), value


#: per-layer metric -> (unit, spans it needs, fn(stats, ops, setups)).  "/op"
#: metrics are per timed op, "/setup" ones per workload set-up, and every
#: *_ms is self time.
LAYER_METRICS = {
    "generators.colouring_ms": _self_ms("generators.colouring", per="setup"),
    "core.serialize_ms": _self_ms("core.serialize", per="setup"),
    "core.parse_ms": _self_ms("core.parse"),
    "core.parse_bytes": _count("core.parse", "bytes", "B/op"),
    "core.build_calls": _calls("core.build"),
    "core.build_ms": _self_ms("core.build"),
    "core.swap_calls": _calls("core.swap_delta"),
    "core.swap_ms": _self_ms("core.swap_delta", "core.swap_images"),
    "solver.pair_calls": _calls("solver.pair"),
    "solver.pair_ms": _self_ms("solver.pair", "solver.sample"),
    "solver.samples_drawn": _calls("solver.sample"),
    "solver.pair_found_ratio": _ratio("solver.pair", "found"),
    "solver.polish_calls": _calls("solver.polish"),
    "solver.polish_ms": _self_ms("solver.polish"),
    "solver.polish_evals": _count("solver.polish", "evals"),
    "solver.polish_improved_ratio": _ratio("solver.polish", "improved"),
    "solver.greedy_calls": _calls("solver.greedy"),
    "solver.greedy_ms": _self_ms("solver.greedy"),
    "solver.greedy_fired_ratio": _ratio("solver.solve", "greedy_fired", "greedy_eligible"),
    "solver.solve_calls": _calls("solver.solve"),
    "solver.solve_self_ms": _self_ms("solver.solve"),
    "interpolate.walk_calls": _calls("interpolate.walk"),
    "interpolate.walk_ms": _self_ms("interpolate.walk"),
    "interpolate.walk_steps": _count("interpolate.walk", "steps"),
    "oracle.min_calls": _calls("oracle.min"),
    "oracle.min_ms": _self_ms("oracle.min"),
    "oracle.sign_calls": _calls("oracle.sign"),
    "oracle.sign_ms": _self_ms("oracle.sign"),
    "oracle.sign_extensions": _count("oracle.sign", "extensions"),
}


def layer_metrics(tracer: Tracer, ops: int, setups: int) -> dict:
    """Every per-layer metric whose spans were all installed."""
    out = {}
    for name, (unit, spans, fn) in LAYER_METRICS.items():
        if tracer.missing.isdisjoint(spans):
            out[name] = {"value": fn(tracer.stats, ops, setups), "unit": unit}
    return out
