"""Independent output checker.

Reads the instance texts itself and recomputes every colour sum with numpy,
so a scoring bug in the package cannot hide behind a shared helper.  Exact
oracle answers are compared against a numpy enumeration of all embeddings.
"""

from __future__ import annotations

import math
from itertools import permutations

import numpy as np

#: largest n whose embeddings the checker enumerates (n! rows, in n chunks)
MAX_ENUM_N = 10

TOL = 1e-9


def colour_matrix(text: str) -> np.ndarray:
    """Symmetric int8 matrix of +1 (R) / -1 (B) edge colours, 0 on the diagonal."""
    rows = text.split()
    n = int(rows[0])
    c = np.zeros((n, n), dtype=np.int8)
    for i in range(1, n):
        c[i, :i] = np.where(np.frombuffer(rows[i].encode(), dtype=np.uint8) == ord("R"), 1, -1)
    return c + c.T


def forest_edges(text: str) -> tuple[int, np.ndarray, np.ndarray]:
    nums = np.array(text.split(), dtype=np.int64)
    n, m = int(nums[0]), int(nums[1])
    pairs = nums[2 : 2 + 2 * m].reshape(m, 2)
    return n, pairs[:, 0], pairs[:, 1]


class Checker:
    """Checks op results; returns a list of problems (empty when the op is correct)."""

    def __init__(self):
        self._parsed: dict = {}
        self._truth: dict = {}
        self._perms: dict = {}

    def _instance(self, inst):
        key = (inst.colouring, inst.forest)
        if key not in self._parsed:
            c = colour_matrix(inst.colouring)
            n, u, v = forest_edges(inst.forest)
            upper = c[np.triu_indices(n, 1)]
            balanced = int((upper == 1).sum()) * 2 == len(upper)
            delta = int(np.bincount(np.concatenate([u, v]), minlength=n).max()) if len(u) else 0
            self._parsed[key] = (c, u, v, balanced, delta)
        return self._parsed[key]

    def check(self, inst, result) -> list[str]:
        c, u, v, balanced, delta = self._instance(inst)
        if inst.op == "solve":
            return self._check_solve(inst, result, c, u, v, balanced, delta)
        if inst.op == "min":
            return self._check_min(inst, result, c, u, v)
        return self._check_sign(inst, result, c, u, v)

    @staticmethod
    def _embedding_sum(fwd, n, c, u, v, problems, label) -> int | None:
        a = np.asarray(fwd, dtype=np.int64)
        if a.shape != (n,) or not np.array_equal(np.sort(a), np.arange(n)):
            problems.append(f"{label} is not a bijection on [0, {n})")
            return None
        return int(c[a[u], a[v]].sum())

    def _check_solve(self, inst, res, c, u, v, balanced, delta) -> list[str]:
        problems: list[str] = []
        s = self._embedding_sum(res.embedding.forward, inst.n, c, u, v, problems, "embedding")
        if s is None:
            return problems
        if res.embedding.colour_sum != s:
            problems.append(f"cached sum {res.embedding.colour_sum} != recomputed {s}")
        if res.achieved != abs(s):
            problems.append(f"achieved {res.achieved} != |recomputed sum| {abs(s)}")
        if res.certified_value is not None and abs(s) > res.certified_value + TOL:
            problems.append(f"|sum| {abs(s)} exceeds certified value {res.certified_value}")
        report = res.bound_report
        if report.n != inst.n or (delta >= 1 and report.delta != delta):
            problems.append(f"bound report is for (n={report.n}, Δ={report.delta}), not ({inst.n}, {delta})")
        if balanced and not (res.within_bound and abs(s) <= report.refined + TOL):
            problems.append(f"balanced input: |sum| {abs(s)} not within refined bound {report.refined}")
        return problems

    def _extension_sums(self, inst, c, u, v) -> tuple[int, int, int, int]:
        """(min |sum|, min sum, max sum, count) over all extensions of inst.partial."""
        key = (inst.colouring, inst.forest, tuple(sorted(inst.partial.items())))
        if key in self._truth:
            return self._truth[key]
        n = inst.n
        if n > MAX_ENUM_N:
            raise ValueError(f"checker enumerates at most {MAX_ENUM_N} vertices, got {n}")
        if n not in self._perms:
            self._perms[n] = np.array(list(permutations(range(n - 1))), dtype=np.int64).reshape(-1, n - 1)
        base = self._perms[n]
        lo_abs, lo, hi, count = math.inf, math.inf, -math.inf, 0
        for t0 in range(n):
            rest = np.array([t for t in range(n) if t != t0], dtype=np.int64)
            perms = np.empty((len(base), n), dtype=np.int64)
            perms[:, 0] = t0
            perms[:, 1:] = rest[base]
            for fv, ft in inst.partial.items():
                perms = perms[perms[:, fv] == ft]
            if not len(perms):
                continue
            sums = c[perms[:, u], perms[:, v]].sum(axis=1, dtype=np.int64)
            lo_abs = min(lo_abs, int(np.abs(sums).min()))
            lo, hi = min(lo, int(sums.min())), max(hi, int(sums.max()))
            count += len(perms)
        self._truth[key] = (lo_abs, lo, hi, count)
        return self._truth[key]

    def _check_min(self, inst, res, c, u, v) -> list[str]:
        problems: list[str] = []
        value, emb = res
        s = self._embedding_sum(emb.forward, inst.n, c, u, v, problems, "witness")
        if s is None:
            return problems
        if abs(s) != value or emb.colour_sum != s:
            problems.append(f"witness sum {s} (cached {emb.colour_sum}) does not give min {value}")
        truth, _, _, _ = self._extension_sums(inst, c, u, v)
        if value != truth:
            problems.append(f"reported min |sum| {value}, enumeration gives {truth}")
        return problems

    def _check_sign(self, inst, res, c, u, v) -> list[str]:
        problems: list[str] = []
        for label, emb, want in (("min witness", res.min_witness, res.min_sum),
                                 ("max witness", res.max_witness, res.max_sum)):
            s = self._embedding_sum(emb.forward, inst.n, c, u, v, problems, label)
            if s is not None and (s != want or emb.colour_sum != s):
                problems.append(f"{label} sums to {s} (cached {emb.colour_sum}), reported {want}")
            if any(emb.forward[fv] != ft for fv, ft in inst.partial.items()):
                problems.append(f"{label} does not extend the partial embedding")
        _, lo, hi, count = self._extension_sums(inst, c, u, v)
        if (res.min_sum, res.max_sum, res.extensions) != (lo, hi, count):
            problems.append(
                f"reported (min, max, extensions) = {(res.min_sum, res.max_sum, res.extensions)}, "
                f"enumeration gives {(lo, hi, count)}"
            )
        return problems
