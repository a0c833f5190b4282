"""Exhaustive ground truth for small horizons.

Enumerates every history-dependent stopping rule (decisions may depend on
the full +-1 step prefix, not only on the drawdown) and every path, and
maximizes E[f(M_N - S_tau)] by brute force.  Raw decision maps number
2^(2^N - 1); decisions hidden below an earlier STOP never matter, so rules
are identified by the stopping index they induce on each path and the
enumeration walks the pruned decision trees directly (677 classes at N=4
instead of 32768 maps).  Everything is exact rational arithmetic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from . import dpsolver
from .walkdist import WalkParams

DEFAULT_MAX_HORIZON = 4


@dataclass(frozen=True)
class HistoryRule:
    """A stopping rule given by the set of step prefixes at which it stops.

    A path stops at its first prefix in `stop_prefixes`, else at N.  Two
    rules inducing the same stopping index on every path are equivalent
    ("unreachable-node freedom").
    """

    n: int
    stop_prefixes: frozenset

    def stopping_index(self, path: tuple) -> int:
        for k in range(self.n):
            if path[:k] in self.stop_prefixes:
                return k
        return self.n


@dataclass(frozen=True)
class OracleResult:
    value: Fraction
    n_rules_total: int
    n_optimal_classes: int
    optimal_signatures: frozenset
    sample_optimal_rules: tuple
    n_paths: int

    def to_json(self, dp_match: bool | None = None) -> str:
        obj = {
            "optimum": str(self.value),
            "n_rules_total": self.n_rules_total,
            "n_optimal_classes": self.n_optimal_classes,
        }
        if dp_match is not None:
            obj["dp_match"] = dp_match
        return json.dumps(obj, sort_keys=True)


def _require_small(n: int, max_n: int):
    if n > max_n:
        raise ValueError(
            f"exhaustive enumeration is capped at N <= {max_n} "
            f"(2^(2^N - 1) raw rules); got N = {n}"
        )


def _paths(n: int) -> list:
    return [tuple(steps) for steps in product((1, -1), repeat=n)]


def _path_stats(path: tuple, p) -> tuple:
    """(probability, M_N, partial sums S_0..S_N)."""
    q = 1 - p
    prob = p**0
    s, m = 0, 0
    sums = [0]
    for x in path:
        prob = prob * (p if x == 1 else q)
        s += x
        m = max(m, s)
        sums.append(s)
    return prob, m, sums


def _rule_trees(n: int, allow_stop):
    """All pruned decision trees as frozensets of reachable STOP prefixes.

    allow_stop(prefix) gates where a tree may stop before the horizon; the
    unrestricted oracle passes a constant True.
    """

    def rec(prefix: tuple):
        depth = len(prefix)
        if depth == n:
            return [frozenset()]
        subtrees = []
        if allow_stop(prefix):
            subtrees.append(frozenset({prefix}))
        ups = rec(prefix + (1,))
        downs = rec(prefix + (-1,))
        for u in ups:
            for d in downs:
                subtrees.append(u | d)
        return subtrees

    return rec(())


def _signature(stop_prefixes: frozenset, paths: list, n: int) -> tuple:
    sig = []
    for path in paths:
        idx = n
        for k in range(n):
            if path[:k] in stop_prefixes:
                idx = k
                break
        sig.append(idx)
    return tuple(sig)


def enumerate_optimum(w: WalkParams, f, max_n: int = DEFAULT_MAX_HORIZON) -> OracleResult:
    """Exact maximum of E[f(M_N - S_tau)] over all adapted stopping rules."""
    n = w.n
    _require_small(n, max_n)
    paths = _paths(n)
    stats = [_path_stats(path, w.p) for path in paths]
    # reward of stopping path j at index k
    reward = [[f(m - sums[k]) for k in range(n + 1)] for (_pr, m, sums) in stats]
    probs = [pr for (pr, _m, _s) in stats]

    best = None
    by_signature = {}
    for tree in _rule_trees(n, lambda prefix: True):
        sig = _signature(tree, paths, n)
        if sig in by_signature:
            continue
        value = sum(probs[j] * reward[j][sig[j]] for j in range(len(paths)))
        by_signature[sig] = (value, tree)
        if best is None or value > best:
            best = value

    optimal = {sig: tree for sig, (value, tree) in by_signature.items() if value == best}
    samples = tuple(
        HistoryRule(n, tree) for _sig, tree in sorted(optimal.items())[:3]
    )
    return OracleResult(
        value=best,
        n_rules_total=2 ** (2**n - 1),
        n_optimal_classes=len(optimal),
        optimal_signatures=frozenset(optimal),
        sample_optimal_rules=samples,
        n_paths=len(paths),
    )


def tie_class_signatures(w: WalkParams, max_n: int = DEFAULT_MAX_HORIZON) -> frozenset:
    """Signatures of every rule that stops only at zero drawdown or at N."""
    n = w.n
    _require_small(n, max_n)
    paths = _paths(n)

    def drawdown_zero(prefix: tuple) -> bool:
        s, m = 0, 0
        for x in prefix:
            s += x
            m = max(m, s)
        return m == s

    sigs = set()
    for tree in _rule_trees(n, drawdown_zero):
        sigs.add(_signature(tree, paths, n))
    return frozenset(sigs)


def cross_validate(w: WalkParams, f, max_n: int = DEFAULT_MAX_HORIZON) -> bool:
    """Exhaustive check that the DP solver and its uniqueness label are right.

    The optimum must match the DP value exactly, and the set of optimal rule
    classes must agree with the claimed uniqueness structure: a single class
    (the right one) for UNIQUE_*, exactly the stop-at-max-or-horizon classes
    for TIE_CLASS, and at least two classes for NOT_UNIQUE.
    """
    res = enumerate_optimum(w, f, max_n=max_n)
    rep = dpsolver.solve(w, f)
    if res.value != rep.optimal_value:
        return False

    n = w.n
    n_paths = res.n_paths
    if rep.unique == dpsolver.UNIQUE_TAU0:
        return res.optimal_signatures == frozenset({tuple([0] * n_paths)})
    if rep.unique == dpsolver.UNIQUE_TAUN:
        return res.optimal_signatures == frozenset({tuple([n] * n_paths)})
    if rep.unique == dpsolver.TIE_CLASS:
        return res.optimal_signatures == tie_class_signatures(w, max_n=max_n)
    if rep.unique == dpsolver.NOT_UNIQUE:
        return res.n_optimal_classes >= 2
    return True  # UNKNOWN constrains nothing beyond the value
