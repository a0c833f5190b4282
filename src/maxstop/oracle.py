"""History-indexed ground truth by backward induction over the prefix tree.

The supremum of E[f(M_N - S_tau)] runs over every stopping time of the
walk's natural filtration, so a decision may depend on the whole +-1 step
prefix, not only on the drawdown.  The oracle therefore walks the binary
tree of step prefixes: each of the 2^(N+1) - 1 nodes is one history and
knows its (k, S_k, M_k).  Stopping there pays

    E[f(max(M_k, S_k + M') - S_k)],  M' the maximum of a fresh (N-k)-step walk,

with the law of M' built here by first-step decomposition,
M'_j = max(0, X + M'_{j-1}), independently of `walkdist`.  Continuing pays
p * V(up) + q * V(down), and V is the larger of the two.

Histories with one (k, S_k, M_k) root isomorphic subtrees with the same
payoffs (the Markov property of (S, M)), so they share their value, their
optimal actions and their class count, and each distinct triple is valued
once, in a memo local to one call.  Nothing is memoized on the drawdown
z = M_k - S_k: two triples that share a drawdown are still valued and
decided apart, so a history-dependent rule that beat every drawdown rule
would show here.  The triples number O(N^3) against the 2^(N+1) - 1
histories.

Two rules are the same class when they stop every path at the same index.
Every prefix has positive probability, so a rule is optimal exactly when it
takes an optimal action at every node it reaches, and the optimal classes
of a subtree number

    count = [stop optimal] + [continue optimal] * count(up) * count(down),

with count 1 at a leaf.  Raw decision maps number 2^(2^N - 1).  Everything
is exact: with p = a/b and D the least common denominator of f(0..N), the
values at step k are integer numerators over b^(N-k) * D.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import NamedTuple

from . import dpsolver
from .rewards import RewardDomainError
from .walkdist import WalkParams

# n_rules_total = 2^(2^N - 1) must print: at N = 14 it has 4,932 digits,
# past Python's default int-to-str limit of 4,300
MAX_HORIZON = 13


class OracleResult(NamedTuple):
    value: Fraction
    n_rules_total: int
    n_optimal_classes: int
    n_paths: int
    # stopping at time 0 strictly beats continuing (true at N = 0, where
    # tau = 0 is the only rule)
    stop_strict_at_root: bool
    # continuing strictly beats stopping at every node k < N
    continue_strict_everywhere: bool
    # continuing is optimal at every node k < N, and stopping is optimal
    # exactly at the prefixes with zero drawdown
    tie_pattern: bool


def _suffix_max_laws(p: Fraction, n: int) -> list:
    """laws[j][m] = b**j P(max(0, S_1, ..., S_j) = m) for j = 0..n, p = a/b:
    integer numerators over b**j."""
    up, down = p.numerator, p.denominator - p.numerator
    laws = [[1]]
    for j in range(1, n + 1):
        law = [0] * (j + 1)
        for m, c in enumerate(laws[-1]):
            law[m + 1] += up * c
            law[max(m - 1, 0)] += down * c
        laws.append(law)
    return laws


def check_horizon(n: int) -> None:
    """Raise ValueError unless the oracle takes a horizon of n steps."""
    if n > MAX_HORIZON:
        raise ValueError(
            f"the prefix-tree oracle is capped at N <= {MAX_HORIZON} (its rule count "
            f"2^(2^N - 1) must print, and from N = 14 it has more digits than Python's "
            f"int-to-str limit of 4,300); got N = {n}"
        )


def enumerate_optimum(w: WalkParams, f) -> OracleResult:
    """Exact maximum of E[f(M_N - S_tau)] over all adapted stopping rules."""
    n = w.n
    check_horizon(n)
    a, b = w.p.numerator, w.p.denominator
    c = b - a
    # from z = N down, so a table reward too short for the horizon is
    # reported at its first use on the all-up path
    try:
        fv = [f(z) for z in range(n, -1, -1)][::-1]
    except ValueError as e:
        raise RewardDomainError(str(e)) from e
    for z, v in enumerate(fv):
        if not isinstance(v, (int, Fraction)):
            raise RewardDomainError(f"the oracle needs a rational reward, got f({z}) = {v!r}")
    den = math.lcm(*(v.denominator for v in fv))
    fnum = [v.numerator * (den // v.denominator) for v in fv]
    laws = _suffix_max_laws(w.p, n)
    stop_strict_at_root = n == 0
    continue_strict = tie_pattern = True
    memo = {}

    def visit(k: int, s: int, m: int) -> tuple:
        """(optimal value over b**(n-k) * den, optimal class count) of the
        subtree at every prefix with this (k, S_k, M_k)."""
        nonlocal stop_strict_at_root, continue_strict, tie_pattern
        z = m - s
        if k == n:
            return fnum[z], 1
        key = k, s, m
        if key in memo:
            return memo[key]
        up_value, up_count = visit(k + 1, s + 1, max(m, s + 1))
        down_value, down_count = visit(k + 1, s - 1, m)
        cont = a * up_value + c * down_value
        law = laws[n - k]  # stop: the suffix max j pays f(max(z, j))
        stop = sum(law[: z + 1]) * fnum[z] + sum(map(operator.mul, law[z + 1 :], fnum[z + 1 :]))
        if k == 0:
            stop_strict_at_root = stop > cont
        if stop >= cont:
            continue_strict = False
        if stop > cont or (stop == cont) != (z == 0):
            tie_pattern = False
        count = (stop >= cont) + (cont >= stop) * up_count * down_count
        memo[key] = out = max(stop, cont), count
        return out

    value, count = visit(0, 0, 0)
    return OracleResult(
        value=Fraction(value, b**n * den),
        n_rules_total=2 ** (2**n - 1),
        n_optimal_classes=count,
        n_paths=2**n,
        stop_strict_at_root=stop_strict_at_root,
        continue_strict_everywhere=continue_strict,
        tie_pattern=tie_pattern,
    )


def agrees(res: OracleResult, rep: dpsolver.SolveReport) -> bool:
    """Whether the oracle confirms the DP solver's value and uniqueness label.

    The optimum must match the DP value exactly, and the optimal rule
    classes must have the claimed structure: a single class stopping at
    once for UNIQUE_TAU0, continuing strictly at every node for
    UNIQUE_TAUN, exactly the stop-at-max-or-horizon rules for TIE_CLASS,
    at least two classes for NOT_UNIQUE, and for UNKNOWN (a strict optimum
    that is not bang-bang) a single class that is neither tau = 0 nor
    tau = N.
    """
    if res.value != rep.optimal_value:
        return False
    if rep.unique == dpsolver.UNIQUE_TAU0:
        return res.n_optimal_classes == 1 and res.stop_strict_at_root
    if rep.unique == dpsolver.UNIQUE_TAUN:
        return res.continue_strict_everywhere
    if rep.unique == dpsolver.TIE_CLASS:
        return res.tie_pattern
    if rep.unique == dpsolver.NOT_UNIQUE:
        return res.n_optimal_classes >= 2
    return (res.n_optimal_classes == 1 and not res.stop_strict_at_root
            and not res.continue_strict_everywhere)
