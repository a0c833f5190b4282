"""Backward-induction solver for the optimal stopping of the drawdown chain.

The objective E[f(M_N - S_tau)] over stopping times tau <= N reduces to a
Markov problem on the drawdown Z_k = M_k - S_k: stopping in state (k, z)
pays G(N-k, z) = E[f(z v M_{N-k})], continuing moves Z down 1 with
probability p (staying at 0 from 0) and up 1 with probability q.  The
solver runs the exact Bellman recursion for ANY reward f, convex or not,
records per-state ties exactly, and classifies uniqueness of the optimal
rule from the tie pattern.

The arithmetic runs on Python ints.  With p = a/b and f(0..N) over one
common denominator D, G(j, .) is an integer row over b^j * D, and at step
k the stop values and the continuation values a * V(z-1 v 0) +
(b - a) * V(z+1) share the denominator b^(N-k) * D, so stop / continue /
TIE is a plain integer comparison.  Fractions are built only for the
reported values, so rewards must be rational on {0..N}.

Uniqueness labels:

``UNIQUE_TAU0``   stopping at time 0 beats every continuation strictly
``UNIQUE_TAUN``   continuing strictly beats stopping in every state k < N
``TIE_CLASS``     exactly the states with z = 0 tie; the optimal rules are
                  precisely those stopping at the running max or at N
``NOT_UNIQUE``    several optimal rules outside that pattern
``UNKNOWN``       a strict non-bang-bang optimum
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .rewards import RewardDomainError
from .walkdist import WalkParams, drawdown_laws, final_law, max_laws

STOP = "STOP"
CONTINUE = "CONTINUE"
TIE = "TIE"

UNIQUE_TAU0 = "UNIQUE_TAU0"
UNIQUE_TAUN = "UNIQUE_TAUN"
TIE_CLASS = "TIE_CLASS"
NOT_UNIQUE = "NOT_UNIQUE"
UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class PolicyTable:
    """Stop/continue decision per reachable drawdown state (k, z), 0 <= z <= k.

    Decisions at k = N are forced to STOP.  TIE marks states where stopping
    and continuing have exactly equal value; for execution a TIE stops
    (ties break toward STOP).
    """

    n: int
    decisions: dict

    def __post_init__(self):
        for k in range(self.n + 1):
            for z in range(k + 1):
                d = self.decisions.get((k, z))
                if d not in (STOP, CONTINUE, TIE):
                    raise ValueError(f"policy missing or invalid decision at {(k, z)}: {d!r}")
                if k == self.n and d == CONTINUE:
                    raise ValueError(f"policy must stop at the horizon, state {(k, z)}")

    def stops(self, k: int, z: int) -> bool:
        return self.decisions[(k, z)] in (STOP, TIE)

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["k", "z", "decision"])
        for (k, z), d in sorted(self.decisions.items()):
            w.writerow([k, z, d])
        return buf.getvalue()


def policy_tau0(n: int) -> PolicyTable:
    return PolicyTable(n, {(k, z): STOP for k in range(n + 1) for z in range(k + 1)})


def policy_tauN(n: int) -> PolicyTable:
    dec = {(k, z): CONTINUE for k in range(n) for z in range(k + 1)}
    dec.update({(n, z): STOP for z in range(n + 1)})
    return PolicyTable(n, dec)


def policy_stop_at_max(n: int, from_step: int = 0) -> PolicyTable:
    """Stop at the first step >= from_step with zero drawdown, else at N."""
    dec = {}
    for k in range(n + 1):
        for z in range(k + 1):
            stop = k == n or (z == 0 and k >= from_step)
            dec[(k, z)] = STOP if stop else CONTINUE
    return PolicyTable(n, dec)


@dataclass(frozen=True)
class SolveReport:
    optimal_value: Fraction
    policy: PolicyTable
    value_tau0: Fraction
    value_tauN: Fraction
    unique: str
    tie_states: tuple
    stop_values: dict = field(repr=False, default_factory=dict)
    continue_values: dict = field(repr=False, default_factory=dict)


def _reward_numerators(f, n: int) -> tuple:
    """(numerators, D): f(0..n) as integers over their least common denominator D.

    Raises RewardDomainError naming the first z where f is undefined or not
    rational.
    """
    try:
        vals = [f(z) for z in range(n + 1)]
    except ValueError as e:
        raise RewardDomainError(f"reward must be defined on 0..{n}: {e}") from e
    for z, v in enumerate(vals):
        if not isinstance(v, (int, Fraction)):
            raise RewardDomainError(
                f"reward value f({z}) = {v!r} is not rational; exact solving needs a rational reward"
            )
    vals = [Fraction(v) for v in vals]
    den = math.lcm(*(v.denominator for v in vals))
    return [v.numerator * (den // v.denominator) for v in vals], den


def _g_table(w: WalkParams, fnum: list) -> list:
    """G[j][i] = E[f(i v M_j)] for j = 0..n, i = 0..n-j, in O(n^2).

    Row j holds integer numerators over b**j * D, where fnum are the
    numerators of f(0..n) over D.  Uses the prefix/suffix split over the
    M_j law: contributions with m <= i collapse to P(M_j <= i) * f(i).
    """
    n = w.n
    table = []
    for j, law in enumerate(max_laws(w)):
        cdf = 0
        tail = sum(c * v for c, v in zip(law, fnum))
        row = []
        for i in range(n - j + 1):
            if i <= j:
                cdf += law[i]
                tail -= law[i] * fnum[i]
            row.append(cdf * fnum[i] + tail)
        table.append(row)
    return table


def solve(w: WalkParams, f) -> SolveReport:
    """Exact backward induction over (step, drawdown) states.

    Works for any f rational on {0..N}; convexity is not required, which is
    what lets the winner-take-two counterexample go through the same path.
    """
    n = w.n
    a, b = w.p.numerator, w.p.denominator
    fnum, den = _reward_numerators(f, n)
    G = _g_table(w, fnum)

    # V holds the step-k values as numerators over den = b**(n-k) * D
    V = fnum
    decisions = {(n, z): STOP for z in range(n + 1)}
    stop_values, cont_values = {}, {}
    for k in range(n - 1, -1, -1):
        den *= b
        row = []
        for z in range(k + 1):
            stop = G[n - k][z]
            cont = a * V[max(z - 1, 0)] + (b - a) * V[z + 1]
            stop_values[(k, z)] = Fraction(stop, den)
            cont_values[(k, z)] = Fraction(cont, den)
            if stop > cont:
                decisions[(k, z)] = STOP
            elif cont > stop:
                decisions[(k, z)] = CONTINUE
            else:
                decisions[(k, z)] = TIE
            row.append(max(stop, cont))
        V = row

    zlaw = final_law(drawdown_laws(w))
    tie_states = tuple(sorted(s for s, d in decisions.items() if d == TIE))
    return SolveReport(
        optimal_value=Fraction(V[0], den),
        policy=PolicyTable(n, decisions),
        value_tau0=Fraction(G[n][0], den),
        value_tauN=Fraction(sum(c * v for c, v in zip(zlaw, fnum)), den),
        unique=_classify_uniqueness(n, decisions),
        tie_states=tie_states,
        stop_values=stop_values,
        continue_values=cont_values,
    )


def _classify_uniqueness(n: int, decisions: dict) -> str:
    inner = {(k, z): d for (k, z), d in decisions.items() if k < n}
    ties = {s for s, d in inner.items() if d == TIE}

    # A strict stop at the root already certifies tau=0: every other rule
    # must run past time 0 (time 0 is deterministic) and is bounded by the
    # strictly smaller continuation value.
    if inner.get((0, 0)) == STOP:
        return UNIQUE_TAU0
    if inner and all(d == CONTINUE for d in inner.values()):
        return UNIQUE_TAUN
    zero_states = {(k, 0) for k in range(n)}
    if ties == zero_states and all(
        d == CONTINUE for s, d in inner.items() if s not in zero_states
    ):
        return TIE_CLASS
    if ties:
        return NOT_UNIQUE
    return UNKNOWN


def evaluate_policy(w: WalkParams, f, pol: PolicyTable):
    """Exact value of a Markov drawdown rule: push the chain law forward,
    absorb on STOP (and TIE) states collecting G(N-k, z), pay f(z) at N.

    The surviving mass at step k is an integer row over b**k and G(N-k, .)
    is over b**(N-k) * D, so every collected term is over b**N * D.
    """
    if pol.n != w.n:
        raise ValueError(f"policy horizon {pol.n} does not match walk horizon {w.n}")
    n = w.n
    a, b = w.p.numerator, w.p.denominator
    fnum, den = _reward_numerators(f, n)
    G = _g_table(w, fnum)

    dist = [1]
    total = 0
    for k in range(n + 1):
        nxt = [0] * (k + 2)
        for z, c in enumerate(dist):
            if k == n or pol.stops(k, z):
                total += c * G[n - k][z]
            else:
                nxt[max(z - 1, 0)] += a * c
                nxt[z + 1] += (b - a) * c
        dist = nxt
    return Fraction(total, b**n * den)
