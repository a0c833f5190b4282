"""Backward-induction solver for the optimal stopping of the drawdown chain.

The objective E[f(M_N - S_tau)] over stopping times tau <= N reduces to a
Markov problem on the drawdown Z_k = M_k - S_k: stopping in state (k, z)
pays G(N-k, z) = E[f(z v M_{N-k})], continuing moves Z down 1 with
probability p (staying at 0 from 0) and up 1 with probability q.  The
solver runs the exact Bellman recursion for ANY reward f, convex or not,
records per-state ties exactly, and classifies uniqueness of the optimal
rule from the tie pattern.

The arithmetic runs on Python ints.  With p = a/b and f(0..N) over one
common denominator D, G(j, .) is an integer row over b^j * D; step k
compares it with a * V(z-1 v 0) + (b - a) * V(z+1), both over b^(N-k) * D,
so stop / continue / TIE is an integer comparison.  The sweep is streamed:
step k reads only G(N-k, .), and N-k rises as k falls, the order in which
the law kernel yields rows, so O(N) integers stay alive and no per-state
value is kept.  `evaluate_policy` runs the same sweep with a given rule's
decisions in place of the comparison, over the rows where the rule can
both stop and still be running: from the first row with no CONTINUE
(every path has stopped there, so V = G) up to the first row t that holds
a STOP or TIE (no path has stopped before it), where the law of Z_t
closes the value.  The law at the first row read and the closing law are
closed forms (`walkdist.max_law`, O(N) integer steps each), and the law
kernel carries the law of M over the swept rows only: tau0 costs one
closed-form law and one G row, tauN one closed-form law and one dot
product with f, as does `solve`'s value_tauN.  It too keeps O(N)
integers alive: one law, one G row and one row of V.  Fractions are built
only for the reported values, so rewards must be rational on {0..N}.

Uniqueness labels:

``UNIQUE_TAU0``   stopping at time 0 beats every continuation strictly
``UNIQUE_TAUN``   continuing strictly beats stopping in every state k < N
``TIE_CLASS``     exactly the states with z = 0 tie; the optimal rules are
                  precisely those stopping at the running max or at N
``NOT_UNIQUE``    several optimal rules outside that pattern
``UNKNOWN``       a strict non-bang-bang optimum
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import repeat
from typing import NamedTuple

from ._record import Checked
from .rewards import reward_numerators
from .walkdist import WalkParams, max_law, max_laws

STOP = "STOP"
CONTINUE = "CONTINUE"
TIE = "TIE"

UNIQUE_TAU0 = "UNIQUE_TAU0"
UNIQUE_TAUN = "UNIQUE_TAUN"
TIE_CLASS = "TIE_CLASS"
NOT_UNIQUE = "NOT_UNIQUE"
UNKNOWN = "UNKNOWN"


class _Policy(NamedTuple):
    n: int
    rows: tuple


class PolicyTable(Checked, _Policy):
    """Stop/continue decision per reachable drawdown state (k, z), 0 <= z <= k.

    rows[k] is the tuple of decisions at z = 0..k.  Decisions at k = N are
    forced to STOP.  TIE marks states where stopping and continuing have
    exactly equal value; for execution a TIE stops (ties break toward STOP).
    """

    __slots__ = ()

    def _check(self):
        if len(self.rows) != self.n + 1:
            raise ValueError(f"policy has {len(self.rows)} rows, needs {self.n + 1}")
        for k, row in enumerate(self.rows):
            if len(row) != k + 1:
                raise ValueError(f"policy row {k} has {len(row)} decisions, needs {k + 1}")
            if row.count(STOP) + row.count(CONTINUE) + row.count(TIE) < len(row):
                z, d = next((z, d) for z, d in enumerate(row) if d not in (STOP, CONTINUE, TIE))
                raise ValueError(f"policy missing or invalid decision at {(k, z)}: {d!r}")
        if CONTINUE in self.rows[-1]:
            z = self.rows[-1].index(CONTINUE)
            raise ValueError(f"policy must stop at the horizon, state {(self.n, z)}")

    @classmethod
    def from_decisions(cls, n: int, decisions: dict) -> PolicyTable:
        """The table of a {(k, z): decision} dict over every state up to n."""
        get = decisions.get
        return cls(n, tuple(tuple(map(get, zip(repeat(k), range(k + 1)))) for k in range(n + 1)))

    @property
    def decisions(self) -> dict:
        """{(k, z): decision} for every state, built on each read."""
        return {(k, z): d for k, row in enumerate(self.rows) for z, d in enumerate(row)}

    def to_csv(self) -> str:
        """One `k,z,decision` line per state under that header, each ending
        in CRLF, as `csv.writer` writes them."""
        return "k,z,decision\r\n" + "".join(
            f"{k},{z},{d}\r\n" for k, row in enumerate(self.rows) for z, d in enumerate(row)
        )


def policy_tau0(n: int) -> PolicyTable:
    return PolicyTable(n, tuple((STOP,) * (k + 1) for k in range(n + 1)))


def policy_tauN(n: int) -> PolicyTable:
    return PolicyTable(n, tuple((CONTINUE,) * (k + 1) for k in range(n)) + ((STOP,) * (n + 1),))


def policy_stop_at_max(n: int, from_step: int = 0) -> PolicyTable:
    """Stop at the first step >= from_step with zero drawdown, else at N."""
    rows = tuple((STOP if k >= from_step else CONTINUE,) + (CONTINUE,) * k for k in range(n))
    return PolicyTable(n, rows + ((STOP,) * (n + 1),))


class SolveReport(NamedTuple):
    optimal_value: Fraction
    policy: PolicyTable
    value_tau0: Fraction
    value_tauN: Fraction
    unique: str
    tie_states: tuple


def _g_row(law: list, fnum: list, j: int, n: int) -> list:
    """G(j, .) = E[f(i v M_j)], i = 0..n-j, in O(n).

    law is the law of M_j as `max_laws` yields it, integer numerators over
    b**j, and fnum the numerators of f(0..n) over D; the row holds integer
    numerators over b**j * D.  Uses the prefix/suffix split over the law:
    contributions with m <= i collapse to P(M_j <= i) * f(i).
    """
    prods = list(map(operator.mul, law, fnum))
    tail = sum(prods)
    cdf = 0
    row = []
    for i in range(min(j, n - j) + 1):
        cdf += law[i]
        tail -= prods[i]
        row.append(cdf * fnum[i] + tail)
    # past i = j the whole law sits at or below i: cdf = b**j, tail = 0
    row += [cdf * v for v in fnum[j + 1 : n - j + 1]]
    return row


def solve(w: WalkParams, f) -> SolveReport:
    """Exact backward induction over (step, drawdown) states.

    Works for any f rational on {0..N}; convexity is not required, which is
    what lets the winner-take-two counterexample go through the same path.
    """
    n = w.n
    a, b = w.p.numerator, w.p.denominator
    fnum, den = reward_numerators(f, n)
    g_rows = (_g_row(law, fnum, j, n) for j, law in enumerate(max_laws(w)))

    # V holds the step-k values as numerators over den = b**(n-k) * D;
    # G(0, .) = f is the value at the horizon.  rows collects the decision
    # rows from k = n down and is turned round at the end.
    G = V = next(g_rows)
    rows = [(STOP,) * (n + 1)]
    any_stop = False
    for k in range(n - 1, -1, -1):
        G = next(g_rows)
        den *= b
        conts = [a * lo + (b - a) * hi for lo, hi in zip(V[:1] + V[:k], V[1:])]
        row = tuple([STOP if s > c else CONTINUE if c > s else TIE for s, c in zip(G, conts)])
        any_stop = any_stop or STOP in row
        rows.append(row)
        V = list(map(max, G, conts))

    rows.reverse()
    tie_states = [
        (k, z) for k, row in enumerate(rows) if TIE in row for z, d in enumerate(row) if d == TIE
    ]
    zlaw = max_law(w.q, n)  # the law of M_n - S_n under p
    return SolveReport(
        optimal_value=Fraction(V[0], den),
        policy=PolicyTable(n, tuple(rows)),
        value_tau0=Fraction(G[0], den),
        value_tauN=Fraction(sum(c * v for c, v in zip(zlaw, fnum)), den),
        unique=_classify_uniqueness(n, rows, any_stop, tie_states),
        tie_states=tuple(tie_states),
    )


def _classify_uniqueness(n: int, rows, any_stop: bool, tie_states: list) -> str:
    """The uniqueness label from the decision rows; any_stop says whether
    some state k < N strictly stops, and tie_states lists the TIE states in
    order."""
    # A strict stop at the root already certifies tau=0: every other rule
    # must run past time 0 (time 0 is deterministic) and is bounded by the
    # strictly smaller continuation value.
    if n and rows[0][0] == STOP:
        return UNIQUE_TAU0
    if n and not any_stop and not tie_states:
        return UNIQUE_TAUN
    if not any_stop and tie_states == [(k, 0) for k in range(n)]:
        return TIE_CLASS
    if tie_states:
        return NOT_UNIQUE
    return UNKNOWN


def evaluate_policy(w: WalkParams, f, pol: PolicyTable):
    """Exact value of a Markov drawdown rule by backward induction.

    The sweep of `solve` with the rule's decision in place of the Bellman
    max, run only over the rows where the rule can both stop and still be
    running.  It starts at the first row s with no CONTINUE (row N is all
    STOP): every path has stopped by time s, so V there is G(N-s, .), or f
    at s = N.  Above it a STOP (or TIE) state takes G(N-k, z) and a
    CONTINUE state a * V(z-1 v 0) + (b - a) * V(z+1).  It stops at the
    first row t that holds a STOP or TIE: no path stops before time t, so
    the value is the law of Z_t dotted with V(t, .).  The law of M starts
    at the first row read, j = N-s, as a closed form (`max_law`) and the
    kernel carries it to N-t; the law of Z_t is a closed form too.  So
    tau0 and stop-at-max (which stops at time 0) cost one closed-form law
    and one G row, and tauN one closed-form law and one dot product with f.
    Row k is over b**(N-k) * D, and O(N) integers stay alive: the law
    being advanced, one G row and one row of V.
    """
    if pol.n != w.n:
        raise ValueError(f"policy horizon {pol.n} does not match walk horizon {w.n}")
    n = w.n
    a, b = w.p.numerator, w.p.denominator
    fnum, den = reward_numerators(f, n)
    rows = pol.rows
    start = next(k for k, row in enumerate(rows) if CONTINUE not in row)
    top = next(k for k, row in enumerate(rows) if STOP in row or TIE in row)
    first = max(1, n - start)  # G(0, .) = f needs no law
    laws = max_laws(WalkParams(w.p, n - top), first)
    g_rows = (_g_row(law, fnum, j, n) for j, law in enumerate(laws, first))
    V = fnum if start == n else next(g_rows)
    for k in range(start - 1, top - 1, -1):
        V = [
            a * V[z - 1 if z else 0] + (b - a) * V[z + 1] if d == CONTINUE else g
            for z, (g, d) in enumerate(zip(next(g_rows), rows[k]))
        ]
    zlaw = max_law(w.q, top)  # the law of Z_top under p
    return Fraction(sum(map(operator.mul, zlaw, V)), den * b**n)
