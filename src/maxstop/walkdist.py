"""Exact finite-horizon distributions for the Bernoulli(p) random walk.

p is an exact rational a/b, and every law here is exact, so distributional
identities (reflection, time reversal) and the key inequalities behind the
bang-bang theorems are checked as exact equalities and strict
inequalities, not up to tolerance.  Every law is on Python-int numerators
over the common denominator b^k, with no gcd:

- The closed form `max_law` reads any law at one horizon, from any start,
  from the reflection principle, in O(n + start) integer steps: the law
  of (start + S_n) v M_n under p, which by time reversal is the law of
  (start v M_n) - S_n under q.  At start 0 it is the law of M_n under p
  and of Z_n = M_n - S_n under q, so it also closes tauN and the chain
  from 0.
- The drawdown-chain kernel `drawdown_laws` pushes the law of Z_k forward,
  in O(n^2) integer work, for the sweeps that need every row: `max_laws`
  carries the law of M_k on from a closed-form row as the kernel of the
  q-walk.
- The joint pass gives the law of (M_n, Z_n) as rows of integer
  numerators over b^n, row m for z = 0..n - m, in O(n^3) integer work.
  It is reference only: the independent route behind the exact reflection
  and time-reversal checks that the kernel and the closed form rest on.

The inequality checks work on the reward's numerators over one common
denominator (the reward's bound `numerators` form) and build one Fraction
per reported value; a reward that is undefined or not rational there
raises RewardDomainError, as in the solver.  They read the law at the
horizon from one bounded cache (`_final_row`) of closed-form rows, shared
across rewards and drawdowns.

Notation used throughout: S_n is the walk, M_n its running maximum,
Z_n = M_n - S_n the drawdown.  `i v m` below means max(i, m), and
`(i v M) - S` binds the max before the subtraction.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from typing import NamedTuple

from ._record import Checked
from .rewards import reward_numerators


class _Walk(NamedTuple):
    p: Fraction
    n: int


class WalkParams(Checked, _Walk):
    """Bernoulli walk with exact rational up-probability p and horizon n."""

    __slots__ = ()

    def _check(self):
        if not isinstance(self.p, Fraction):
            raise ValueError(f"p must be an exact Fraction, got {self.p!r}")
        if not 0 < self.p < 1:
            raise ValueError(f"p must lie strictly inside (0,1), got {self.p}")
        if not isinstance(self.n, int):
            raise ValueError(f"horizon must be an int, got {self.n!r}")
        if self.n < 0:
            raise ValueError(f"horizon must be >= 0, got {self.n}")

    @property
    def q(self):
        return 1 - self.p


@lru_cache(maxsize=4096)
def _forward_laws(a: int, b: int, n: int) -> tuple:
    """Joint law of (M_n, Z_n) under the p-walk, p = a/b, as integer
    numerators over b**n: row m lists z = 0..n - m (a path that reaches m
    and ends z below it takes at least m + z steps).

    A forward pass over the n steps from ((1,),) at horizon 0, in
    O(n^3) integer work: a down-step (weight b - a) moves Z up one; an
    up-step (weight a) moves it down one, or from z = 0 moves the mass on
    to row m + 1.  The key is integers only, as hashing a Fraction costs
    about 0.5 us.
    """
    down = b - a
    law = ((1,),)
    for _ in range(n):
        rows, carry = [], 0  # carry: the up-steps from z = 0 of the row below
        for row in law:
            pad = row + (0, 0)
            rows.append((a * pad[1] + carry, *[a * x + down * y for x, y in zip(pad[2:], row)]))
            carry = a * row[0]
        rows.append((carry,))
        law = tuple(rows)
    return law


def drawdown_laws(w: WalkParams, row=(1,)):
    """Yield n + 1 laws of the drawdown chain of the w.p walk as integer
    numerators: `row`, then the law after each of the n steps.

    With p = a/b, each step multiplies the common denominator by b: from
    the default row (1,), the chain at 0, row k lists the numerators of
    P(Z_k = z), z = 0..k, over b**k, the law of M_k - S_k; the row
    [0] * i + [1] starts the chain at i.  A down-step of the walk (weight
    b - a) moves Z up one, an up-step (weight a) moves it down one, staying
    at 0 from 0.
    """
    up, down = w.p.denominator - w.p.numerator, w.p.numerator
    row = list(row)
    yield row
    for _ in range(w.n):
        pad = row + [0, 0]
        row = [down * (row[0] + pad[1])] + [
            up * pad[z - 1] + down * pad[z + 1] for z in range(1, len(row) + 1)
        ]
        yield row


def max_law(p: Fraction, n: int, start: int = 0) -> list:
    """The law of V = (start + S_n) v M_n under the p-walk, v = 0..n + start,
    as integer numerators over b**n, p = a/b, in O(n + start) integer
    steps.  By time reversal it is the law of (start v M_n) - S_n under the
    q-walk, the drawdown chain of q from `start`; at start 0 it is the law
    of M_n, the last row of `max_laws(WalkParams(p, n))`.

    By the reflection principle, a path that reaches v >= 1 and ends at
    j < v, reflected after it first hits v, ends at 2v - j and is
    (q/p)**(v - j) times as likely as its image.  So, with c = b - a and
    P_j = b**n P(S_n = j), b**n P(V >= v) = sum over j >= v - start of P_j
    + R(v), where R(n + start) = 0 and
    R(v - 1) = (R(v) + (c/a)**start P_(v + start)) * c / a, each division
    exact (every term is an integer C(n, u) a**x c**y, and an endpoint
    v + start >= start + 1 has at least start up-steps).  Both terms read
    the endpoints j >= 1 from one array, the weights scaled only when
    start > 0.

    The closed form holds only for the +-1 walk; a walk with other step
    laws would read the kernel's last row.  The independent references,
    `_forward_laws` and `oracle._suffix_max_laws`, never call it.
    """
    a, b = p.numerator, p.denominator
    c, top = b - a, n + start
    point = [0] * (top + 1)  # point[v] = P_(v - start), v >= 1
    term = a**n
    for u in range(n, max((n - start) // 2, -1), -1):  # u up-steps: v = 2u - n + start >= 1
        point[2 * u - n + start] = term
        term = term * u * c // ((n - u + 1) * a)
    weight = point  # weight[v] = (c/a)**start P_(v + start)
    if start:
        weight, num, den = [0] * (top + 1), c**start, a**start
        for v in range(1, n - start + 1):
            weight[v] = point[v + 2 * start] * num // den
    law = [0] * (top + 1)
    tail = weighted = above = 0  # weighted = R(v), above = b**n P(V >= v + 1)
    for v in range(top, 0, -1):
        tail += point[v]
        law[v] = tail + weighted - above
        above += law[v]
        weighted = (weighted + weight[v]) // a * c
    law[0] = b**n - above
    return law


def max_laws(w: WalkParams, first: int = 0):
    """Yield the law of M_k for k = first..n as integer numerators over b**k.

    Row `first` is the closed form `max_law`; by time reversal, M_k under p
    has the law of Z_k under q, so the drawdown kernel of the q-walk
    carries it on.  Nothing is computed before the first row is pulled.
    """
    yield from drawdown_laws(WalkParams(w.q, w.n - first), max_law(w.p, first))


@lru_cache(maxsize=512)
def _final_row(a: int, b: int, n: int, start: int) -> tuple:
    """The law at the horizon of the drawdown chain of the p-walk, p = a/b,
    started at `start`, as `drawdown_laws` yields it, kept as a tuple: the
    closed form `max_law` of the q-walk from `start`, in O(n + start)
    integer steps.

    The inequality checks read it: (i v M_n) - S_n is the chain from i,
    M_n - S_n the chain from 0, and M_n the chain of the q-walk from 0.
    The key is integers only, as hashing a Fraction costs about 0.5 us.
    `verify-discrete` reads 441 distinct rows 9,720 times, so 512 rows
    hold its whole grid.  A row holds start + n + 1 integers below b**n:
    on that grid (n, start <= 8, b = 10) the rows take 0.16 MB, and 512
    rows at n = start = 100, b = 10 would take 5.6 MB.  The solver's
    streamed sweeps do not read it.
    """
    return tuple(max_law(Fraction(b - a, b), n, start))


def reflection_check(w: WalkParams) -> bool:
    """(M_n - S_n, S_n) under p has the same law as (M_n, -S_n) under q.

    On (M_n, Z_n) that reads: the joint table under p is the transpose of
    the table under q (P_p(M = m, Z = z) = P_q(M = z, Z = m)).  With p = a/b
    reduced, q = (b-a)/b, so both tables are numerators over b**n and
    compare as integers.  Column z of the q-table has its n + 1 - z entries
    first; `zip_longest` pads the rest.
    """
    a, b, n = w.p.numerator, w.p.denominator, w.n
    columns = zip_longest(*_forward_laws(b - a, b, n))
    return [col[: n + 1 - z] for z, col in enumerate(columns)] == list(_forward_laws(a, b, n))


def time_reversal_check(w: WalkParams) -> bool:
    """Law of M_n under p equals the law of Z_n = M_n - S_n under q, exactly:
    the row sums of the p-table equal the column sums of the q-table
    (integer numerators over b**n, as in `reflection_check`)."""
    a, b, n = w.p.numerator, w.p.denominator, w.n
    columns = zip_longest(*_forward_laws(b - a, b, n), fillvalue=0)
    return list(map(sum, _forward_laws(a, b, n))) == list(map(sum, columns))


def _expect_max(law: list, fnum: list, i: int) -> int:
    """Sum of law[m] * fnum[i v m]: the numerator of E[f(i v X)] when law is
    the numerator law of X and fnum the numerators of f from 0."""
    return sum(law[: i + 1]) * fnum[i] + sum(map(operator.mul, law[i + 1 :], fnum[i + 1 :]))


class InequalityReport(NamedTuple):
    """Outcome of one exact inequality check.

    Under the hypotheses of the checked statement lhs >= rhs always holds,
    and `strict` records lhs > rhs.
    """

    lhs: Fraction
    rhs: Fraction
    strict: bool

    @property
    def holds(self) -> bool:
        return self.lhs >= self.rhs

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs


def _check_against(w: WalkParams, f, i: int, up: int) -> InequalityReport:
    """E[f((i v M_n) - S_n)] against E[f(i v X)], X the drawdown chain from 0
    of the walk with up-probability up/b at the horizon (p = a/b).

    Both sides are numerators over b**n * D, D the common denominator of
    f(0..i+n), so the comparison is between integers.
    """
    a, b, n = w.p.numerator, w.p.denominator, w.n
    if i < 0:
        raise ValueError("drawdown must be >= 0")
    fnum, den = reward_numerators(f, i + n)
    den *= b**n
    lhs = sum(map(operator.mul, _final_row(a, b, n, i), fnum))
    rhs = _expect_max(_final_row(up, b, n, 0), fnum, i)
    return InequalityReport(Fraction(lhs, den), Fraction(rhs, den), lhs > rhs)


def check_key_inequality(w: WalkParams, f, i: int) -> InequalityReport:
    """E[f((i v M_n) - S_n)] >= E[f(i v (M_n - S_n))] under the w.p walk.

    Holds for every nonincreasing convex f when p >= 1/2; the operation
    itself accepts any f and reports the raw values.  Needs f defined and
    rational up to i + n (the worst path ends n below the start).
    """
    return _check_against(w, f, i, w.p.numerator)


def check_corollary(w: WalkParams, f, i: int) -> InequalityReport:
    """E[f((i v M_n) - S_n)] >= E[f(i v M_n)] under the w.p walk."""
    return _check_against(w, f, i, w.p.denominator - w.p.numerator)
