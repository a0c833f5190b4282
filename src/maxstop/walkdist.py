"""Exact finite-horizon distributions for the Bernoulli(p) random walk.

p is an exact rational a/b, and every law here is exact, so distributional
identities (reflection, time reversal) and the key inequalities behind the
bang-bang theorems are checked as exact equalities and strict
inequalities, not up to tolerance.  Two forward passes compute laws:

- The joint pass over (running max, endpoint) gives the law of (M_n, S_n)
  in O(n^3) Fraction work.  It is the independent route behind the
  reflection and time-reversal checks and the d values.
- The drawdown-chain kernel `drawdown_laws` pushes the law of Z_k forward
  on Python-int numerators over the common denominator b^k, in O(n^2)
  integer work with no gcd.  By time reversal (checked exactly from the
  joint pass by `time_reversal_check`), M_k under p has the law of Z_k
  under q, so the same kernel gives the max laws (`max_laws`).

Notation used throughout: S_n is the walk, M_n its running maximum,
Z_n = M_n - S_n the drawdown.  `i v m` below means max(i, m), and
`(i v M) - S` binds the max before the subtraction.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


@dataclass(frozen=True)
class WalkParams:
    """Bernoulli walk with exact rational up-probability p and horizon n."""

    p: Fraction
    n: int

    def __post_init__(self):
        if not isinstance(self.p, Fraction):
            raise ValueError(f"p must be an exact Fraction, got {self.p!r}")
        if not 0 < self.p < 1:
            raise ValueError(f"p must lie strictly inside (0,1), got {self.p}")
        if self.n < 0:
            raise ValueError(f"horizon must be >= 0, got {self.n}")

    @property
    def q(self):
        return 1 - self.p

    def swapped(self) -> "WalkParams":
        """The q-walk with the same horizon."""
        return WalkParams(self.q, self.n)

    def at_horizon(self, n: int) -> "WalkParams":
        return WalkParams(self.p, n)


@dataclass(frozen=True)
class JointLaw:
    """Exact joint law of (M_n, S_n): entries map (max k, endpoint l) -> prob."""

    n: int
    entries: dict

    def total_mass(self):
        return sum(self.entries.values())

    def max_marginal(self) -> dict:
        out = {}
        for (k, _l), pr in self.entries.items():
            out[k] = out.get(k, 0) + pr
        return out

    def drawdown_marginal(self) -> dict:
        """Law of Z_n = M_n - S_n."""
        out = {}
        for (k, l), pr in self.entries.items():
            out[k - l] = out.get(k - l, 0) + pr
        return out

    def expectation(self, fn):
        return sum(pr * fn(k, l) for (k, l), pr in sorted(self.entries.items()))

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["n", "k", "l", "prob_numerator", "prob_denominator"])
        for (k, l), pr in sorted(self.entries.items()):
            w.writerow([self.n, k, l, pr.numerator, pr.denominator])
        return buf.getvalue()

    def to_json(self) -> str:
        rows = [
            {"k": k, "l": l, "prob": str(pr)}
            for (k, l), pr in sorted(self.entries.items())
        ]
        return json.dumps({"n": self.n, "entries": rows}, sort_keys=True)


@lru_cache(maxsize=4096)
def _forward_laws(p, n: int) -> tuple:
    """Joint (M_k, S_k) laws for every k = 0..n, one forward pass."""
    q = 1 - p
    law = {(0, 0): Fraction(1)}
    out = [dict(law)]
    for _ in range(n):
        nxt = {}
        for (k, l), pr in law.items():
            up = (max(k, l + 1), l + 1)
            dn = (k, l - 1)
            nxt[up] = nxt.get(up, 0) + pr * p
            nxt[dn] = nxt.get(dn, 0) + pr * q
        law = nxt
        out.append(dict(law))
    return tuple(out)


def joint_pmf(w: WalkParams) -> JointLaw:
    """Exact pmf of (M_n, S_n); total mass is exactly 1."""
    return JointLaw(w.n, dict(_forward_laws(w.p, w.n)[w.n]))


def drawdown_laws(w: WalkParams):
    """Yield the law of Z_k = M_k - S_k for k = 0..n as integer numerators.

    With p = a/b, row k lists the numerators of P(Z_k = z), z = 0..k, over
    b**k.  A down-step of the walk (weight b - a) moves Z up one, an
    up-step (weight a) moves it down one, staying at 0 from 0.
    """
    up, down = w.p.denominator - w.p.numerator, w.p.numerator
    row = [1]
    yield row
    for _ in range(w.n):
        pad = row + [0, 0]
        row = [down * (row[0] + pad[1])] + [
            up * pad[z - 1] + down * pad[z + 1] for z in range(1, len(row) + 1)
        ]
        yield row


def max_laws(w: WalkParams):
    """Yield the law of M_k for k = 0..n as integer numerators over b**k.

    By time reversal, M_k under p has the law of Z_k under q.
    """
    return drawdown_laws(w.swapped())


def final_law(rows) -> list:
    """The last row of a law generator (the law at the horizon)."""
    for row in rows:
        pass
    return row


def max_marginals(w: WalkParams) -> list:
    """Law of M_k for every k = 0..n, as dicts of Fractions."""
    b = w.p.denominator
    return [
        {m: Fraction(c, b**k) for m, c in enumerate(row)}
        for k, row in enumerate(max_laws(w))
    ]


def reflection_check(w: WalkParams) -> bool:
    """(M_n - S_n, S_n) under p has the same law as (M_n, -S_n) under q.

    Compares the pushforward of the p-law under (k,l) -> (k-l, l) with the
    pushforward of the q-law under (k,l) -> (k, -l), exactly.
    """
    lhs = {}
    for (k, l), pr in joint_pmf(w).entries.items():
        key = (k - l, l)
        lhs[key] = lhs.get(key, 0) + pr
    rhs = {}
    for (k, l), pr in joint_pmf(w.swapped()).entries.items():
        key = (k, -l)
        rhs[key] = rhs.get(key, 0) + pr
    return lhs == rhs


def time_reversal_check(w: WalkParams) -> bool:
    """Law of M_n under p equals the law of Z_n = M_n - S_n under q, exactly."""
    return joint_pmf(w).max_marginal() == joint_pmf(w.swapped()).drawdown_marginal()


def g_value(w: WalkParams, f, k: int, i: int):
    """G(k, i) = E[f(i v M_k)] under the w.p walk."""
    if k > w.n:
        raise ValueError(f"steps remaining {k} exceeds configured horizon {w.n}")
    if i < 0:
        raise ValueError("drawdown must be >= 0")
    den = w.p.denominator**k
    law = final_law(max_laws(w.at_horizon(k)))
    return sum(Fraction(c, den) * f(max(i, m)) for m, c in enumerate(law))


def d_value(w: WalkParams, f, k: int, i: int):
    """E[f((i v M_k) - S_k)] under the w.p walk.

    One operation covers both drift directions: called on the q-walk it
    feeds the stop-now half of the bang-bang argument, called on the
    p-walk itself it values running to the horizon from drawdown i.
    """
    if k > w.n:
        raise ValueError(f"steps remaining {k} exceeds configured horizon {w.n}")
    if i < 0:
        raise ValueError("drawdown must be >= 0")
    law = JointLaw(k, dict(_forward_laws(w.p, w.n)[k]))
    return law.expectation(lambda m, s: f(max(i, m) - s))


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of one exact inequality check.

    Under the hypotheses of the checked statement lhs >= rhs always holds,
    `strict` records lhs > rhs, and `witness` is the (k,l) = (n,n) corner
    when the proof's integrand gap psi is strictly positive there.
    """

    lhs: Fraction | float
    rhs: Fraction | float
    strict: bool
    witness: tuple | None = None

    @property
    def holds(self) -> bool:
        return self.lhs >= self.rhs

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs

    def to_json(self) -> str:
        def enc(v):
            return str(v) if isinstance(v, Fraction) else v

        return json.dumps(
            {
                "lhs": enc(self.lhs),
                "rhs": enc(self.rhs),
                "strict": self.strict,
                "witness": list(self.witness) if self.witness else None,
            },
            sort_keys=True,
        )


def _psi(f, i: int, k: int, l: int):
    """Integrand gap of the key-inequality proof, nonnegative for convex f."""
    return (f(max(i, k) - l) - f(max(i, k))) - (f(max(i, k - l)) - f(max(i, k - l) + l))


def check_key_inequality(w: WalkParams, f, i: int) -> InequalityReport:
    """E[f((i v M_n) - S_n)] >= E[f(i v (M_n - S_n))] under the w.p walk.

    Holds for every nonincreasing convex f when p >= 1/2; the operation
    itself accepts any f and reports the raw values.  Needs f defined up to
    i + n (the worst path ends n below the start).
    """
    n = w.n
    lhs = d_value(w, f, n, i)
    den = w.p.denominator**n
    rhs = sum(Fraction(c, den) * f(max(i, z)) for z, c in enumerate(final_law(drawdown_laws(w))))
    witness = (n, n) if n > 0 and _psi(f, i, n, n) > 0 else None
    return InequalityReport(lhs=lhs, rhs=rhs, strict=lhs > rhs, witness=witness)


def check_corollary(w: WalkParams, f, i: int) -> InequalityReport:
    """E[f((i v M_n) - S_n)] >= E[f(i v M_n)] under the w.p walk."""
    n = w.n
    lhs = d_value(w, f, n, i)
    rhs = g_value(w, f, n, i)
    witness = (n, n) if n > 0 and _psi(f, i, n, n) > 0 else None
    return InequalityReport(lhs=lhs, rhs=rhs, strict=lhs > rhs, witness=witness)
