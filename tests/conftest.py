"""Shared brute-force oracles for the test suite.

Everything here recomputes walk functionals by enumerating all 2^n paths
directly, independently of the library's forward-DP code paths, so tests
compare two genuinely different routes to the same exact value.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest


def all_paths(n):
    return list(product((1, -1), repeat=n))


def path_prob(path, p):
    prob = Fraction(1) if isinstance(p, (Fraction, int)) else 1.0
    q = 1 - p
    for x in path:
        prob *= p if x == 1 else q
    return prob


def path_max_end(path):
    """(M_n, S_n) of one path."""
    s = m = 0
    for x in path:
        s += x
        m = max(m, s)
    return m, s


@lru_cache(maxsize=None)
def _path_stats(p, n):
    """(probability, M_n, S_n) of every path, in all_paths order."""
    return tuple((path_prob(path, p), *path_max_end(path)) for path in all_paths(n))


def brute_expect(p, n, fn):
    """E[fn(M_n, S_n)] by full path enumeration."""
    return sum(pr * fn(m, s) for pr, m, s in _path_stats(p, n))


def brute_joint(p, n):
    """Joint pmf of (M_n, S_n) by full path enumeration."""
    out = {}
    for pr, k, l in _path_stats(p, n):
        out[(k, l)] = out.get((k, l), Fraction(0)) + pr
    return out


def brute_rule_value(p, n, f, stops):
    """E[f(M_n - S_tau)] by full path enumeration, where tau is the first
    k < n with stops(k, M_k - S_k), else n."""
    total = Fraction(0)
    for path, (pr, m_n, _s_n) in zip(all_paths(n), _path_stats(p, n)):
        s = m = 0
        for k in range(n + 1):
            if k == n or stops(k, m - s):
                break
            s += path[k]
            m = max(m, s)
        total += pr * f(m_n - s)
    return total


@pytest.fixture
def p_grid():
    return [Fraction(k, 10) for k in range(1, 10)]
