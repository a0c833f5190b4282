"""Every history-dependent stopping rule, checked by backward induction over
the tree of step prefixes.

Decision maps on binary histories number 2^(2^N - 1).  The oracle walks the
2^(N+1) - 1 step histories, valuing each distinct (k, S_k, M_k) once:
histories that share the triple root the same subtree.  It never merges
two triples that share a drawdown, counts the optimal rule classes (rules
that stop every path at the same index), and compares both with the
drawdown-state dynamic program.
"""

from fractions import Fraction

from maxstop import WalkParams, enumerate_optimum, geometric_reward, solve, table_reward
from maxstop.oracle import agrees


def n_triples(n: int) -> int:
    """Distinct (k, S_k, M_k) over histories of k <= n steps: a path that
    reaches m and ends z below it needs m + z <= k steps, of k's parity."""
    return sum(j + 1 for k in range(n + 1) for j in range(k % 2, k + 1, 2))


for n, p, f, label in [
    (3, Fraction(1, 3), geometric_reward(Fraction(1, 2)), "geometric, p<1/2"),
    (3, Fraction(3, 4), geometric_reward(Fraction(1, 2)), "geometric, p>1/2"),
    (4, Fraction(1, 2), geometric_reward(Fraction(1, 2)), "geometric, p=1/2"),
    (2, Fraction(1, 3), table_reward([1, 1, 0]), "winner-take-two"),
    (10, Fraction(1, 2), geometric_reward(Fraction(1, 2)), "geometric, p=1/2"),
    (13, Fraction(2, 5), geometric_reward(Fraction(1, 2)), "geometric, p<1/2"),
]:
    w = WalkParams(p, n)
    res = enumerate_optimum(w, f)
    rep = solve(w, f)
    print(f"{label}: N={n}, p={p}")
    print(f"  raw decision maps : 2^{2**n - 1}")
    print(f"  step histories    : {2 * res.n_paths - 1} ({res.n_paths} paths)")
    print(f"  (k, S_k, M_k)     : {n_triples(n)} valued once each")
    print(f"  oracle optimum    : {res.value} (DP says {rep.optimal_value})")
    print(f"  optimal classes   : {res.n_optimal_classes}, DP label {rep.unique}")
    print(f"  oracle agrees     : {agrees(res, rep)}")
    print()
