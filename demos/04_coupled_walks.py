"""The common-uniform coupling: one noise stream, a whole family of walks.

Each step uses the same uniform U_k for every p (step up iff U_k <= p),
so the walks are ordered pathwise and the drawdown of the better walk
never exceeds the drawdown of the worse one.  The ordering is structural,
holding on every single replication, and the coupled estimates line up
with the exact laws.  Time reversal, the distributional half of the
argument, is an exact identity and is checked exactly.
"""

from fractions import Fraction

from maxstop import WalkParams, simulate, time_reversal_check

ps = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
n, reps = 60, 2000

violations = 0
final = {p: 0 for p in ps}
for cp in simulate(seed=20260808, n=n, ps=ps, replications=reps):
    violations += cp.ordering_violations()
    for p in ps:
        final[p] += int(cp.s[p][:, -1].sum())

print(f"coupled walks: n={n}, {reps} replications, ps={[str(p) for p in ps]}")
print(f"pathwise ordering violations: {violations} (hard invariant: must be 0)")
for p in ps:
    print(f"  p={p}: mean S_n = {final[p]/reps:+.2f}  (drift predicts {float((2*p-1)*n):+.2f})")

print()
print("time reversal: M_n under p has the law of the drawdown Z_n under q, exactly")
print(f"  p=2/3, n=6: {time_reversal_check(WalkParams(Fraction(2, 3), 6))}")
