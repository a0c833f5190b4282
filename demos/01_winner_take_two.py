"""Why convexity matters: the winner-take-two game at horizon 2.

Reward 1 for stopping on one of the two highest values of the walk, 0
otherwise.  This reward is nonincreasing but NOT convex, and neither
bang-bang rule is optimal: stopping at step 1 wins with probability 1
for every p.
"""

from fractions import Fraction

from maxstop import WalkParams, evaluate_policy, policy_tau0, policy_tauN, solve, table_reward

f = table_reward([1, 1, 0])

print("winner-take-two: f = [1, 1, 0], N = 2")
print(f"{'p':>6} {'tau=0':>8} {'tau=2':>8} {'optimum':>8}  optimal decisions at k=1")
for p in (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)):
    w = WalkParams(p, 2)
    v0 = evaluate_policy(w, f, policy_tau0(2))
    v2 = evaluate_policy(w, f, policy_tauN(2))
    rep = solve(w, f)
    dec = dict(enumerate(rep.policy.rows[1]))
    print(f"{str(p):>6} {str(v0):>8} {str(v2):>8} {str(rep.optimal_value):>8}  {dec}")

print()
print("Both degenerate rules lose the quadratic terms 1-p^2 / 1-q^2,")
print("while stopping at k=1 always sits within one step of the final max.")
