"""Sell bad stocks now, keep good ones: stopping rules under three drifts.

Values of E[f(M_T - B_tau)] for f = exp(-x), T = 1, estimated by Monte
Carlo.  tau=0 and tau=T use the exact (max, endpoint) sampler; the other
rules run on bridge-max-refined paths so the running maximum carries no
sqrt(dt) bias.  Negative drift: stop at once.  Positive drift: hold to
the end.  Zero drift: stopping at the running maximum ties both.
"""

from maxstop import BmModel, BmRule, McConfig, exp_decay_reward, mc_bm_rule_values

f = exp_decay_reward(1.0)
rules = [
    BmRule("tau0"),
    BmRule("tauT"),
    BmRule("drawdown_threshold", 0.0),  # stop at the running max
    BmRule("drawdown_threshold", 0.5),
    BmRule("time_threshold", 0.5),
]

for lam in (-1.0, 0.0, 1.0):
    model = BmModel(lam=lam, T=1.0, mc=McConfig(steps=500, replications=40_000))
    ests = mc_bm_rule_values(seed=606, model=model, f=f, rules=rules)
    best = max(e.estimate for e in ests)
    print(f"drift lam = {lam:+.0f}")
    for rule, e in zip(rules, ests):
        flag = "  <-- best" if e.estimate == best else ""
        print(f"  {rule.label():26s} {e.estimate:.4f} +- {e.stderr:.4f}{flag}")
    print()
