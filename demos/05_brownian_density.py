"""The joint density of (max, endpoint) for drifted Brownian motion.

Checks run by this script: the law of the maximum that the quadrature
reads has mass 1, the reflection
identity h(s,b;lam) = h(s-b,-b;-lam) holds pointwise, positive drift puts
more mass on endpoints above zero, and the key inequality behind the
continuous bang-bang theorem carries a strict margin whenever the start
x is positive.
"""

import numpy as np

from maxstop import (
    brownian,
    check_bm_key_inequality,
    density_reflection_check,
    exp_decay_reward,
    joint_density,
)

print("mass of the law of M_t (1-D Gauss-Legendre quadrature):")
for t in (1.0, 2.0):
    for lam in (-1.0, 0.0, 1.0):
        res = brownian._expect_floor_max(np.ones_like, (), t, lam, 0.0, 0.0)
        print(f"  t={t} lam={lam:+.0f}: mass = {res.value:.9f} (error estimate {res.error:.1e})")

rng = np.random.Generator(np.random.PCG64(5))
b = rng.uniform(-3, 3, 10_000)
s = np.maximum(b, 0) + rng.uniform(0, 3, 10_000)
print(f"\nreflection identity, max relative discrepancy on 10^4 points: "
      f"{density_reflection_check(1.0, 0.7, (s, b)):.2e}")

bg = np.linspace(0.05, 2.0, 5)
print("\ndensity ratio h(s,b;+1)/h(s,b;-1) = exp(2b) for endpoints b > 0:")
for bb in bg:
    ratio = joint_density(bb + 0.5, bb, 1.0, 1.0) / joint_density(bb + 0.5, bb, 1.0, -1.0)
    print(f"  b={bb:.2f}: ratio={ratio:9.4f}  exp(2b)={np.exp(2*bb):9.4f}")

f = exp_decay_reward(1.0)
print("\nkey inequality E[f((x v M)-B)] >= E[f(x v (M-B))], f=exp(-x), t=1:")
for lam in (0.0, 0.5, 1.0):
    for x in (0.0, 0.5, 1.0):
        rep = check_bm_key_inequality(1.0, x, lam, f)
        print(f"  lam={lam:3.1f} x={x:3.1f}: margin={rep.strict_margin:+.5f} "
              f"(bound {rep.quad_error_bound:.1e}) -> {rep.verdict}")
