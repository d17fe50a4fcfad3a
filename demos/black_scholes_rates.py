"""The rate family: one superpotential pair per interest rate r.

After the log-substitution the pricing generator becomes a Schrodinger
operator whose factorization depends on r through a v-function solving
v' = -(1+r)v - 1.  The script walks a few rates, checks the assembled
drift and potentials, locates the partner potential's pole, and prints
which factor vacua are square integrable.
"""

import numpy as np

from susyq import bs_classification, bs_numeric_flags, differentiate, get_model
from susyq.expr import evaluate_array

for r in (2.0, 1.0, 0.5, -0.5, -1.0, -2.0):
    m = get_model("black-scholes", r=r, v0=1.0)
    pair = m.pair
    x0 = m.extras["x0"]

    pts = np.linspace(-4.0, 4.0, 161)
    if x0 is not None:
        pts = pts[np.abs(pts - x0) > 0.3]
    wa, wb, dwa = evaluate_array([pair.w_a, pair.w_b, differentiate(pair.w_a)], pts)
    drift_gap = np.max(np.abs((wb - wa) - (1.0 - r)))
    v1_gap = np.max(np.abs(wa * wb - dwa - r))

    pole = "none" if x0 is None else f"x0 = {x0:.6f}"
    print(f"r = {r:+.1f}: drift gap {drift_gap:.1e}, V1 gap {v1_gap:.1e}, pole {pole}")

    analytic = bs_classification(r)
    numeric = bs_numeric_flags(m)
    agree = analytic.flags() == numeric.flags()
    print(
        f"  normalizable vacua (phi0_1, phi0_2, psi0_1, psi0_2): "
        f"{analytic.flags()}  numeric agrees: {agree}"
    )

# the r = -1 branch degenerates to a rational partner potential
m = get_model("black-scholes", r=-1.0, v0=1.0)
pts = np.linspace(2.0, 4.0, 9)
[v2] = evaluate_array([m.pair.v2], pts)
print("r = -1 partner potential vs 2/(x-v0)^2 - 1:",
      np.max(np.abs(v2 - (2.0 / (pts - 1.0) ** 2 - 1.0))))
