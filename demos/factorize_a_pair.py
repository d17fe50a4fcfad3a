"""Build a factorized pair from two superpotentials and check its algebra.

Any two expressions wA, wB give first-order factors A = d/dx + wA and
B = -d/dx + wB, hence H1 = BA and H2 = AB.  The script assembles a pair,
confirms the closed-form potentials against the composed operators, and
classifies the four factor vacua.
"""

import numpy as np

from susyq import (
    Grid,
    apply_A,
    apply_B,
    apply_H1,
    build_pair,
    parse,
    relative_residual,
    vacua,
)
from susyq.susy import potential_identity_residual, probe_function

grid = Grid(12.0, 4097)

w_a = parse("x + 0.4*tanh(x)")
w_b = parse("x - 0.3*sin(2*x)")
pair = build_pair(w_a, w_b)

s = pair.samples(grid)
print("drift q1 at x=0:", s["q1"][grid.n_points // 2])
print("V1 range:", s["v1"].real.min(), "..", s["v1"].real.max())
print("V2 - V1 = wA' + wB' residual:", potential_identity_residual(pair, grid))

# composition route: push a probe through B(A(.)) and compare with H1 directly
probe = probe_function(grid)
probe = probe * (1.0 + 0.5 * np.sin(2.0 * grid.x))
composed = apply_B(pair, apply_A(pair, probe))
direct = apply_H1(pair, probe)
diff = composed - direct
print("B(A f) vs H1 f residual:", relative_residual(diff, direct))

# the four vacua: phi from the kernels of A and B, psi from the adjoints
v = vacua(pair, grid)
for rec in v.records():
    row = rec.summary()
    print(
        f"{row['label']}: exponents ({row['left_exponent']:+.2f}, "
        f"{row['right_exponent']:+.2f}), L2={row['in_l2']}, "
        f"annihilation residual {row['annihilation_residual']:.2e}"
    )
