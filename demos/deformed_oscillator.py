"""Deform the oscillator ladder by a bounded multiplier e^q.

With q bounded (here Re q in [0.1, 1.1]) the maps f -> e^q f and
f -> e^{-conj(q)} f are bounded with bounded inverses, so the images of
the Hermite functions stay Riesz bases.  The deformed pair keeps the
spectrum 2n, the two families stay biorthonormal, and the intertwining
coefficients multiply back to the eigenvalues.
"""

import numpy as np

from susyq import (
    DEFAULT_DEFORMATION_Q,
    Grid,
    apply_A,
    apply_B,
    apply_H1,
    apply_H2,
    build_deformation,
    get_model,
    inner,
    intertwine_check,
    norm,
    relative_residual,
    superalgebra_check,
)

grid = Grid(12.0, 4097)
m = get_model("deformed-harmonic")
print("deformation q(x) =", DEFAULT_DEFORMATION_Q)

d = build_deformation(DEFAULT_DEFORMATION_Q)
print("Re q bounds:", d.m, "..", d.M)

phis = [m.phi1(n, grid) for n in range(9)]
psis = [m.psi1(n, grid) for n in range(9)]

gram = np.array([[inner(p, q) for q in phis] for p in psis])
print("pairing matrix vs identity:", np.max(np.abs(gram - np.eye(9))))
print("norm caps: max ||phi_n|| =", max(norm(f) for f in phis),
      "<= e^M =", np.exp(m.constants["M"]))
print("           max ||psi_n|| =", max(norm(f) for f in psis),
      "<= e^-m =", np.exp(-m.constants["m"]))

for n in (1, 4, 8):
    image = apply_H1(m.pair, phis[n])
    diff = image - 2.0 * n * phis[n]
    print(f"H phi_{n} vs {2 * n} phi_{n}:", relative_residual(diff, image))

# level by level: the doublet (phi_n, phi_{n-1}) at E = 2n, with its images
# A phi_n, H1 phi_n, B phi_{n-1} and H2 phi_{n-1}
checks = []
for n in range(1, 9):
    a, h1 = apply_A(m.pair, phis[n]), apply_H1(m.pair, phis[n])
    b, h2 = apply_B(m.pair, phis[n - 1]), apply_H2(m.pair, phis[n - 1])
    rec = intertwine_check(n, 2.0 * n, phis[n], phis[n - 1], a, b)
    if n < 4:
        print(f"level {rec.n}: alpha*beta = {rec.alpha * rec.beta:.6f}, "
              f"E = {rec.energy.real:.0f}, gap {rec.product_residual:.2e}")
    # the two charges close the matrix superalgebra on the eigen-doublet
    vector, doublet = superalgebra_check(m.pair, n, phis[n], phis[n - 1], a, h1, b, h2,
                                         rec.alpha, rec.beta)
    checks += vector + doublet
print("superalgebra checks:", sum(c.passed for c in checks), "/", len(checks))
