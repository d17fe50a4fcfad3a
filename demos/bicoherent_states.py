"""Action-labelled state pairs over a biorthogonal eigenbasis.

Each state is K(J) sum_n J^{n/2} e^{-i E_n gamma} / sqrt(rho_n) phi_n with
rho_n the eigenvalue products; the partner family carries the conjugated
phases and the same K.  The pair norm is one by construction, evolution
shifts gamma, the lowering operator pulls out sqrt(J), and the spectrum's
moment density gives a resolution of the identity to verify in the limit.
"""

import math

import numpy as np

from susyq import (
    Grid,
    action_identity,
    evolve,
    get_model,
    inner,
    lowering_defect,
    moment_density,
    moment_residuals,
    normalization_K,
    pair_norm,
    resolution_estimate,
    spectrum_from_formula,
    state_pair,
)

grid = Grid(12.0, 4097)
m = get_model("deformed-harmonic")
s = spectrum_from_formula(m.energy, 26)
print("spectrum 0, 2, 4, ...; radius:", s.radius)

# K has a closed form for this ladder: products rho_n = 2^n n!
for j in (0.5, 1.0, 4.0):
    print(f"K({j}) = {normalization_K(s, j):.12f}"
          f"  (e^(-J/4) = {math.exp(-j / 4.0):.12f})")

phis = [m.phi1(n, grid) for n in range(26)]
psis = [m.psi1(n, grid) for n in range(26)]
# both states at (J, gamma) = (1, 0.4), each family read once, with a series
# tail under 1e-10; the domain is fitted to both families' norms
phi, psi, domain, _, _, _ = state_pair(s, phis, psis, 1.0, 0.4, 1e-10, 2)
print("terms kept:", phi.n_terms, " tail estimate:", phi.tail)

print("pair norm (coefficients):", pair_norm(phi, psi))
print("pair norm (grid):        ", inner(phi.function, psi.function))
print("action identity <psi, H phi> =", action_identity(phi, psi))

later = evolve(phi, 0.6)
again = evolve(evolve(phi, 0.25), 0.35)
print("evolve composition gap:",
      float(np.max(np.abs(later.coefficients - again.coefficients))))
print("lowering defect |a(gamma) c - sqrt(J) c|:", lowering_defect(phi))

md = moment_density(s)
print("moment density:", md.label)
worst = max(c.residual for c in moment_residuals(s, md))
print("moment residuals (n <= 10), worst:", worst)

# <phi_0, phi_0> from the overlaps <phi_0, phi_n> and <psi_n, phi_0>, n < 12
f = phis[0]
rep = resolution_estimate(np.array([inner(f, b) for b in phis[:12]]),
                          np.array([inner(b, f) for b in psis[:12]]), inner(f, f), s, md)
print("resolution error along the angle-window trace:")
for p in rep.gamma_trace:
    print(f"  Gamma = {p.gamma_limit:5.0f}: relative error {p.rel_error:.4f}")
