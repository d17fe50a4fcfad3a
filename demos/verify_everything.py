"""Run every model's verification suite, then each one deliberately broken.

Each suite re-derives what its model claims: factorization identities,
vacuum annihilation, biorthogonality, eigen-residuals, intertwining, and
(where defined) deformation bounds and state-family identities.  The last
block perturbs the second superpotential of every model with a pair to show
the checks actually bite.  The script exits 1 when a suite fails on its own
model or passes on a perturbed one, so it doubles as a verdict gate.
"""

import sys

from susyq import get_model, suite_names, verify_model, verify_pair

wrong = []
for name in suite_names():
    suite = verify_model(name)
    total = sum(1 for _ in suite.checks())
    passed = sum(1 for c in suite.checks() if c.passed)
    print(f"{name}: {passed}/{total}")
    for section, checks in suite.sections.items():
        worst = max((c.residual for c in checks if c.residual is not None),
                    default=0.0)
        print(f"  {section:16s} {sum(c.passed for c in checks):3d}/{len(checks):<3d}"
              f" worst residual {worst:.2e}")
    if not suite.all_pass():
        wrong.append(f"{name} fails")

# user-supplied pairs get the generic core: factorization plus vacua
suite = verify_pair("x + 0.2*tanh(x)", "x")
print("user pair:", "all pass" if suite.all_pass() else "FAILURES")
if not suite.all_pass():
    wrong.append("user pair fails")

# a perturbed second superpotential must break the model's own claims
# (eigenfamilies, intertwining, closed forms), not the factorization
for name in suite_names():
    if get_model(name).pair is None:
        continue
    broken = verify_model(name, perturb_wb="0.05 * x")
    print(f"perturbed {name} all_pass:", broken.all_pass())
    for section, checks in broken.sections.items():
        bad = [c for c in checks if not c.passed]
        if bad:
            print(f"  {section}: {len(bad)} failing, e.g. {bad[0].check!r}")
    if broken.all_pass():
        wrong.append(f"perturbed {name} passes")
    if not all(c.passed for c in broken.sections["factorization"]):
        wrong.append(f"perturbed {name} fails its factorization")

if wrong:
    print("wrong verdicts:", "; ".join(wrong), file=sys.stderr)
    sys.exit(1)
