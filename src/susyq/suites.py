"""Model-by-model verification suites.

Each suite aggregates every check that applies to a model into named
sections of CheckResults: the factorization core shared by all pairs,
vacuum annihilation, eigen-residuals, intertwining, and the extras a
particular family brings (biorthogonality, polynomial identities,
classification tables, state-family identities).  The verify command
renders these reports and turns them into exit codes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .deform import DeformationError, deformed_basis_report, deformed_eigencheck
from .expr import differentiate, evaluate, parse, to_source
from .gk import (
    action_identity,
    build_state,
    evolve,
    gk_domain,
    lowering_defect,
    moment_density,
    moment_residuals,
    normalization_K,
    pair_norm,
    resolution_estimate,
    spectrum_from_formula,
)
from .models import (
    bs_classification,
    bs_numeric_flags,
    get_model,
    pb_identities,
)
from .numerics import (Grid, NonConvergenceError, RepresentationError,
                       biorthogonality_defect, norm, relative_residual)
from .reporting import CheckResult
from .susy import (
    apply_H1,
    build_pair,
    factorization_residual,
    intertwine_check,
    potential_identity_residual,
    probe_function,
    superalgebra_check,
    vacua,
)

__all__ = [
    "VerifySuite",
    "verify_model",
    "verify_pair",
    "suite_names",
]


@dataclass(eq=False)
class VerifySuite:
    model: str
    params: dict
    sections: dict
    notes: tuple

    def checks(self):
        for section in self.sections.values():
            yield from section

    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks())

    def payload(self) -> dict:
        return {
            "model": self.model,
            "params": {k: self.params[k] for k in sorted(self.params)},
            "all_pass": self.all_pass(),
            "sections": {
                name: [
                    {
                        "check": c.check,
                        "residual": float(c.residual)
                        if c.residual is not None and math.isfinite(c.residual)
                        else None,
                        "tolerance": float(c.tolerance),
                        "passed": bool(c.passed),
                    }
                    for c in section
                ]
                for name, section in self.sections.items()
            },
            "notes": list(self.notes),
        }


def _core_section(pair, grid):
    probe = probe_function(grid, pair.singular_points)
    # modulate so the probe cannot sit in the kernel of a first-order factor
    # (the bare Gaussian is exactly the oscillator vacuum)
    probe = probe * (1.0 + 0.5 * np.sin(2.0 * grid.x))
    return [
        CheckResult.from_residual(
            "partner potentials differ by the derivative of the superpotential sum",
            potential_identity_residual(pair, grid),
            1e-5,
        ),
        CheckResult.from_residual(
            "B after A reproduces the first Hamiltonian",
            factorization_residual(pair, probe, sector=1),
            1e-5,
        ),
        CheckResult.from_residual(
            "A after B reproduces the second Hamiltonian",
            factorization_residual(pair, probe, sector=2),
            1e-5,
        ),
    ]


def _vacua_section(v):
    return [
        CheckResult.from_residual(
            f"{rec.label} is annihilated by its factor", rec.annihilation_residual, 1e-6,
        )
        for rec in (v.phi0_1, v.phi0_2, v.psi0_1, v.psi0_2)
    ]


def _eigen_section(pair, levels, tol=1e-5):
    checks = []
    for n, (energy, fn) in enumerate(levels):
        image = apply_H1(pair, fn)
        checks.append(CheckResult.from_residual(
            f"level {n} eigen-residual",
            relative_residual(image - energy * fn, fn,
                              exclude=list(pair.singular_points)),
            tol,
        ))
    return checks


def _intertwine_section(pair, pairs1, pairs2, tol=1e-5):
    recs = intertwine_check(pair, pairs1, pairs2, tol=tol)
    checks = []
    for rec in recs:
        if rec.alpha is None:
            checks.append(CheckResult.from_residual(
                f"level {rec.n} zero-mode is annihilated", rec.residual_a, tol,
            ))
            continue
        worst = max(rec.residual_a, rec.residual_b,
                    rec.product_residual if rec.product_residual is not None else 0.0)
        checks.append(CheckResult.from_residual(
            f"level {rec.n} intertwining and coefficient product",
            worst,
            tol * max(1.0, abs(rec.energy)),
        ))
    return checks, recs


def _levels(m, grid, count):
    pairs1 = [(m.energy(n), m.phi1(n, grid)) for n in range(count)]
    pairs2 = []
    for n in range(count):
        partner = m.phi2(n, grid)
        pairs2.append(None if partner is None else (m.energy(n), partner))
    return pairs1, pairs2


def _suite_harmonic(grid, params):
    m = get_model("harmonic")
    pairs1, pairs2 = _levels(m, grid, 9)
    inter_checks, _ = _intertwine_section(m.pair, pairs1, pairs2)
    return VerifySuite(
        model="harmonic",
        params={},
        sections={
            "factorization": _core_section(m.pair, grid),
            "vacua": _vacua_section(m.vacua(grid)),
            "eigenfunctions": _eigen_section(m.pair, pairs1),
            "intertwining": inter_checks,
        },
        notes=tuple(m.notes),
    )


def _suite_pseudo_bosonic(grid, params, perturbed=None):
    """A ``perturbed`` pair replaces the model's own in every operator and
    vacuum check; the eigenfamilies stay the model's."""
    k = float(params.get("k", -1.0))
    m = get_model("pseudo-bosonic", k=k)
    pair = perturbed or m.pair

    n_pairing = 11
    phis = [m.phi1(n, grid) for n in range(n_pairing)]
    psis = [m.psi1(n, grid) for n in range(n_pairing)]
    bio = [CheckResult.from_residual(
        "pairing matrix is the identity up to level 10",
        biorthogonality_defect(phis, psis), 1e-7,
    )]

    pairs1, pairs2 = _levels(m, grid, 9)
    inter_checks, _ = _intertwine_section(pair, pairs1, pairs2)
    identity_report = pb_identities(k=k, n_max=12)
    v = m.vacua(grid) if perturbed is None else vacua(perturbed, grid)
    return VerifySuite(
        model="pseudo-bosonic",
        params={"k": k},
        sections={
            "factorization": _core_section(pair, grid),
            "vacua": _vacua_section(v),
            "biorthogonality": bio,
            "eigenfunctions": _eigen_section(pair, pairs1),
            "intertwining": inter_checks,
            "identities": list(identity_report.checks),
        },
        notes=tuple(m.notes) + tuple(identity_report.notes),
    )


def _suite_swanson(grid, params):
    theta = float(params.get("theta", math.pi / 8))
    m = get_model("swanson", theta=theta)

    n_pairing = 7
    phis = [m.phi1(n, grid) for n in range(n_pairing)]
    psis = [m.psi1(n, grid) for n in range(n_pairing)]
    bio = [CheckResult.from_residual(
        "pairing matrix is the identity up to level 6",
        biorthogonality_defect(psis, phis), 1e-6,
    )]

    got = np.conjugate(m.constants["n1"]) * m.constants["n2"]
    normalization = [CheckResult.from_residual(
        "normalization constants multiply to the rotated Gaussian weight",
        abs(got - m.constants["pairing_target"]),
        1e-12,
    )]

    apply_h = m.extras["apply_h"]
    apply_h_dual = m.extras["apply_h_dual"]
    ham = []
    for n in range(5):
        image = apply_h(phis[n])
        ham.append(CheckResult.from_residual(
            f"level {n} rotated-oscillator residual",
            relative_residual(image - m.energy(n) * phis[n], phis[n]),
            1e-4,
        ))
        image = apply_h_dual(psis[n])
        ham.append(CheckResult.from_residual(
            f"level {n} adjoint-family residual",
            relative_residual(image - np.conjugate(m.energy(n)) * psis[n], psis[n]),
            1e-4,
        ))

    return VerifySuite(
        model="swanson",
        params={"theta": theta},
        sections={
            "biorthogonality": bio,
            "normalization": normalization,
            "hamiltonian": ham,
        },
        notes=tuple(m.notes) + (
            "no factorized pair is registered for this family; the checks act "
            "on the rotated oscillator directly",
        ),
    )


def _suite_black_scholes(grid, params):
    r = float(params.get("r", 1.0))
    v0 = float(params.get("v0", 1.0))
    m = get_model("black-scholes", r=r, v0=v0)
    x0 = m.extras["x0"]

    points = [x for x in np.linspace(-6.0, 6.0, 61)
              if x0 is None or abs(x - x0) > 0.25]
    # the pair holds the reduced forms; re-derive the raw assemblies so the
    # checks compare two independent routes instead of an expression to itself
    w_a, w_b = m.pair.w_a, m.pair.w_b
    q1_raw = w_b - w_a
    v1_raw = w_a * w_b - differentiate(w_a)
    v2_raw = w_a * w_b + differentiate(w_b)
    closed = m.extras["v2_closed_form"]
    assembly = [
        CheckResult.from_residual(
            "reduced drift is the exact constant",
            max(abs(evaluate(m.pair.q1, x) - (1.0 - r)) for x in points),
            1e-300,
        ),
        CheckResult.from_residual(
            "raw superpotential difference collapses to the drift",
            max(abs(evaluate(q1_raw, x) - (1.0 - r)) for x in points),
            1e-9,
        ),
        CheckResult.from_residual(
            "raw first potential collapses to the flat rate",
            max(abs(evaluate(v1_raw, x) - r) for x in points) / max(1.0, abs(r)),
            1e-9,
        ),
        CheckResult.from_residual(
            "raw partner potential matches the closed form",
            max(abs(evaluate(v2_raw, x) - evaluate(closed, x))
                / max(1.0, abs(evaluate(closed, x))) for x in points),
            1e-9,
        ),
    ]

    analytic = bs_classification(r)
    numeric = bs_numeric_flags(m, grid)
    agree = analytic.flags() == numeric.flags()
    classification = [CheckResult(
        "asymptotic-exponent classifier agrees with the case table",
        0.0 if agree else 1.0,
        0.5,
        agree,
    )]

    return VerifySuite(
        model="black-scholes",
        params={"r": r, "v0": v0},
        sections={
            "factorization": _core_section(m.pair, grid),
            "vacua": _vacua_section(m.vacua(grid)),
            "assembly": assembly,
            "classification": classification,
        },
        notes=tuple(m.notes),
    )


def _suite_deformed_harmonic(grid, params):
    q = params.get("q")
    m = get_model("deformed-harmonic", **({"q": q} if q else {}))
    d = m.extras["deformation"]
    base = m.extras["base_eigenfunction"]

    n_basis = 26
    phis = [m.phi1(n, grid) for n in range(n_basis)]
    psis = [m.psi1(n, grid) for n in range(n_basis)]

    basis_checks = deformed_basis_report(d, phis[:9], psis[:9])
    eig_checks, _ = deformed_eigencheck(
        d, [(m.energy(n), base(n, grid)) for n in range(9)], grid=grid,
    )

    pairs1 = [(m.energy(n), phis[n]) for n in range(11)]
    pairs2 = [None] + [(m.energy(n), phis[n - 1]) for n in range(1, 11)]
    inter_checks, inter_recs = _intertwine_section(m.pair, pairs1, pairs2)

    doublets = [
        (rec.n, rec.energy, phis[rec.n], phis[rec.n - 1], rec.alpha, rec.beta)
        for rec in inter_recs if rec.alpha is not None
    ]
    vectors = [(phis[n], phis[n - 1]) for n in range(1, 11)]
    algebra = list(superalgebra_check(m.pair, vectors, doublets=doublets, tol=1e-5))

    # state family over the model's own ladder
    s = spectrum_from_formula(m.energy, n_basis)
    dom = gk_domain(s, [norm(b) for b in phis], [norm(b) for b in psis])
    states = [CheckResult.from_residual(
        "normalization matches the closed form for twice-spaced levels",
        max(abs(normalization_K(s, j) - math.exp(-j / 4.0))
            for j in np.linspace(0.0, 6.0, 25)),
        1e-10,
    )]
    phi = build_state(phis, s, "phi", j=1.0, gamma=0.4, tol=1e-8, domain=dom)
    psi = build_state(psis, s, "psi", j=1.0, gamma=0.4, tol=1e-8, domain=dom)
    both = pair_norm(phi, psi, route="both")
    states.append(CheckResult.from_residual(
        "state pairing is one (coefficient route)",
        abs(both["coefficients"] - 1.0), 1e-12,
    ))
    states.append(CheckResult.from_residual(
        "state pairing is one (grid route)", abs(both["grid"] - 1.0), 1e-7,
    ))
    states.append(CheckResult.from_residual(
        "energy pairing returns the action label",
        abs(action_identity(phi, psi) - phi.j), 1e-8,
    ))
    two_step = evolve(evolve(phi, 0.3), 0.4)
    one_step = evolve(phi, 0.7)
    states.append(CheckResult.from_residual(
        "evolution composes",
        float(np.max(np.abs(two_step.coefficients - one_step.coefficients))),
        1e-12,
    ))
    states.append(CheckResult.from_residual(
        "states are lowering-operator eigenvectors", lowering_defect(phi), 1e-8,
    ))

    md = moment_density(s)
    states.extend(moment_residuals(s, md, n_max=10))

    rep = resolution_estimate(phis[0], phis[0], phis[:12], psis[:12], s, md,
                              n_trunc=12)
    errs = [p.abs_error for p in rep.gamma_trace]
    worsened = sum(1 for a, b in zip(errs, errs[1:]) if b > a)
    states.append(CheckResult(
        "identity-resolution error improves along the angle-window trace",
        float(worsened), 2.0, worsened <= 1,
    ))
    states.append(CheckResult.from_residual(
        "identity-resolution error at the widest window",
        rep.gamma_trace[-1].rel_error
        if rep.gamma_trace[-1].rel_error is not None else math.inf,
        0.05,
    ))

    return VerifySuite(
        model="deformed-harmonic",
        params={"q": m.params["q"]},
        sections={
            "factorization": _core_section(m.pair, grid),
            "vacua": _vacua_section(m.vacua(grid)),
            "deformation": list(basis_checks),
            "eigenfunctions": list(eig_checks),
            "intertwining": inter_checks,
            "superalgebra": algebra,
            "states": states,
        },
        notes=tuple(m.notes),
    )


_SUITES = {
    "harmonic": _suite_harmonic,
    "pseudo-bosonic": _suite_pseudo_bosonic,
    "swanson": _suite_swanson,
    "black-scholes": _suite_black_scholes,
    "deformed-harmonic": _suite_deformed_harmonic,
}


def suite_names():
    return sorted(_SUITES)


def verify_model(name: str, grid: Grid | None = None, perturb_wb: str | None = None,
                 **params) -> VerifySuite:
    """Run the named model's suite; a wB perturbation makes it a negative test.

    The perturbation is an expression added to the model's second
    superpotential before the checks run.  The eigenfamilies and pairing
    targets stay those of the unperturbed model, which is the point: the
    suite must notice that the operators no longer belong to them.

    A deformation, convergence or representation failure while the suite
    builds is reported as one failing check in a ``suite`` section, with
    the error in the notes.
    """
    if name not in _SUITES:
        raise KeyError(f"no verification suite for {name!r}; have {suite_names()}")
    grid = grid or Grid()
    perturbed = None
    if perturb_wb is not None:
        if name != "pseudo-bosonic":
            raise KeyError(
                "superpotential perturbation is wired into the pseudo-bosonic suite"
            )
        m = get_model(name, **params)
        wb_src = f"({to_source(m.pair.w_b)}) + ({perturb_wb})"
        perturbed = build_pair(m.pair.w_a, parse(wb_src))
    try:
        if perturbed is None:
            suite = _SUITES[name](grid, params)
        else:
            suite = _suite_pseudo_bosonic(grid, params, perturbed)
    except (DeformationError, NonConvergenceError, RepresentationError) as e:
        suite = VerifySuite(
            model=name,
            params=params,
            sections={"suite": [CheckResult.from_residual(
                "suite runs to a verdict on this grid", math.inf, 1.0)]},
            notes=(f"{type(e).__name__}: {e}",),
        )
    if perturb_wb is not None:
        suite.notes = suite.notes + (
            f"second superpotential perturbed by {perturb_wb}",
        )
    return suite


def verify_pair(wa_src: str, wb_src: str, bindings: dict | None = None,
                grid: Grid | None = None) -> VerifySuite:
    """Factorization core and vacuum checks for a user-supplied pair."""
    grid = grid or Grid()
    pair = build_pair(parse(wa_src, bindings), parse(wb_src, bindings))
    return VerifySuite(
        model="user-pair",
        params={"wA": wa_src, "wB": wb_src,
                **{k: float(v) for k, v in (bindings or {}).items()}},
        sections={
            "factorization": _core_section(pair, grid),
            "vacua": _vacua_section(vacua(pair, grid)),
        },
        notes=(),
    )
