"""Model-by-model verification suites.

One runner, :func:`verify_model`, builds every suite from the model record.
A record with a superpotential pair gets the factorization core and the
vacuum annihilation checks; a per-model function then adds the model's own
sections (eigen-residuals, intertwining, biorthogonality, polynomial
identities, classification tables, state-family identities) and notes.
Each suite builds each of the record's families once and hands the same
lists to every section; the second sector is read as the first one level
down.  The ladder suites read one level walk, ``_ladder_walk``: one stencil
pass per level carrier forms the images that the level's checks
(``intertwine_check``, ``superalgebra_check``, ``deformed_eigencheck``) read
and then drop; the deformed-harmonic suite feeds the levels to
``gk.state_pair``, the step of the ``gk`` command, holding its paired duals as
real Hermite factors.  A user pair runs the same runner with no sections of
its own.  The verify command turns the reports into exit codes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .deform import DeformationError, deformed_basis_report, deformed_eigencheck
from .expr import differentiate, evaluate, parse, to_source
from .gk import (
    action_identity,
    evolve,
    lowering_defect,
    moment_density,
    moment_residuals,
    normalization_K,
    pair_norm,
    spectrum_from_formula,
    state_pair,
)
from .models import (
    ModelError,
    ModelRecord,
    bs_classification,
    bs_numeric_flags,
    get_model,
    pb_identities,
)
from .numerics import (Grid, GridFunction, NonConvergenceError, RepresentationError,
                       biorthogonality_defect, inner, pairing_defect, relative_residual, sample)
from .reporting import CheckResult
from .susy import (
    apply_ops,
    build_pair,
    factorization_residuals,
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


def _pair_sections(m, pair, grid):
    """Factorization core and vacuum annihilation of ``pair``, with the
    record's own vacua when it is the record's pair; also the in-L2 flags of
    those vacua in ``records()`` order, or None for another pair."""
    own = pair is m.pair
    v = m.vacua(grid) if own else vacua(pair, grid)
    probe = probe_function(grid, pair.singular_points)
    # modulate so the probe cannot sit in the kernel of a first-order factor
    # (the bare Gaussian is exactly the oscillator vacuum)
    probe = probe * (1.0 + 0.5 * np.sin(2.0 * grid.x))
    core = [
        ("partner potentials differ by the derivative of the superpotential sum",
         potential_identity_residual(pair, grid)),
        *zip(("B after A reproduces the first Hamiltonian",
              "A after B reproduces the second Hamiltonian"), factorization_residuals(pair, probe)),
    ]
    return {
        "factorization": [CheckResult.from_residual(c, r, 1e-5) for c, r in core],
        "vacua": [CheckResult.from_residual(f"{rec.label} is annihilated by its factor",
                                            rec.annihilation_residual, 1e-6)
                  for rec in v.records()],
    }, (tuple(rec.in_l2 for rec in v.records()) if own else None)


def _intertwine_result(rec):
    """The intertwining check of one level's record."""
    if rec.alpha is None:
        return CheckResult.from_residual(f"level {rec.n} zero-mode is annihilated",
                                         rec.residual_a, 1e-5)
    worst = max(rec.residual_a, rec.residual_b, rec.product_residual or 0.0)
    return CheckResult.from_residual(f"level {rec.n} intertwining and coefficient product",
                                     worst, 1e-5 * max(1.0, abs(rec.energy)))


def _ladder_walk(pair, energy, level, n_levels, h2=False):
    """Levels 0..n_levels-1 of sector 1, ``level(n)`` giving level n, walked
    once; sector 2 is the same family one level down.  One stencil pass per
    carrier forms A, H1 and, below the top level, B (and H2 with ``h2``); a
    scaled level takes H1 on its carrier and the rest on its materialized
    values.  Yields one namespace, updated in place so that a level's images
    are dropped before the next pass: ``n``, ``phi``, its images ``a`` and
    ``h1``, its intertwining record ``rec``, and its partner ``down`` (the
    level below, materialized) with the images ``b_down`` and ``h2_down``;
    the reader may drop ``a``, ``b_down`` and ``h2_down`` once it has read them."""
    lv = SimpleNamespace(down=None, b_down=None, h2_down=None)
    for n in range(n_levels):
        lv.n, lv.phi, lv.a, lv.h1 = n, level(n), None, None
        flat = lv.phi.materialize()
        ops = ["A"] if n == n_levels - 1 else ["A", "B", "H2"] if h2 else ["A", "B"]
        if flat is lv.phi:
            lv.h1, lv.a, *up = apply_ops(pair, flat, ["H1"] + ops)
        else:  # H1 on the scaled carrier, the rest on its values
            lv.h1 = apply_ops(pair, lv.phi, ["H1"])[0]
            lv.a, *up = apply_ops(pair, flat, ops)
        lv.rec = intertwine_check(n, energy(n), flat, lv.down, lv.a, lv.b_down,
                                  pair.singular_points)
        yield lv
        lv.down, lv.b_down, lv.h2_down = flat, *(up + [None, None])[:2]


def _ladder_sections(m, pair, level):
    """Eigen-residuals and intertwining over the model's first nine levels."""
    eigen, inter = [], []
    for lv in _ladder_walk(pair, m.energy, level, 9):
        eigen.append(CheckResult.from_residual(
            f"level {lv.n} eigen-residual",
            relative_residual((lv.h1, m.energy(lv.n), lv.phi), lv.phi,
                              exclude=list(pair.singular_points)),
            1e-5,
        ))
        inter.append(_intertwine_result(lv.rec))
    return {"eigenfunctions": eigen, "intertwining": inter}


# Each model's own sections: (record, pair, grid) -> (sections, notes).  The
# pair is the record's, or its perturbed copy; the eigenfamilies, pairing
# targets and closed forms always come from the record.

def _harmonic_sections(m, pair, grid, own_in_l2):
    return _ladder_sections(m, pair, lambda n: m.phi1(n, grid)), ()


def _pseudo_bosonic_sections(m, pair, grid, own_in_l2):
    n_pairing = 11
    phis = [m.phi1(n, grid) for n in range(n_pairing)]
    # the duals are read once, one at a time, by the pairing matrix
    bio = [CheckResult.from_residual(
        "pairing matrix is the identity up to level 10",
        biorthogonality_defect(phis, (m.psi1(n, grid) for n in range(n_pairing))), 1e-7,
    )]
    identity_report = pb_identities(k=m.params["k"], n_max=12)
    return {
        "biorthogonality": bio,
        **_ladder_sections(m, pair, phis.__getitem__),
        "identities": list(identity_report.checks),
    }, tuple(identity_report.notes)


def _swanson_sections(m, pair, grid, own_in_l2):
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
        ham.append(CheckResult.from_residual(
            f"level {n} rotated-oscillator residual",
            relative_residual((apply_h(phis[n]), m.energy(n), phis[n]), phis[n]),
            1e-4,
        ))
        ham.append(CheckResult.from_residual(
            f"level {n} adjoint-family residual",
            relative_residual((apply_h_dual(psis[n]), np.conjugate(m.energy(n)), psis[n]),
                              psis[n]),
            1e-4,
        ))

    return {
        "biorthogonality": bio,
        "normalization": normalization,
        "hamiltonian": ham,
    }, ("no factorized pair is registered for this family; the checks act "
        "on the rotated oscillator directly",)


def _black_scholes_sections(m, pair, grid, own_in_l2):
    r = m.params["r"]
    x0 = m.extras["x0"]

    points = [x for x in np.linspace(-6.0, 6.0, 61)
              if x0 is None or abs(x - x0) > 0.25]
    # the pair holds the reduced forms; re-derive the raw assemblies so the
    # checks compare two independent routes instead of an expression to itself
    w_a, w_b = pair.w_a, pair.w_b
    q1_raw = w_b - w_a
    v1_raw = w_a * w_b - differentiate(w_a)
    v2_raw = w_a * w_b + differentiate(w_b)
    closed = m.extras["v2_closed_form"]
    assembly = [
        CheckResult.from_residual(
            "reduced drift is the exact constant",
            max(abs(evaluate(pair.q1, x) - (1.0 - r)) for x in points),
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
    # the record's own vacua, also when a perturbed pair drives the other checks
    numeric = own_in_l2 if own_in_l2 is not None else bs_numeric_flags(m, grid).flags()
    agree = analytic.flags() == numeric
    classification = [CheckResult("asymptotic-exponent classifier agrees with the case table",
                                  0.0 if agree else 1.0, 0.5, agree)]

    return {"assembly": assembly, "classification": classification}, ()


def _deformed_harmonic_sections(m, pair, grid, own_in_l2):
    """Levels 0-25 of each family read once by ``state_pair``, phi first.
    Each of phi levels 0-10 comes from the ladder walk and, once the pair
    step has read it, runs its intertwining and superalgebra checks, drops
    the images only they read, then runs its pairing column and
    eigen-residuals.  Only duals 0-8, paired with every level, are held, as
    their real factors e_0..e_8, formed one at a time as ``psi1`` forms them.
    Sections are assembled in report order; each residual is a maximum over
    levels, exact in any order."""
    d = m.extras["deformation"]
    n_basis, n_eigen, n_ops, n_res = 26, 9, 11, 12
    s = spectrum_from_formula(m.energy, n_basis)
    base = [m.extras["base_eigenfunction"](n, grid) for n in range(n_eigen)]
    inv_dual = d.inverse_dual_values(grid)

    def duals(*levels):  # psi_n as psi1 forms them, one at a time into one buffer
        out = np.empty(grid.n_points, np.complex128)
        return (GridFunction(grid, np.multiply(inv_dual, base[a].values, out=out)) for a in levels)

    w = sample(d.w, grid).values
    pairing, worst, eigen, inter, algebra = 0.0, [0.0] * 4, [], [], []

    def phi_levels():
        nonlocal pairing, eigen
        for lv in _ladder_walk(pair, m.energy, lambda n: m.phi1(n, grid), n_ops, h2=True):
            n, phi = lv.n, lv.phi
            yield phi
            inter.append(_intertwine_result(lv.rec))
            if n > 0:
                algebra.append(superalgebra_check(pair, n, phi, lv.down, lv.a, lv.h1, lv.b_down,
                                                  lv.h2_down, lv.rec.alpha, lv.rec.beta))
            lv.a = lv.b_down = lv.h2_down = None
            if n < n_eigen:
                pairing = max(pairing, pairing_defect(duals(*range(n_eigen)), n, phi))
                eigen = deformed_eigencheck(worst, d, pair, w, m.energy(n), phi, lv.h1,
                                            next(duals(n)), base[n] if n else None)
        yield from (m.phi1(n, grid) for n in range(n_ops, n_basis))

    phi, psi, _, phi_norms, psi_norms, rep = state_pair(
        s, phi_levels(), (next(duals(n)) if n < n_eigen else m.psi1(n, grid)
                          for n in range(n_basis)), 1.0, 0.4, 1e-8, n_res)
    two_step, one_step = evolve(evolve(phi, 0.3), 0.4), evolve(phi, 0.7)
    errs = [p.abs_error for p in rep.gamma_trace]
    worsened = sum(1 for a, b in zip(errs, errs[1:]) if b > a)
    widest = rep.gamma_trace[-1].rel_error
    states = [
        CheckResult.from_residual(
            "normalization matches the closed form for twice-spaced levels",
            max(abs(normalization_K(s, j) - math.exp(-j / 4.0)) for j in np.linspace(0.0, 6.0, 25)),
            1e-10),
        CheckResult.from_residual("state pairing is one (coefficient route)",
                                  abs(pair_norm(phi, psi) - 1.0), 1e-12),
        CheckResult.from_residual("state pairing is one (grid route)",
                                  abs(inner(phi.function, psi.function) - 1.0), 1e-7),
        CheckResult.from_residual("energy pairing returns the action label",
                                  abs(action_identity(phi, psi) - phi.j), 1e-8),
        CheckResult.from_residual(
            "evolution composes",
            float(np.max(np.abs(two_step.coefficients - one_step.coefficients))), 1e-12),
        CheckResult.from_residual("states are lowering-operator eigenvectors",
                                  lowering_defect(phi), 1e-8),
        *moment_residuals(s, moment_density(s)),
        CheckResult("identity-resolution error improves along the angle-window trace",
                    float(worsened), 2.0, worsened <= 1),
        CheckResult.from_residual("identity-resolution error at the widest window",
                                  widest if widest is not None else math.inf, 0.05),
    ]

    return {
        "deformation": deformed_basis_report(d, pairing, phi_norms[:n_eigen], psi_norms[:n_eigen]),
        "eigenfunctions": eigen,
        "intertwining": inter,
        # every level's vector checks, then every level's doublet checks
        "superalgebra": [c for part in zip(*algebra) for level in part for c in level],
        "states": states,
    }, ()


_MODEL_SECTIONS = {
    "harmonic": _harmonic_sections,
    "pseudo-bosonic": _pseudo_bosonic_sections,
    "swanson": _swanson_sections,
    "black-scholes": _black_scholes_sections,
    "deformed-harmonic": _deformed_harmonic_sections,
}


def suite_names():
    return sorted(_MODEL_SECTIONS)


def _suite(m: ModelRecord, pair, grid: Grid) -> VerifySuite:
    """The record's suite, its operators taken from ``pair``."""
    sections, own_in_l2 = ({}, None) if pair is None else _pair_sections(m, pair, grid)
    own, notes = _MODEL_SECTIONS.get(m.name, lambda *_: ({}, ()))(m, pair, grid, own_in_l2)
    return VerifySuite(model=m.name, params=m.params, sections={**sections, **own},
                       notes=tuple(m.notes) + notes)


def verify_model(name: str, grid: Grid | None = None, perturb_wb: str | None = None,
                 **params) -> VerifySuite:
    """Run the named model's suite; a wB perturbation makes it a negative test.

    Unknown model names and parameters raise :class:`ModelError`, as
    :func:`get_model` does.  The perturbation is an expression added to the
    second superpotential of any model with a pair (a model without one
    raises :class:`ModelError`); the perturbed pair keeps the record's
    singular points.  It replaces the model's pair in every operator and
    vacuum check, while the eigenfamilies, pairing targets and closed forms
    stay those of the unperturbed model, which is the point: the suite must
    notice that the operators no longer belong to them.

    A deformation, convergence or representation failure while the suite
    builds is reported as one failing check in a ``suite`` section, with
    the error in the notes and the parameters as given.
    """
    grid = grid or Grid()
    try:
        m = get_model(name, **params)
        pair = m.pair
        if perturb_wb is not None:
            if pair is None:
                raise ModelError(f"model {name!r} has no superpotential pair to perturb")
            w_b = parse(f"({to_source(pair.w_b)}) + ({perturb_wb})")
            pair = build_pair(pair.w_a, w_b, singular_points=pair.singular_points)
        suite = _suite(m, pair, grid)
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
    # parse first: a binding that is not a number is a ParseError, not a float() failure
    pair = build_pair(parse(wa_src, bindings), parse(wb_src, bindings))
    # a complex binding [re, im] is reported as its two floats
    params = {"wA": wa_src, "wB": wb_src,
              **{k: [float(c) for c in v] if isinstance(v, (list, tuple)) else float(v)
                 for k, v in (bindings or {}).items()}}
    return _suite(ModelRecord(name="user-pair", params=params, pair=pair, energy=None),
                  pair, grid or Grid())
