"""Quadruple assembly, operator application, vacua, and superalgebra checks.

Oracles: closed-form potentials evaluated by hand, numpy's Hermite basis for
the ordinary harmonic factorization, and adjoint pairing moved across the
inner product by quadrature.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite import hermval

from susyq.expr import EvalDomainError, ExprError, Var, differentiate, evaluate, parse
from susyq.numerics import (Grid, GridFunction, PoleOnGridError, default_grid, inner,
                             interior_norm, norm, sample)
from susyq.susy import (
    SuperpotentialPair,
    apply_A,
    apply_A_dag,
    apply_B,
    apply_B_dag,
    apply_H1,
    apply_H1_dag,
    apply_H2,
    apply_ops,
    build_pair,
    factorization_residuals,
    intertwine_check,
    potential_identity_residual,
    superalgebra_check,
    vacua,
)


def harmonic_pair():
    return build_pair(parse("x"), parse("x"))


def exp_pair(k=-1.0):
    b = {"k": k}
    return build_pair(parse("k + exp(x)", b), parse("x - exp(x)"))


def hermite_function(n, x):
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    weight = np.exp(-(x**2) / 2)
    return hermval(x, coeffs) * weight / math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))


def test_ordinary_pair_has_harmonic_potentials():
    p = harmonic_pair()
    g = Grid(6.0, 257)
    s = p.samples(g)
    assert np.max(np.abs(s["q1"])) == 0.0
    assert np.max(np.abs(s["v1"] - (g.x**2 - 1))) < 1e-12
    assert np.max(np.abs(s["v2"] - (g.x**2 + 1))) < 1e-12


def test_exponential_pair_drift_and_difference():
    p = exp_pair(k=-1.0)
    g = Grid(6.0, 257)
    s = p.samples(g)
    assert np.max(np.abs(s["q1"] - (g.x + 1 - 2 * np.exp(g.x)))) < 1e-9
    # wA' + wB' = 1 for this family, so the partner potentials differ by one
    assert np.max(np.abs((s["v2"] - s["v1"]) - 1.0)) < 1e-9


def test_opposite_superpotentials_share_potentials():
    w = parse("tanh(x)")
    p = build_pair(w, -w)
    g = Grid(6.0, 257)
    s = p.samples(g)
    assert np.max(np.abs(s["v1"] - s["v2"])) < 1e-14


def _walk_operations(e) -> tuple:
    """(depends on x, array operations of the field-by-field walk): the
    nodes of the tree, counted each time they occur, computed from x."""
    kids = [_walk_operations(k) for k in (getattr(e, "a", None), getattr(e, "b", None)) if k]
    depends = isinstance(e, Var) or any(d for d, _ in kids)
    return depends, sum(n for _, n in kids) + (depends and not isinstance(e, Var))


def test_a_field_repeated_in_a_pair_is_sampled_once(array_evaluations):
    from susyq.models import get_model

    p = get_model("black-scholes", r=-0.7).pair  # v2_dual is v2's expression
    assert p.v2_dual is p.v2
    distinct = {id(getattr(p, name)): getattr(p, name) for name in p._SAMPLED}.values()
    assert sum(_walk_operations(e)[1] for e in distinct) == 50
    grid = Grid(12.0, 4097)
    del array_evaluations[:]
    s = p.samples(grid)
    assert len(array_evaluations) == 17  # each distinct subexpression once
    assert s["v2_dual"] is s["v2"] and not s["v2"].flags.writeable
    # dw_a and dw_b agree in structure but are two objects: a real pair gives each its own array
    assert p.dw_a is not p.dw_b and s["dw_a"] is not s["dw_b"]
    assert all(not a.flags.writeable for a in s.values())
    for name in p._SAMPLED:
        want = sample(getattr(p, name), grid).values
        assert np.array_equal(s[name].view(np.uint64), want.view(np.uint64)), name


def test_a_complex_pair_shares_the_array_of_fields_of_one_structure():
    p = build_pair(parse("x + 0.5i*tanh(x)"), parse("x + 0.5i*tanh(x)"))
    s = p.samples(Grid(12.0, 49))
    assert p.w_a is not p.w_b and s["w_a"] is s["w_b"] and not s["w_a"].flags.writeable
    assert s["w_a"].dtype == np.complex128


def test_black_scholes_vacuum_logs_are_one_dag(array_evaluations):
    from susyq.models import get_model

    m = get_model("black-scholes", r=-0.7)
    grid = Grid(12.0, 4097)
    m.pair.samples(grid)
    del array_evaluations[:]
    m.vacua(grid)
    # four logs and their first two derivatives: 149 operations walked field by field
    assert len(array_evaluations) == 27


def test_poles_in_two_fields_are_reported_for_the_earlier_field():
    # w_b's pole at x = -2 comes first on the grid, but w_a is sampled first
    p = build_pair(parse("1/(x - 1)"), parse("1/(x + 2)"))
    with pytest.raises(PoleOnGridError) as err:
        p.samples(Grid(12.0, 49))
    assert str(err.value) == ("non-finite sample (pole or overflow) at x=1.0 "
                              "(grid index 26, 1 offending point)")


def test_failing_constant_subexpressions_raise_the_first_in_field_order():
    # w_b's failing constant is the deeper one; w_a's is reached first
    p = SuperpotentialPair(parse("x * sin(0)^-1"), parse("x / sin(sin(0))"))
    with pytest.raises(EvalDomainError) as err:
        p.samples(Grid(12.0, 49))
    assert str(err.value) == "zero raised to a negative power at every x"


def test_potential_identity_residual_small_for_models():
    g = default_grid()
    assert potential_identity_residual(harmonic_pair(), g) < 1e-12
    assert potential_identity_residual(exp_pair(), g) < 1e-10


def test_factor_composition_matches_closed_form():
    g = default_grid()
    f = sample(parse("exp(0 - x^2 / 4) * (1 + sin(2 * x) / 2)"), g)
    for p in (harmonic_pair(), exp_pair()):
        assert max(factorization_residuals(p, f)) < 1e-5


def test_ladder_commutator_is_two_for_harmonic_pair():
    # A and its adjoint close the oscillator algebra when wA = x
    p = harmonic_pair()
    g = default_grid()
    f = sample(parse("exp(0 - x^2 / 2) * (1 + x + x^2)"), g)
    got = apply_A(p, apply_A_dag(p, f)).values - apply_A_dag(p, apply_A(p, f)).values
    want = 2.0 * f.values
    lo, hi = 5, g.n_points - 5
    assert np.max(np.abs(got[lo:hi] - want[lo:hi])) < 1e-6 * np.max(np.abs(want))


def test_adjoint_moves_across_inner_product():
    g = Grid(10.0, 1025)
    p = build_pair(parse("x + 1i * sin(x)"), parse("x - 0.5 * cos(x)"))
    f = sample(parse("exp(0 - x^2) * (1 + 1i * x)"), g)
    h = sample(parse("exp(0 - x^2 / 2) * sin(x)"), g)
    lhs = inner(apply_A_dag(p, h), f)
    rhs = inner(h, apply_A(p, f))
    assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))
    lhs = inner(apply_B_dag(p, h), f)
    rhs = inner(h, apply_B(p, f))
    assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))


def test_adjoint_hamiltonian_is_swapped_conjugated_pair():
    g = Grid(8.0, 513)
    w_a = parse("x + 1i * sin(x)")
    w_b = parse("2 * x - 0.3 * tanh(x)")
    p = build_pair(w_a, w_b)
    from susyq.expr import conjugate

    swapped = build_pair(conjugate(w_b), conjugate(w_a))
    f = sample(parse("exp(0 - x^2 / 2) * (1 + cos(x))"), g)
    got = apply_H1_dag(p, f)
    want = apply_H1(swapped, f)
    assert np.max(np.abs(got.values - want.values)) < 1e-9 * np.max(np.abs(want.values))


def test_build_pair_requires_sane_input():
    with pytest.raises(Exception):
        build_pair(parse("1 / x"), parse("1 / x"), singular_points=np.linspace(-8, 8, 200))


def test_a_pair_singular_at_every_sample_point_is_an_expression_error():
    with pytest.raises(ExprError, match="no pole-free sample points"):
        build_pair(parse("x"), parse("1 / (x - x)"))


# tanh(40 (x - 3)) + 1 stays below the 1e-9 tolerance left of x = 2.4 and is
# about 2 right of x = 3.6.  The check points begin 1.04, -4.85, 4.06, -4.06,
# -3.89, -6.32, -6.77, -4.58, 5.83 in draw order, none of them in between.
_BUMP = "tanh(40 * (x - 3)) + 1"


@pytest.mark.parametrize("singular_points, x", [((), "4.064109660703659"),
                                                ((4.07,), "5.828008347033881")])
def test_a_disagreeing_simplified_field_names_the_first_failing_point_in_draw_order(
        singular_points, x):
    off = {"v1": parse(f"x^2 - 1 + {_BUMP}")}
    with pytest.raises(ValueError) as err:
        build_pair(parse("x"), parse("x"), singular_points=singular_points, simplified=off)
    assert str(err.value) == f"simplified v1 disagrees with the derived form at x={x}"


def test_a_pair_not_finite_at_some_check_points_still_builds():
    # an undeclared pole exactly on the third check point, and exp(exp(x))
    # overflowing on the six points above x = 6.56: those points are skipped
    for w_a in ("x + 1 / (x - 4.064109660703659)", "x + 1e-300 * exp(exp(x))"):
        build_pair(parse(w_a), parse("x"))
    # the pole point skipped, a disagreement is named at the next failing point
    w_a = parse("x + 1 / (x - 4.064109660703659)")
    off = {"v1": build_pair(w_a, parse("x")).v1 + parse(_BUMP)}
    with pytest.raises(ValueError, match="at x=5.828008347033881$"):
        build_pair(w_a, parse("x"), simplified=off)


def _identity_check_by_loop(w_a, w_b, singular_points=(), simplified=None):
    """The identity check one point and one scalar evaluation at a time:
    None when the pair passes, else the message build_pair must raise."""
    p = SuperpotentialPair(w_a, w_b, singular_points)
    simplified = dict(simplified or {})
    dq1 = differentiate(p.q1)
    checked = 0
    for x in np.random.default_rng(20260822).uniform(-8.0, 8.0, size=50):
        if any(abs(x - s) < 0.05 for s in p.singular_points):
            continue
        try:
            v1, v2, d1, d2, dq = (evaluate(e, x) for e in (p.v1, p.v2, p.v1_dual, p.v2_dual, dq1))
            slope_sum = evaluate(p.dw_a, x) + evaluate(p.dw_b, x)
            reduced = {name: evaluate(e, x) for name, e in simplified.items()}
            q1 = evaluate(p.q1, x) if "q1" in simplified else None
        except EvalDomainError:
            continue
        scale = max(abs(v1), abs(v2), abs(slope_sum), 1.0)
        if abs((v2 - v1) - slope_sum) > 1e-9 * scale:
            return f"potential difference identity fails at x={x}"
        for name, got in (("v1_dual", d1 - (np.conjugate(v1) - np.conjugate(dq))),
                          ("v2_dual", d2 - (np.conjugate(v2) - np.conjugate(dq)))):
            if abs(got) > 1e-9 * scale:
                return f"dual potential {name} inconsistent at x={x}"
        for name, got in reduced.items():
            want = {"q1": q1, "v1": v1, "v2": v2, "v1_dual": d1, "v2_dual": d2}[name]
            if abs(got - want) > 1e-9 * max(scale, abs(want)):
                return f"simplified {name} disagrees with the derived form at x={x}"
        checked += 1
    return None if checked else "no pole-free sample points in [-8, 8] to verify the pair on"


@pytest.mark.parametrize("w_a, w_b, singular_points, simplified", [
    ("x", "x", (), {}),
    ("x + 1i * sin(x)", "x - 0.5 * cos(x)", (), {"q1": "0 - 1.5 * x"}),
    ("x", "x", (), {"q1": "0", "v1": "x^2 - 1", "v2": f"x^2 + 1 + 1e-3 * ({_BUMP})"}),
    ("1 / x", "x + 1 / x", (0.0,), {"q1": "x"}),
    ("x", "x", (), {"v1": f"x^2 - 1 + {_BUMP}", "v2": "x^2 + 2"}),
    ("x", "x", (), {"v2": "x^2 + 2", "v1": "x^2"}),
    ("1 / x", "x", (0.0, 4.07), {"v2_dual": f"1 - x^-2 + {_BUMP}"}),
    ("x + 1e-300 * exp(exp(x))", "tanh(x)", (),
     {"v1_dual": f"x * tanh(x) - 1 + tanh(x)^2 + {_BUMP}"}),
    ("x + ln(x^2)", "exp(0 - x^2)", (0.0,), {}),
    ("x", "1 / (x - x)", (), {}),
    ("x", "x", tuple(np.linspace(-8.0, 8.0, 200)), {}),
    ("x + (sin(0))^-3", "x", (), {}),
])
def test_the_identity_check_matches_the_pointwise_loop(w_a, w_b, singular_points, simplified):
    w_a, w_b = parse(w_a), parse(w_b)
    simplified = {name: parse(e) for name, e in simplified.items()}
    want = _identity_check_by_loop(w_a, w_b, singular_points, simplified)
    try:
        build_pair(w_a, w_b, singular_points=singular_points, simplified=simplified)
        got = None
    except ValueError as err:  # an ExprError too
        got = str(err)
    assert got == want


def test_harmonic_vacua_forms_and_classification():
    p = harmonic_pair()
    v = vacua(p)
    # A-vacuum is the Gaussian, B-vacuum its reciprocal
    f = v.phi0_1.function
    want = np.exp(-f.grid.x**2 / 2)
    got = f.values * np.exp(f.log_scale)
    assert np.max(np.abs(got - want)) < 1e-9
    assert v.phi0_1.in_l2 and not v.phi0_2.in_l2
    assert v.psi0_1.in_l2 and not v.psi0_2.in_l2
    for rec in v.records():
        assert rec.annihilation_residual < 1e-6
        assert rec.in_l1loc_on_grid


def test_vacua_annihilation_without_closed_antiderivative():
    # wavy superpotential: the antiderivative only exists numerically
    p = build_pair(parse("tanh(x) + 0.3 * sin(3 * x) + 0.1"), parse("x + cos(x)"))
    v = vacua(p)
    for rec in v.records():
        assert rec.annihilation_residual < 1e-6


def test_vacua_unit_normalization():
    v = vacua(harmonic_pair(), normalization="unit")
    assert abs(norm(v.phi0_1.function) - 1.0) < 1e-10
    assert abs(norm(v.psi0_1.function) - 1.0) < 1e-10
    # non-normings recorded, functions left raw
    assert any("phi0_2" in note for note in v.notes)


def test_vacua_paired_normalization():
    v = vacua(harmonic_pair(), normalization="paired")
    assert abs(inner(v.psi0_1.function, v.phi0_1.function) - 1.0) < 1e-10


def test_vacua_rejects_unknown_policy():
    with pytest.raises(ValueError):
        vacua(harmonic_pair(), normalization="fancy")


def eig_families(g, n_levels):
    fns1 = [GridFunction(g, hermite_function(n, g.x)) for n in range(n_levels)]
    pairs1 = [(2.0 * n, fns1[n]) for n in range(n_levels)]
    pairs2 = [None] + [(2.0 * n, fns1[n - 1]) for n in range(1, n_levels)]
    return fns1, pairs1, pairs2


def intertwine_records(p, pairs1, pairs2):
    """``intertwine_check`` at each level of the aligned families, each image
    formed from the level's own carrier."""
    recs = []
    for n, (energy, phi1) in enumerate(pairs1):
        phi2 = None if pairs2[n] is None else pairs2[n][1]
        recs.append(intertwine_check(n, energy, phi1, phi2, apply_A(p, phi1),
                                     None if phi2 is None else apply_B(p, phi2),
                                     p.singular_points))
    return recs


def test_intertwine_check_recovers_sqrt_energies():
    g = default_grid()
    p = harmonic_pair()
    fns1, pairs1, pairs2 = eig_families(g, 7)
    recs = intertwine_records(p, pairs1, pairs2)
    assert recs[0].alpha is None and recs[0].product_residual is None
    assert recs[0].residual_a < 1e-6
    for r in recs[1:]:
        assert max(r.residual_a, r.residual_b) < 1e-6, r.n
        root = math.sqrt(2.0 * r.n)
        assert abs(r.alpha - root) < 1e-6 * root
        assert abs(r.beta - root) < 1e-6 * root
        assert r.product_residual < 1e-6 * 2.0 * r.n


def test_intertwine_check_flags_wrong_partner():
    g = default_grid()
    p = harmonic_pair()
    fns1, pairs1, pairs2 = eig_families(g, 5)
    broken = list(pairs2)
    broken[2] = (4.0, fns1[3])  # not proportional to A phi_2
    recs = intertwine_records(p, pairs1, broken)
    assert recs[2].residual_a > 0.1
    assert max(r.residual_a for r in recs[:2] + recs[3:]) < 1e-6


@pytest.mark.parametrize("n_points", [4097, 8193])
def test_projection_defect_is_the_carrier_residual_bit_for_bit(n_points):
    from susyq.susy import _projection

    g = Grid(12.0, n_points)
    p = harmonic_pair()
    fns1, _, _ = eig_families(g, 5)
    cases = [(fns1[n - 1], apply_A(p, fns1[n])) for n in range(1, 5)]
    cases.append((fns1[3], apply_A(p, fns1[2])))  # a wrong partner: an order-one defect
    rng = np.random.default_rng(n_points)
    noise = GridFunction(g, rng.standard_normal(n_points) + 1j * rng.standard_normal(n_points))
    cases.append((noise, noise.with_values((0.5 - 2j) * noise.values + 0.1)))  # edges count
    whole_norm = lambda v: np.sqrt(np.sum(g.simpson_weights * np.abs(v) ** 2))
    for target, image in cases:
        c, got = _projection(target, image)
        assert c == inner(target, image) / inner(target, target)
        want = float(whole_norm(image.values - c * target.values) / whole_norm(image.values))
        assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)
        assert got == float(norm(image - c * target) / norm(image))


def superalgebra(p, n, f, g, alpha=0.0, beta=0.0):
    """``superalgebra_check`` of (f, g) as the level-n doublet, its images
    formed one pass per component."""
    return superalgebra_check(p, n, f, g, *apply_ops(p, f, ["A", "H1"]),
                              *apply_ops(p, g, ["B", "H2"]), alpha, beta)


def test_superalgebra_on_harmonic_doublets():
    g = default_grid()
    p = harmonic_pair()
    fns1, _, _ = eig_families(g, 5)
    report = []
    for n in range(1, 5):
        vector, doublet = superalgebra(p, n, fns1[n], fns1[n - 1],
                                       math.sqrt(2.0 * n), math.sqrt(2.0 * n))
        report += vector + doublet
    # test vectors that are no doublet: only the vector checks apply
    for f, h in ((fns1[0], fns1[1]),
                 (sample(parse("exp(0 - x^2 / 3) * x"), g),
                  sample(parse("exp(0 - x^2 / 2) * (1 + 1i * sin(x))"), g))):
        report += superalgebra(p, 0, f, h)[0]
    assert len(report) == 4 * 7 + 8
    assert all(r.passed for r in report)
    nil = [r for r in report if "nilpotency" in r.check]
    assert nil and all(r.residual == 0.0 for r in nil)


def test_superalgebra_reports_broken_anticommutator():
    g = default_grid()
    p = harmonic_pair()
    wrong = build_pair(parse("x"), parse("x + tanh(x)"))
    f = sample(parse("exp(0 - x^2 / 2) * (1 + x)"), g)
    h = sample(parse("exp(0 - x^2 / 2) * x"), g)
    # apply the charges of one pair against the Hamiltonian of another
    v = (f, h)
    anti = tuple(
        GridFunction(a.grid, a.values + b.values)
        for a, b in zip(_q_a(p, _q_b(p, v)), _q_b(p, _q_a(p, v)))
    )
    hv = _h_diag(wrong, v)
    defect = max(
        np.max(np.abs(anti[0].values - hv[0].values)),
        np.max(np.abs(anti[1].values - hv[1].values)),
    )
    assert defect > 1e-3


# The 2x2 block form of the superalgebra, every operator applied to both
# components of a two-component vector, zero blocks included: the oracle the
# sector-by-sector check must reproduce.

def _zero_like(grid):
    return GridFunction(grid, np.zeros(grid.n_points, dtype=np.complex128))


def _q_a(p, v):
    f, _ = v
    return (_zero_like(f.grid), apply_A(p, f.materialize()))


def _q_b(p, v):
    _, g = v
    return (apply_B(p, g.materialize()), _zero_like(g.grid))


def _h_diag(p, v):
    f, g = v
    return (apply_H1(p, f.materialize()), apply_H2(p, g.materialize()))


def _vector_norm(p, v):
    ex = list(p.singular_points)
    return float(np.hypot(interior_norm(v[0], exclude=ex), interior_norm(v[1], exclude=ex)))


def _pair_residual(p, got, want, scale):
    diff = tuple(g - w for g, w in zip(got, want))
    return _vector_norm(p, diff) / max(scale, 1e-300)


def _superalgebra_in_blocks(p, test_vectors, doublets):
    """The superalgebra check with each charge and Hamiltonian applied as a
    2x2 block operator, each charge image recomputed wherever it is used."""
    from susyq.reporting import CheckResult
    from susyq.numerics import relative_residual

    tol = 1e-5
    report = []
    for i, v in enumerate(test_vectors):
        v = (v[0].materialize(), v[1].materialize())
        tag = f"vector {i}"
        qa_qa = _q_a(p, _q_a(p, v))
        qb_qb = _q_b(p, _q_b(p, v))
        nil = max(
            np.max(np.abs(qa_qa[0].values)) + np.max(np.abs(qa_qa[1].values)),
            np.max(np.abs(qb_qb[0].values)) + np.max(np.abs(qb_qb[1].values)),
        )
        report.append(CheckResult.from_residual(f"nilpotency Q_A^2 = Q_B^2 = 0 ({tag})", nil, 1e-300))
        hv = _h_diag(p, v)
        scale = max(_vector_norm(p, hv), _vector_norm(p, v))
        anti = tuple(a + b for a, b in zip(_q_a(p, _q_b(p, v)), _q_b(p, _q_a(p, v))))
        r = _pair_residual(p, anti, hv, scale)
        report.append(CheckResult.from_residual(f"anticommutator {{Q_A,Q_B}} = H ({tag})", r, tol))
        r = _pair_residual(p, _h_diag(p, _q_a(p, v)), _q_a(p, hv), scale)
        report.append(CheckResult.from_residual(f"commutator [H,Q_A] = 0 ({tag})", r, tol))
        r = _pair_residual(p, _h_diag(p, _q_b(p, v)), _q_b(p, hv), scale)
        report.append(CheckResult.from_residual(f"commutator [H,Q_B] = 0 ({tag})", r, tol))
    for n, energy, phi1, phi2, alpha, beta in doublets:
        phi1, phi2 = phi1.materialize(), phi2.materialize()
        up = (phi1, _zero_like(phi1.grid))
        down = (_zero_like(phi1.grid), phi2)
        image = _q_a(p, up)[1]
        r = relative_residual(image - alpha * phi2, image) if norm(image) > 0 else 0.0
        report.append(CheckResult.from_residual(f"charge maps sector 1 -> 2 with alpha (n={n})", r, tol))
        image = _q_b(p, down)[0]
        r = relative_residual(image - beta * phi1, image) if norm(image) > 0 else 0.0
        report.append(CheckResult.from_residual(f"charge maps sector 2 -> 1 with beta (n={n})", r, tol))
        dead_a = _q_a(p, down)
        dead_b = _q_b(p, up)
        z = max(
            np.max(np.abs(dead_a[0].values)) + np.max(np.abs(dead_a[1].values)),
            np.max(np.abs(dead_b[0].values)) + np.max(np.abs(dead_b[1].values)),
        )
        report.append(CheckResult.from_residual(f"charges annihilate opposite doublets (n={n})", z, 1e-300))
    return report


def _deformed_superalgebra_input():
    from susyq.models import get_model

    g = Grid(12.0, 1025)
    m = get_model("deformed-harmonic")
    phis = [m.phi1(n, g) for n in range(4)]
    vectors = [(phis[n], phis[n - 1]) for n in range(1, 4)]
    doublets = [(n, 2.0 * n, phis[n], phis[n - 1], complex(math.sqrt(2.0 * n), 0.1), math.sqrt(2.0 * n))
                for n in range(1, 4)]
    return m.pair, vectors, doublets


def _superalgebra_levels(p, doublets):
    """The per-level checks over the doublets, vector checks first."""
    vectors, pairs = [], []
    for n, _, phi1, phi2, alpha, beta in doublets:
        vector, doublet = superalgebra(p, n, phi1, phi2, alpha, beta)
        vectors += vector
        pairs += doublet
    return vectors + pairs


def test_superalgebra_shares_the_charge_images_bit_for_bit():
    p, vectors, doublets = _deformed_superalgebra_input()
    got = _superalgebra_levels(p, doublets)
    want = _superalgebra_in_blocks(p, vectors, doublets)
    assert [r.check for r in got] == [r.check for r in want]
    assert [r.passed for r in got] == [r.passed for r in want]
    residuals = np.array([[r.residual for r in got], [r.residual for r in want]])
    assert np.array_equal(residuals[0].view(np.uint64), residuals[1].view(np.uint64))


def test_superalgebra_applies_each_charge_once_per_vector(stencil_passes):
    p, _, doublets = _deformed_superalgebra_input()
    _superalgebra_levels(p, doublets)
    # per level, ten images from six inputs: phi1 gives A phi1 and H1 phi1,
    # phi2 gives B phi2 and H2 phi2, A phi1 gives B A phi1 and H2 A phi1,
    # B phi2 gives A B phi2 and H1 B phi2, H1 phi1 gives A H1 phi1 and H2
    # phi2 gives B H2 phi2; the doublet checks read A phi1 and B phi2 again
    assert stencil_passes == {"passes": 6 * len(doublets), "images": 10 * len(doublets)}


bounded = st.floats(-1.5, 1.5).filter(lambda c: abs(c) > 1e-3)


@settings(max_examples=15, deadline=None)
@given(bounded, bounded, bounded, bounded)
def test_random_bounded_pairs_satisfy_identities(a1, a2, b1, b2):
    bindings = {"a1": a1, "a2": a2, "b1": b1, "b2": b2}
    p = build_pair(
        parse("a1 * tanh(x) + a2 * sin(x)", bindings),
        parse("b1 * cos(x) + b2 * tanh(2 * x)", bindings),
    )
    g = Grid(10.0, 1025)
    assert potential_identity_residual(p, g) < 1e-10
    f = sample(parse("exp(0 - x^2 / 2) * (1 + x / 3)"), g)
    assert factorization_residuals(p, f)[0] < 1e-5
