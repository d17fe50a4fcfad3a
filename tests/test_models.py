"""Worked-example models against closed-form oracles."""

import cmath
import math

import numpy as np
import pytest
from numpy.polynomial import hermite as np_hermite

from susyq.expr import evaluate, parse
from susyq.models import (
    ModelError,
    ModelRecord,
    bs_classification,
    bs_numeric_flags,
    get_model,
    hermite,
    models_list,
    pb_identities,
    pb_polynomials,
)
from susyq.numerics import Grid, GridFunction, derivative, inner, norm, relative_residual, sample
from susyq.susy import (
    apply_A,
    apply_B,
    build_pair,
    factorization_residuals,
    potential_identity_residual,
    probe_function,
)


@pytest.fixture(scope="module")
def grid():
    return Grid()


# ---------------------------------------------------------------------------
# hermite oracle

def hermite_function(n, x):
    """Orthonormal oscillator eigenfunction H_n(x) e^{-x^2/2} / sqrt(2^n n! sqrt(pi))."""
    scale = math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))
    return hermite(n, x) * np.exp(-np.asarray(x) ** 2 / 2) / scale


def test_hermite_matches_numpy_hermval():
    xs = np.linspace(-3, 3, 11)
    for n in range(9):
        coeffs = [0.0] * n + [1.0]
        np.testing.assert_allclose(hermite(n, xs), np_hermite.hermval(xs, coeffs), rtol=1e-12)


def test_hermite_known_value_and_scalar_type():
    # H_2(x) = 4x^2 - 2, so H_2(1.5) = 7
    v = hermite(2, 1.5)
    assert isinstance(v, float)
    assert v == pytest.approx(7.0, abs=1e-14)


def test_hermite_complex_argument():
    z = 0.3 + 0.4j
    assert hermite(3, z) == pytest.approx(8 * z**3 - 12 * z, rel=1e-14)


def _hermite_oracle(n, z):
    """The three-term recurrence as out-of-place array expressions."""
    h_prev, h = np.ones_like(z), 2 * z
    if n == 0:
        return h_prev
    for m in range(1, n):
        h, h_prev = 2 * z * h - 2 * m * h_prev, h
    return h


def test_hermite_and_the_ladder_are_the_out_of_place_recurrence_bit_for_bit():
    from susyq.models import _HermiteLadder, _ladder_argument

    rng = np.random.default_rng(3)
    for size in (1, 2, 5, 50, 16385):
        re = rng.uniform(-5, 5, size)
        for z in (re, re + 1j * rng.uniform(-5, 5, size)):
            for n in range(40):
                assert _same_bits(hermite(n, z), _hermite_oracle(n, z)), (size, z.dtype, n)
    ladder = _HermiteLadder()
    for g in (Grid(12.0, 33), Grid(12.0, 16385)):
        for c in (None, cmath.exp(0.3j), cmath.exp(-0.3j)):
            z = _ladder_argument(g, c)
            for n in list(range(30)) + [7, 29, 0]:
                assert _same_bits(ladder(n, g, c), _hermite_oracle(n, z)), (g, c, n)


def test_a_scalar_hermite_value_has_the_bits_of_its_array_element():
    rng = np.random.default_rng(4)
    re = rng.uniform(-5, 5, 50)
    for z in (re, re + 1j * rng.uniform(-5, 5, 50)):
        for n in range(40):
            values = hermite(n, z)
            for j, point in enumerate(z.tolist()):
                got = hermite(n, point)
                assert type(got) is type(point), (n, j)
                assert _same_bits(np.array([got]), values[j : j + 1]), (n, j)


def test_hermite_function_orthonormal(grid):
    f2 = hermite_function(2, grid.x)
    f3 = hermite_function(3, grid.x)
    w = grid.simpson_weights
    assert np.sum(w * f2 * f2) == pytest.approx(1.0, abs=1e-12)
    assert abs(np.sum(w * f2 * f3)) < 1e-12


# The eigenfamily generators resume the Hermite recurrence.  Each level must
# carry the bits of the generator written with hermite(n, z), whatever order
# the levels and grids come in.  N=16385 is the smallest grid size whose
# complex arrays reach the 256 KiB at which numpy computes products in place.
LADDER_ORDERS = {
    "rising": [0, 1, 2, 3, 4, 5, 6, 7],
    "falling": [7, 6, 5, 4, 3, 2, 1, 0],
    "repeated": [3, 3, 4, 4, 0, 0, 2, 2],
    "mixed": [0, 4, 2, 6, 1, 5],
}


def _ladder_requests(order):
    small, large = Grid(12.0, 4097), Grid(12.0, 16385)
    requests = [(n, large) for n in LADDER_ORDERS[order]]
    if order == "mixed":
        requests = [(n, small if k % 2 else large) for k, (n, _) in enumerate(requests)]
        requests += [(5, large), (6, large), (5, small), (7, large)]
    return requests


def _same_bits(got, want):
    return got.dtype == want.dtype and np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _oscillator(n, grid):
    return GridFunction(grid, hermite_function(n, grid.x))


def _swanson_family(norm_const, rotation):
    def gen(n, grid):
        z = rotation * grid.x
        return GridFunction(grid, norm_const / math.sqrt(2.0**n * math.factorial(n))
                            * hermite(n, z) * np.exp(-0.5 * rotation**2 * grid.x**2))
    return gen


def _ladder_cases():
    theta = 0.2298
    rot = cmath.exp(1j * theta)
    swanson = get_model("swanson", theta=theta)
    harmonic = get_model("harmonic")
    deformed = get_model("deformed-harmonic")
    d = deformed.extras["deformation"]
    return {
        "harmonic phi1": (harmonic.phi1, _oscillator),
        "harmonic phi2": (harmonic.phi2, lambda n, g: None if n == 0 else _oscillator(n - 1, g)),
        "swanson phi1": (swanson.phi1, _swanson_family(cmath.exp(1j * theta / 2) / math.pi**0.25, rot)),
        "swanson psi1": (swanson.psi1, _swanson_family(cmath.exp(-1j * theta / 2) / math.pi**0.25, 1 / rot)),
        "deformed base": (deformed.extras["base_eigenfunction"], _oscillator),
        "deformed phi1": (deformed.phi1, lambda n, g: GridFunction(
            g, np.exp(sample(d.q, g).values) * hermite_function(n, g.x))),
        "deformed psi1": (deformed.psi1, lambda n, g: GridFunction(
            g, np.exp(-np.conjugate(sample(d.q, g).values)) * hermite_function(n, g.x))),
    }


@pytest.mark.parametrize("order", sorted(LADDER_ORDERS))
def test_eigenfamilies_resume_the_hermite_recurrence_bit_for_bit(order):
    requests = _ladder_requests(order)
    for case, (gen, oracle) in _ladder_cases().items():
        for n, g in requests:
            got, want = gen(n, g), oracle(n, g)
            if want is None:
                assert got is None, case
                continue
            assert _same_bits(got.values, want.values), (case, n, g)


def test_swanson_families_share_one_ladder_bit_for_bit():
    # phi1 and psi1 take turns, so the shared ladder restarts on every call
    cases = _ladder_cases()
    (phi, phi_oracle), (psi, psi_oracle) = cases["swanson phi1"], cases["swanson psi1"]
    g = Grid(12.0, 16385)
    for n in [0, 1, 2, 2, 5, 3]:
        assert _same_bits(phi(n, g).values, phi_oracle(n, g).values), n
        assert _same_bits(psi(n, g).values, psi_oracle(n, g).values), n


def test_ladder_levels_are_fresh_arrays_on_the_last_grid_only():
    from susyq.models import _HermiteLadder

    rot = cmath.exp(0.3j)
    ladder = _HermiteLadder()
    small, large = Grid(12.0, 33), Grid(12.0, 65)
    first = ladder(4, large, rot)
    assert _same_bits(first, hermite(4, rot * large.x))
    first[:] = 0.0  # the caller owns what it got; the ladder's levels are untouched
    assert _same_bits(ladder(5, large, rot), hermite(5, rot * large.x))
    assert _same_bits(ladder(3, large), hermite(3, large.x))
    assert _same_bits(ladder(2, small, rot), hermite(2, rot * small.x))
    held = [a for a in vars(ladder).values() if isinstance(a, np.ndarray)]
    assert len(held) == 2 and all(a.shape == (small.n_points,) for a in held)
    with pytest.raises(ValueError):
        ladder(-1, small)


def _ladders_of(gen):
    """The Hermite ladders a generator reaches through its closures."""
    from susyq.models import _HermiteLadder

    found, todo, seen = [], [gen], set()
    while todo:
        fn = todo.pop()
        if id(fn) in seen:
            continue
        seen.add(id(fn))
        for cell in fn.__closure__ or ():
            value = cell.cell_contents
            if isinstance(value, _HermiteLadder):
                found.append(value)
            elif callable(value) and hasattr(value, "__closure__"):
                todo.append(value)
    return found


def _held_arrays(ladder):
    return [a for a in vars(ladder).values() if isinstance(a, np.ndarray)]


def test_each_generator_holds_one_envelope_of_the_last_grid():
    small, large = Grid(12.0, 33), Grid(12.0, 65)
    for case, (gen, oracle) in _ladder_cases().items():
        for n, g in [(3, large), (1, large), (2, small)]:
            got, want = gen(n, g), oracle(n, g)
            assert _same_bits(got.values, want.values), (case, n, g)
        ladders = _ladders_of(gen)
        assert len(ladders) == 1, case
        held = _held_arrays(ladders[0])
        # two recurrence levels and one envelope, all on the last grid
        assert len(held) == 3 and all(a.shape == (small.n_points,) for a in held), case


def test_swanson_families_share_one_envelope_slot_across_a_grid_switch():
    cases = _ladder_cases()
    (phi, phi_oracle), (psi, psi_oracle) = cases["swanson phi1"], cases["swanson psi1"]
    (ladder,) = set(_ladders_of(phi)) | set(_ladders_of(psi))
    small, large = Grid(12.0, 33), Grid(12.0, 16385)
    for n, g in [(2, large), (2, large), (4, small), (1, large), (3, small), (0, small)]:
        assert _same_bits(phi(n, g).values, phi_oracle(n, g).values), (n, g)
        assert _same_bits(psi(n, g).values, psi_oracle(n, g).values), (n, g)
        held = _held_arrays(ladder)
        assert len(held) == 3 and all(a.shape == (g.n_points,) for a in held), (n, g)


# ---------------------------------------------------------------------------
# registry

def test_registry_lists_all_builtin_models():
    names = {m["name"] for m in models_list()}
    assert {"harmonic", "swanson", "black-scholes", "pseudo-bosonic"} <= names
    assert "deformed-harmonic" in names


def test_registry_rejects_unknown_names_and_params():
    with pytest.raises(ModelError):
        get_model("no-such-model")
    with pytest.raises(ModelError):
        get_model("harmonic", tilt=2.0)


def test_registry_applies_defaults():
    m = get_model("black-scholes")
    assert m.params == {"r": 1.0, "v0": 1.0}


# ---------------------------------------------------------------------------
# harmonic

def test_harmonic_eigen_residuals(grid):
    m = get_model("harmonic")
    for n in range(5):
        f = m.phi1(n, grid)
        h1f = apply_B(m.pair, apply_A(m.pair, f))
        diff = GridFunction(grid, h1f.values - m.energy(n) * f.values)
        assert relative_residual(diff, f) < 1e-6, n


def test_harmonic_partner_alignment(grid):
    m = get_model("harmonic")
    assert m.phi2(0, grid) is None
    # H2 acting on the partner of level 3 must return the sector-1 eigenvalue 6
    f = m.phi2(3, grid)
    h2f = apply_A(m.pair, apply_B(m.pair, f))
    diff = GridFunction(grid, h2f.values - m.energy(3) * f.values)
    assert relative_residual(diff, f) < 1e-6


# ---------------------------------------------------------------------------
# swanson

def test_swanson_rejects_bad_theta():
    for theta in (0.0, math.pi / 4, -math.pi / 4, 1.0):
        with pytest.raises(ModelError):
            get_model("swanson", theta=theta)


def test_swanson_biorthogonal(grid):
    m = get_model("swanson", theta=math.pi / 8)
    phis = [m.phi1(n, grid) for n in range(7)]
    psis = [m.psi1(n, grid) for n in range(7)]
    worst = 0.0
    for a in range(7):
        for b in range(7):
            got = inner(psis[a], phis[b])
            worst = max(worst, abs(got - (1.0 if a == b else 0.0)))
    assert worst < 1e-6


def test_swanson_normalization_constraint():
    theta = math.pi / 8
    m = get_model("swanson", theta=theta)
    want = np.exp(-1j * theta) / math.sqrt(math.pi)
    got = np.conjugate(m.constants["n1"]) * m.constants["n2"]
    assert got == pytest.approx(want, abs=1e-15)
    assert m.constants["pairing_target"] == pytest.approx(want, abs=1e-15)


def test_swanson_hamiltonian_residuals(grid):
    m = get_model("swanson", theta=math.pi / 8)
    apply_h = m.extras["apply_h"]
    for n in range(5):
        f = m.phi1(n, grid)
        hf = apply_h(f)
        diff = GridFunction(grid, hf.values - m.energy(n) * f.values)
        assert relative_residual(diff, f) < 1e-5, n


def test_swanson_dual_hamiltonian_on_dual_family(grid):
    m = get_model("swanson", theta=math.pi / 8)
    f = m.psi1(2, grid)
    hf = m.extras["apply_h_dual"](f)
    diff = GridFunction(grid, hf.values - m.energy(2) * f.values)
    assert relative_residual(diff, f) < 1e-5


def _swanson_oracle(theta, rotation_sign):
    """The Swanson Hamiltonian as the whole-array expression."""
    sec = 1.0 / math.cos(2 * theta)
    kin = cmath.exp(-2j * rotation_sign * theta)
    pot = cmath.exp(+2j * rotation_sign * theta)

    def apply_h(f):
        # held in a name: numpy would write -kin * (a temporary) over its
        # factor, with a loop whose last bit can differ
        d2 = derivative(f, 2)
        return 0.5 * sec * (-kin * d2.values + pot * f.grid.x**2 * f.values)

    return apply_h


@pytest.mark.parametrize("n", [16, 8191, 8192, 8193, 16387])
@pytest.mark.parametrize("theta", [math.pi / 8, -math.pi / 8, 0.6])
def test_swanson_hamiltonians_are_the_whole_array_expression_bit_for_bit(n, theta):
    grid = Grid(12.0, n)
    m = get_model("swanson", theta=theta)
    rng = np.random.default_rng(n)
    z = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.exp(-grid.x**2 / 8)
    z.real[::7] = -0.0
    funcs = [m.phi1(k, grid) for k in range(5)] + [m.psi1(k, grid) for k in range(5)]
    funcs.append(GridFunction(grid, z))
    for name, sign in (("apply_h", +1.0), ("apply_h_dual", -1.0)):
        oracle = _swanson_oracle(theta, sign)
        for i, f in enumerate(funcs):
            got = m.extras[name](f).values
            assert np.array_equal(got.view(np.uint64), oracle(f).view(np.uint64)), (name, i)


def test_swanson_energies_are_real_and_stretched():
    m = get_model("swanson", theta=math.pi / 8)
    assert m.energy(3) == pytest.approx(3.5 / math.cos(math.pi / 4))


# ---------------------------------------------------------------------------
# black-scholes

def _bs_raw_points(m, n_pts=200):
    """Evaluation points covering [-8, 8] that skip the potential pole."""
    x0 = m.extras["x0"]
    pts = np.linspace(-8.0, 8.0, n_pts)
    if x0 is not None:
        pts = pts[np.abs(pts - x0) > 0.1]
    return pts


def test_bs_drift_is_exactly_constant():
    for r in (-3.0, -1.0, -0.5, 0.0, 1.0, 2.0):
        m = get_model("black-scholes", r=r)
        for x in _bs_raw_points(m, 40):
            assert evaluate(m.pair.q1, float(x)) == 1.0 - r


def test_bs_flat_potential_from_raw_superpotentials():
    # w_a * w_b - w_a' computed from the unreduced constituents
    for r in (-3.0, -1.0, -0.5, 0.0, 1.0, 2.0):
        m = get_model("black-scholes", r=r)
        p = m.pair
        for x in _bs_raw_points(m, 60):
            x = float(x)
            got = evaluate(p.w_a, x) * evaluate(p.w_b, x) - evaluate(p.dw_a, x)
            assert abs(got - r) < 1e-9, (r, x)


def test_bs_r_minus_one_partner_potential():
    m = get_model("black-scholes", r=-1.0, v0=1.0)
    p = m.pair
    for x in _bs_raw_points(m, 60):
        x = float(x)
        derived = evaluate(p.w_a, x) * evaluate(p.w_b, x) + evaluate(p.dw_b, x)
        closed = 2.0 / (x - 1.0) ** 2 - 1.0
        assert abs(derived - closed) < 1e-9 * max(1.0, abs(closed)), x


def test_bs_singular_point_location():
    m = get_model("black-scholes", r=1.0, v0=1.0)
    assert m.extras["x0"] == pytest.approx(math.log(2.0) / 2.0)
    assert m.pair.singular_points == (m.extras["x0"],)
    flat = get_model("black-scholes", r=-3.0)
    assert flat.extras["x0"] is None
    assert flat.pair.singular_points == ()


def test_bs_identity_and_composition(grid):
    m = get_model("black-scholes", r=2.0)
    assert potential_identity_residual(m.pair, grid) < 1e-5
    f = probe_function(grid, m.pair.singular_points)
    assert max(factorization_residuals(m.pair, f)) < 1e-5


def test_bs_vacua_annihilation_is_near_exact(grid):
    m = get_model("black-scholes", r=1.0, v0=1.0)
    v = m.vacua(grid)
    for rec in (v.phi0_1, v.phi0_2, v.psi0_1, v.psi0_2):
        assert rec.annihilation_residual < 1e-10, rec.label


def test_bs_classification_table(grid):
    for r in (2.0, 1.0, 0.5, -0.5, -1.0, -2.0):
        analytic = bs_classification(r)
        numeric = bs_numeric_flags(get_model("black-scholes", r=r), grid)
        assert analytic.flags() == numeric.flags(), r
        assert analytic.flags() == (False, r > 0, False, r > 0)


def test_bs_rejects_nonpositive_v0():
    with pytest.raises(ModelError):
        get_model("black-scholes", v0=0.0)


# ---------------------------------------------------------------------------
# pseudo-bosonic

def test_pb_polynomials_first_levels():
    k = -1.0
    p = pb_polynomials(k, 3)
    xs = np.linspace(-2, 2, 9)
    np.testing.assert_allclose(p[0](xs), np.ones_like(xs))
    np.testing.assert_allclose(p[1](xs), xs + k, rtol=0, atol=1e-14)
    want2 = ((xs + k) ** 2 - 1) / math.sqrt(2.0)
    np.testing.assert_allclose(p[2](xs), want2, rtol=0, atol=1e-13)


def test_pb_polynomial_derivative_is_shift():
    # p_n' = sqrt(n) p_{n-1}
    p = pb_polynomials(0.7, 8)
    xs = np.linspace(-2, 2, 9)
    for n in range(1, 9):
        np.testing.assert_allclose(
            p[n].deriv()(xs), math.sqrt(n) * p[n - 1](xs), rtol=1e-11, atol=1e-11
        )


def test_pb_ladder_action(grid):
    # A phi_n = sqrt(n) phi_{n-1}
    m = get_model("pseudo-bosonic", k=-1.0)
    for n in (1, 3, 6):
        f = m.phi1(n, grid)
        lowered = apply_A(m.pair, f)
        want = m.phi1(n - 1, grid)
        diff = lowered.with_values(lowered.values - math.sqrt(n) * want.values)
        assert relative_residual(diff, want) < 1e-6, n


def test_pb_levels_share_read_only_scale_arrays_of_the_last_grid():
    k = -1.0
    m = get_model("pseudo-bosonic", k=k)
    small, large = Grid(12.0, 33), Grid(12.0, 65)
    for gen, formulas in [
        (m.phi1, lambda x: (-k * x - np.exp(x), -k - np.exp(x), -np.exp(x))),
        (m.psi1, lambda x: (np.exp(x) - x**2 / 2.0, np.exp(x) - x, np.exp(x) - 1.0)),
    ]:
        for g in (large, small):
            a, b = gen(2, g), gen(5, g)
            for name, want in zip(("log_scale", "dlog", "d2log"), formulas(g.x)):
                assert getattr(a, name) is getattr(b, name), name
                assert _same_bits(getattr(a, name), want), name
                with pytest.raises(ValueError):
                    getattr(a, name)[0] = 0.0
        assert gen(1, large).log_scale is not a.log_scale


def test_pb_biorthogonality(grid):
    m = get_model("pseudo-bosonic", k=-1.0)
    worst = 0.0
    for n in range(11):
        for mm in range(11):
            got = inner(m.phi1(n, grid), m.psi1(mm, grid))
            worst = max(worst, abs(got - (1.0 if n == mm else 0.0)))
    assert worst < 1e-7


def test_pb_norms_stay_in_range(grid):
    m = get_model("pseudo-bosonic", k=-1.0)
    for n in (0, 4, 10):
        v = norm(m.phi1(n, grid))
        assert 1e-3 < v < 1e6, (n, v)


@pytest.mark.parametrize("k", [-38.0, 38.0, -80.0])
def test_pb_duals_past_the_normal_range_are_a_model_error(k):
    grid = Grid(12.0, 33)
    m = get_model("pseudo-bosonic", k=k)
    assert np.isfinite(m.phi1(3, grid).values).all()  # the first sector stays
    with pytest.raises(ModelError, match=rf"\|k\| < 37\.6159: at k={k!r} "):
        m.psi1(0, grid)


def test_pb_duals_up_to_the_limit_are_normal_doubles():
    m = get_model("pseudo-bosonic", k=-37.6158)
    assert np.abs(m.psi1(0, Grid(12.0, 33)).values).max() >= np.finfo(float).tiny


def test_pb_partner_shift(grid):
    m = get_model("pseudo-bosonic", k=-1.0)
    assert m.phi2(0, grid) is None
    f = m.phi2(4, grid)
    want = m.phi1(3, grid)
    assert np.max(np.abs(f.values - want.values)) == 0.0


def test_pb_ladder_independent_of_split():
    # raising depends on the superpotentials only through their sum:
    # wA = k + s(x), wB = x - s(x) builds the same polynomial ladder for any s
    k = -1.0
    g = Grid(half_width=6.0, n_points=1025)
    pair_sin = build_pair(parse("k + sin(x)", {"k": k}), parse("x - sin(x)"))
    p = pb_polynomials(k, 3)
    weight = np.exp(-k * g.x + np.cos(g.x))  # e^{-int wA} for the sin split
    phi2 = GridFunction(g, p[2](g.x) * weight)
    phi3 = GridFunction(g, p[3](g.x) * weight)
    raised = apply_B(pair_sin, phi2)
    diff = GridFunction(g, raised.values - math.sqrt(3) * phi3.values)
    assert relative_residual(diff, phi3) < 1e-6


def test_pb_identities_all_pass():
    report = pb_identities(k=-1.0, n_max=12)
    for c in report.checks:
        assert c.passed, c.check
    assert any("2^(-n/2)" in note for note in report.notes)


def test_pb_identities_rejects_overflowing_n():
    with pytest.raises(ModelError):
        pb_identities(n_max=40)


@pytest.mark.parametrize("name", ["harmonic", "pseudo-bosonic", "deformed-harmonic"])
def test_second_sector_is_the_first_one_level_down(name):
    # the suites read sector 2 off their sector-1 lists by this rule
    m = get_model(name)
    g = Grid(12.0, 1025)
    for sector2, sector1 in ((m.phi2, m.phi1), (m.psi2, m.psi1)):
        assert sector2(0, g) is None
        for n in range(1, 9):
            got, want = sector2(n, g), sector1(n - 1, g)
            for attr in ("values", "log_scale", "dlog", "d2log"):
                a, b = getattr(got, attr), getattr(want, attr)
                assert (a is None and b is None) or _same_bits(a, b), (name, n, attr)


def test_every_scaled_carrier_a_model_builds_carries_both_scale_derivatives():
    # a scaled carrier is differentiated only through dlog and d2log, so every
    # family level and every factor vacuum with a scale must carry both
    g = Grid(12.0, 1025)
    scaled = []
    for entry in models_list():
        m = get_model(entry["name"])
        carriers = [(f"{fam} {n}", getattr(m, fam)(n, g))
                    for fam in ("phi1", "psi1") if getattr(m, fam) is not None for n in range(4)]
        if m.pair is not None or m.vacua_fn is not None:
            carriers += [(rec.label, rec.function) for rec in m.vacua(g).records()]
        for label, f in carriers:
            if f.log_scale is not None:
                scaled.append(entry["name"])
                assert f.dlog is not None and f.d2log is not None, (entry["name"], label)
    # the guard is not empty: the pseudo-bosonic families and every vacuum are scaled
    assert {"pseudo-bosonic", "black-scholes", "harmonic"} <= set(scaled)


def _dtypes(arrays):
    return {a.dtype for a in arrays}


def test_real_families_are_float64_and_complex_ones_stay_complex128():
    # the float64 kernels give the complex bits, so a real family that fell
    # back to complex128 would only be slower: this guards the dtype itself
    g = Grid(12.0, 1025)
    user = build_pair(parse("x + a*tanh(x)", {"a": 0.37}), parse("x + c*tanh(x)", {"c": -0.41}))
    real = {name: get_model(name) for name in ("harmonic", "pseudo-bosonic", "black-scholes")}
    real["user pair"] = ModelRecord(name="user-pair", params={}, pair=user, energy=None)
    for name, m in real.items():
        assert _dtypes(m.pair.samples(g).values()) == {np.dtype(np.float64)}, name
        levels = [fam(n, g) for fam in (m.phi1, m.psi1) if fam is not None for n in range(4)]
        vacua = [rec.function for rec in m.vacua(g).records()]
        assert _dtypes(f.values for f in levels + vacua) <= {np.dtype(np.float64)}, name
        assert vacua and (levels or name in ("black-scholes", "user pair")), name
    complex_ = [get_model("deformed-harmonic"), get_model("swanson")]
    assert _dtypes(complex_[0].pair.samples(g).values()) == {np.dtype(np.complex128)}
    for m in complex_:
        levels = [fam(n, g) for fam in (m.phi1, m.psi1) for n in range(4)]
        assert _dtypes(f.values for f in levels) == {np.dtype(np.complex128)}, m.name
