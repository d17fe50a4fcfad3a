"""Action-and-angle state families: products, domains, pairings, ladders."""

import cmath
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from susyq.gk import (
    GKError,
    action_identity,
    build_spectrum,
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
    state_pair,
)
from susyq.gk import _finite_power_moments, _sinc
from susyq.models import get_model
from susyq.numerics import _BLOCK, Grid, GridFunction, _panel_simpson, inner, norm
from susyq.susy import apply_H1

# an overflow or an invalid operation in numpy fails the test that meets it
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


@pytest.fixture(scope="module")
def grid():
    return Grid()


@pytest.fixture(scope="module")
def dh(grid):
    m = get_model("deformed-harmonic")
    n = 26
    phis = [m.phi1(k, grid) for k in range(n)]
    psis = [m.psi1(k, grid) for k in range(n)]
    s = spectrum_from_formula(m.energy, n)
    dom = gk_domain(s, [norm(b) for b in phis], [norm(b) for b in psis])
    return m, phis, psis, s, dom


@pytest.fixture(scope="module")
def dh_pair_states(dh):
    _, phis, psis, s, dom = dh
    phi, psi, domain, _, _, _ = state_pair(s, phis, psis, 1.0, 0.7, 1e-8, 2)
    assert domain.j_min == dom.j_min  # the walk fits the fixture's domain
    return phi, psi


def _overlaps(f, g, phis, psis, n):
    """The overlaps <f, phi_k> and <psi_k, g> for k < n, and the target <f, g>:
    what ``state_pair``'s walk hands ``resolution_estimate``."""
    return (np.array([inner(f, phis[k]) for k in range(n)]),
            np.array([inner(psis[k], g) for k in range(n)]), inner(f, g))


@pytest.fixture(scope="module")
def harm(grid):
    """The first 20 harmonic oscillator levels."""
    m = get_model("harmonic")
    return [m.phi1(k, grid) for k in range(20)]


# ---------------------------------------------------------------------------
# spectra

def _running_product(energies):
    """rho_n = E_1 * ... * E_n, with rho_0 = 1."""
    rho = [1.0 + 0.0j]
    for e in energies[1:]:
        rho.append(rho[-1] * e)
    return np.array(rho)


def test_rho_follows_the_product_recursion():
    s = build_spectrum([0, 1.5 + 0.2j, 2.5 - 0.1j, 4.0, 5.5 + 1j])
    rho = _running_product(s.energies)
    assert np.allclose(np.exp(s.log_abs_rho), np.abs(rho), rtol=1e-14)
    assert np.allclose(np.abs(s.sqrt_rho) ** 2, np.abs(rho), rtol=1e-12)
    assert np.allclose(s.sqrt_rho ** 2, rho, rtol=1e-12)


def test_sqrt_rho_accumulates_the_argument():
    # eighth roots: by n=8 the accumulated angle passes 2*pi, where a
    # principal root of the product would flip sign
    s = build_spectrum([0] + [n * np.exp(1j * np.pi / 4) for n in range(1, 10)])
    for n in range(1, len(s)):
        step = s.sqrt_rho[n - 1] * np.sqrt(s.energies[n])
        assert abs(s.sqrt_rho[n] - step) <= 1e-12 * abs(step)
    rho = _running_product(s.energies)
    assert np.allclose(np.exp(s.log_abs_rho), np.abs(rho), rtol=1e-12)
    assert np.allclose(np.abs(s.sqrt_rho) ** 2, np.abs(rho), rtol=1e-12)
    assert s.sqrt_rho[8].real < 0
    assert abs(s.sqrt_rho[8] + np.sqrt(np.abs(rho[8]))) <= 1e-9 * abs(s.sqrt_rho[8])


def test_radius_trend_classification():
    growing = spectrum_from_formula(lambda n: float(n), 30)
    assert math.isinf(growing.radius)

    bounded = build_spectrum([1 - 1 / (n + 1) for n in range(20)])
    assert bounded.radius == pytest.approx(1 - 1 / 20)

    flat = build_spectrum([3.0] * 12)
    assert flat.radius == pytest.approx(3.0)
    assert not flat.multiplicity_one

    assert growing.multiplicity_one
    assert bounded.multiplicity_one


def test_degenerate_inputs_rejected():
    with pytest.raises(GKError):
        build_spectrum([1.0])
    with pytest.raises(GKError):
        build_spectrum([0.0, 1.0, 0.0, 3.0])  # interior zero kills the products
    # a zero ground level is the usual case and must pass
    build_spectrum([0.0, 1.0, 2.0])


def test_imaginary_gap_tail():
    drifting = build_spectrum([n + 1j / (n + 1) for n in range(12)])
    assert drifting.delta_e_tail > 1e-4
    steady = build_spectrum([n + 0.4j for n in range(12)])
    assert steady.delta_e_tail == 0.0


# ---------------------------------------------------------------------------
# normalization

def test_normalization_matches_exponential_closed_forms():
    lin = spectrum_from_formula(lambda n: float(n), 60)
    dbl = spectrum_from_formula(lambda n: 2.0 * n, 60)
    for j in np.linspace(0.0, 10.0, 41):
        assert abs(normalization_K(lin, j) - math.exp(-j / 2)) <= 1e-10
        assert abs(normalization_K(dbl, j) - math.exp(-j / 4)) <= 1e-10


def test_normalization_is_strictly_decreasing():
    s = spectrum_from_formula(lambda n: 2.0 * n, 60)
    values = [normalization_K(s, j) for j in np.linspace(0.0, 8.0, 30)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[0] == 1.0


def test_normalization_rejects_bad_actions():
    s = spectrum_from_formula(lambda n: float(n), 30)
    with pytest.raises(GKError):
        normalization_K(s, -0.5)
    bounded = build_spectrum([1 - 1 / (n + 1) for n in range(20)])
    with pytest.raises(GKError):
        normalization_K(bounded, 2.0)  # outside the finite radius
    short = spectrum_from_formula(lambda n: float(n), 8)
    with pytest.raises(GKError):
        normalization_K(short, 10.0)  # the series has not settled by n=8


# ---------------------------------------------------------------------------
# the certified action domain

def test_flat_norms_and_growing_spectrum_certify_everything():
    s = spectrum_from_formula(lambda n: 2.0 * n, 20)
    dom = gk_domain(s, [1.0] * 20, [1.0] * 20)
    assert math.isinf(dom.j_min)
    assert dom.delta_e_ok


def test_imaginary_drift_collapses_the_domain():
    s = build_spectrum([n + 1j / (n + 1) for n in range(12)])
    dom = gk_domain(s, [1.0] * 12, [1.0] * 12)
    assert dom.j_min == 0.0
    assert not dom.delta_e_ok
    assert any("certified" in note for note in dom.notes)
    # even the vacuum label is refused once nothing is certified
    with pytest.raises(GKError):
        build_state(s, "phi", 0.0, 0.0, 1e-10, dom, 12)


def test_constant_imaginary_part_is_harmless():
    s = build_spectrum([n + 0.4j for n in range(12)])
    dom = gk_domain(s, [1.0] * 12, [1.0] * 12)
    assert dom.delta_e_ok
    assert math.isinf(dom.j_min)


def test_deformed_oscillator_growth_stays_within_the_multiplier_bounds(dh):
    m, _, _, _, dom = dh
    big = m.constants["M"]
    assert dom.a_phi <= math.exp(big) * 1.05
    assert dom.r_phi == pytest.approx(1.0, abs=0.01)
    assert math.isinf(dom.j_min)


# ---------------------------------------------------------------------------
# state construction

def test_vacuum_label_reproduces_the_ground_slot(dh):
    _, phis, psis, s, _ = dh
    st = state_pair(s, phis, psis, 0.0, 1.3, 1e-10, 2)[0]
    assert st.k == 1.0
    assert st.tail == 0.0
    assert st.coefficients[0] == pytest.approx(1.0)
    assert np.max(np.abs(st.coefficients[1:])) == 0.0
    assert np.max(np.abs(st.function.values - phis[0].values)) <= 1e-14


def test_state_input_validation(dh):
    _, _, _, s, dom = dh
    with pytest.raises(GKError, match="family must be"):
        build_state(s, "chi", 0.5, 0.0, 1e-10, dom, len(s))
    with pytest.raises(GKError):
        build_state(s, "phi", -0.1, 0.0, 1e-10, dom, len(s))


def test_an_empty_family_is_named_in_a_gk_error(dh):
    _, phis, psis, s, _ = dh
    with pytest.raises(GKError, match="the phi family is empty"):
        state_pair(s, [], psis, 0.5, 0.0, 1e-10, 2)
    with pytest.raises(GKError, match="the psi family is empty"):
        state_pair(s, phis, [], 0.5, 0.0, 1e-10, 2)


@pytest.mark.parametrize("j", [0.0, 0.5])
def test_an_angle_label_whose_coefficients_overflow_is_rejected(dh, j):
    _, phis, _, s, dom = dh
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected before any overflow warning
        with pytest.raises(GKError, match="gamma=1e\\+308 is too large"):
            state_pair(s, phis, phis, j, 1e308, 1e-10, 2)
        # a constant imaginary part: exp(Im E_n gamma) overflows at a moderate label
        with pytest.raises(GKError, match="gamma=2000 is too large"):
            build_state(build_spectrum(s.energies + 0.5j), "phi", j, 2000.0, 1e-10, dom, len(s))
    assert build_state(s, "phi", j, 1e200, 1e-10, dom, len(s)).tail >= 0.0


def test_action_outside_certified_domain_rejected(harm):
    s = build_spectrum([1 - 1 / (n + 1) for n in range(20)])
    with pytest.raises(GKError, match="certified domain"):
        state_pair(s, harm, harm, 0.96, 0.0, 1e-10, 2)
    dom = gk_domain(s, [1.0] * 20, [1.0] * 20)
    assert dom.j_min == pytest.approx(s.radius)
    with pytest.raises(GKError, match="certified domain"):
        build_state(s, "phi", 0.96, 0.0, 1e-10, dom, 20)


def test_short_basis_leaves_a_visible_tail(harm):
    norms = [norm(b) for b in harm[:8]]
    s = spectrum_from_formula(lambda n: 2.0 * n, 60)
    with pytest.raises(GKError, match="tail"):
        build_state(s, "phi", 9.0, 0.0, 1e-10, gk_domain(s, norms, norms), 8)


def test_mixed_grids_rejected(dh):
    _, phis, _, s, dom = dh
    other = Grid(10.0, 1025)
    stray = GridFunction(other, np.exp(-other.x ** 2))
    with pytest.raises(GKError, match="different grids"):
        state_pair(s, [phis[0], stray], phis, 0.1, 0.0, 1e-10, 2)


def test_payload_round_trips_through_json(dh_pair_states):
    phi, _ = dh_pair_states
    payload = phi.payload()
    assert set(payload) == {"family", "sector", "J", "gamma", "N", "K",
                            "coefficients", "tail"}
    assert payload["family"] == "phi"
    assert payload["N"] == len(payload["coefficients"])
    assert all(len(pair) == 2 for pair in payload["coefficients"])
    again = json.loads(json.dumps(payload))
    assert again["J"] == phi.j
    assert again["coefficients"][3] == [phi.coefficients[3].real,
                                        phi.coefficients[3].imag]


# ---------------------------------------------------------------------------
# pairing

def test_pairing_is_one_on_both_routes(dh_pair_states):
    phi, psi = dh_pair_states
    assert abs(pair_norm(phi, psi) - 1.0) <= 1e-12
    assert abs(inner(phi.function, psi.function) - 1.0) <= 1e-8


def test_pairing_is_one_across_random_labels(dh):
    _, phis, psis, s, dom = dh
    rng = np.random.default_rng(20260822)
    for _ in range(20):
        j = float(rng.uniform(0.0, 6.0))
        gamma = float(rng.uniform(-3.0, 3.0))
        phi = build_state(s, "phi", j, gamma, 1e-6, dom, len(s))
        psi = build_state(s, "psi", j, gamma, 1e-6, dom, len(s))
        assert abs(pair_norm(phi, psi) - 1.0) <= 1e-12


def test_pairing_validates_the_partners(dh):
    _, phis, psis, s, dom = dh
    phi = build_state(s, "phi", 0.5, 0.2, 1e-10, dom, len(s))
    psi = build_state(s, "psi", 0.5, 0.2, 1e-10, dom, len(s))
    other = build_state(s, "psi", 0.7, 0.2, 1e-10, dom, len(s))
    with pytest.raises(GKError):
        pair_norm(phi, other)  # labels differ
    with pytest.raises(GKError):
        pair_norm(psi, phi)  # families swapped
    with pytest.raises(GKError):
        pair_norm(phi, phi)


# ---------------------------------------------------------------------------
# moments

def test_linear_spectra_get_exponential_densities():
    lin = spectrum_from_formula(lambda n: float(n), 14)
    md = moment_density(lin)
    assert md.solved and md.scale == pytest.approx(1.0)
    checks = moment_residuals(lin, md)
    assert len(checks) == 11
    assert all(c.passed for c in checks)
    assert max(c.residual for c in checks) <= 1e-8

    dbl = spectrum_from_formula(lambda n: 2.0 * n, 14)
    md2 = moment_density(dbl)
    assert md2.scale == pytest.approx(2.0)
    assert all(c.passed for c in moment_residuals(dbl, md2))


def _oracle_moment(density, power, j_upper):
    """One power on its own refinement ladder: the per-power Simpson that the
    shared-node moments must reproduce bit for bit."""
    calls = []

    def integrand(u):
        calls.append(len(u))
        return 2.0 * u ** (2.0 * power + 1.0) * np.asarray(density(u * u), dtype=float)

    value = _panel_simpson(integrand, 0.0, math.sqrt(j_upper), rel_tol=1e-11)
    return value, len(calls)


def _bits(values):
    return np.array(values, dtype=np.float64).view(np.uint64)


# spectra with |E_n| = c*n, whose moment density is exp(-J/c)/c
_LINEAR_SPECTRA = {
    "harmonic": get_model("harmonic").energy,
    "deformed-harmonic": get_model("deformed-harmonic").energy,
    "scale-0.7": lambda k: 0.7 * k,
    "scale-3.3": lambda k: 3.3 * k,
}


def _assert_ladder_matches_per_power_simpson(s, frac):
    md = moment_density(s)
    assert md.label.startswith("exponential")
    j_upper = max(10.0, 40.0 * s.min_gap) * frac  # resolution_estimate's j_max
    powers = [0.5 * p for p in range(2 * len(s) - 1)]
    got = _finite_power_moments(md.density, powers, j_upper)
    want = [_oracle_moment(md.density, p, j_upper)[0] for p in powers]
    assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("model", sorted(_LINEAR_SPECTRA))
@pytest.mark.parametrize("n", [2, 12, 26, 40])
@pytest.mark.parametrize("frac", [0.25, 0.5, 1.0])
def test_shared_ladder_moments_match_per_power_simpson_bit_for_bit(model, n, frac):
    _assert_ladder_matches_per_power_simpson(spectrum_from_formula(_LINEAR_SPECTRA[model], n), frac)


# a quarter of the profile's examples: 25 in tier-1, 500 with --hypothesis-profile=long
@settings(max_examples=settings.default.max_examples // 4, deadline=None)
@given(st.floats(0.1, 10.0), st.integers(2, 45), st.floats(0.01, 1.0))
@example(2.271214539208534, 19, 0.01)  # a column power misses u**2.0 by an ulp here
def test_shared_ladder_matches_per_power_simpson_on_drawn_spectra(c, n, frac):
    _assert_ladder_matches_per_power_simpson(spectrum_from_formula(lambda k: c * k, n), frac)


def _oscillating(j):  # unresolved at every level: Simpson never settles on it
    return np.cos(1e9 * np.asarray(j, dtype=float))


def test_shared_ladder_moments_keep_the_last_value_of_an_unsettled_power():
    powers = [0.0, 0.5, 3.0]
    want = [_oracle_moment(_oscillating, p, 9.0) for p in powers]
    assert all(levels == 14 for _, levels in want)  # every _SIMPSON_REFINES level run
    got = _finite_power_moments(_oscillating, powers, 9.0)
    assert np.array_equal(_bits(got), _bits([value for value, _ in want]))


def test_shared_ladder_settles_some_powers_while_others_run_out():
    # on [0, 0.25] the high powers weigh the oscillation below the stop test
    powers = [0.0, 0.5, 3.0, 20.0, 25.0]
    want = [_oracle_moment(_oscillating, p, 0.25) for p in powers]
    levels = [count for _, count in want]
    assert levels[0] == 14 and min(levels) < 14
    got = _finite_power_moments(_oscillating, powers, 0.25)
    assert np.array_equal(_bits(got), _bits([value for value, _ in want]))


@pytest.mark.parametrize("frac", [0.25, 0.5, 1.0])
def test_shared_ladder_peak_memory_in_chunks(frac):
    # The rows still refining are summed in chunks of about 2 * _BLOCK cells.
    # The peak is the deepest level's node arrays (16385 nodes at a quarter
    # of the upper limit: 5.0 chunks' bytes measured) or a chunk with the
    # level's arrays (2.8-2.9); all 51 rows at once take 15.6 chunks at a
    # quarter of the limit and 10.7 at a half.
    s = spectrum_from_formula(get_model("deformed-harmonic").energy, 26)
    md = moment_density(s)
    powers = [0.5 * p for p in range(51)]
    j_upper = max(10.0, 40.0 * s.min_gap) * frac
    tracemalloc.start()
    try:
        _finite_power_moments(md.density, powers, j_upper)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 8 * (2 * _BLOCK)


def test_unsolved_spectra_are_reported_not_guessed():
    phases = build_spectrum([0] + [np.exp(0.3j * n) for n in range(1, 10)])
    md = moment_density(phases)
    assert not md.solved
    assert md.label == "unit-moments"
    quad = spectrum_from_formula(lambda n: float(n * n), 10)
    md2 = moment_density(quad)
    assert not md2.solved and md2.label is None
    with pytest.raises(GKError):
        moment_residuals(quad, md2)


# ---------------------------------------------------------------------------
# resolving the identity

def test_angle_average_closed_form_matches_quadrature(gamma_average):
    for w, big_gamma in ((1.7, 50.0), (-2.3, 25.0), (0.4, 200.0)):
        averaged = gamma_average(lambda g: np.exp(1j * w * g), big_gamma)
        assert abs(averaged - _sinc(np.array([w * big_gamma]))[0]) <= 1e-9
    assert _sinc(np.array([0.0]))[0] == 1.0
    near = _sinc(np.array([1e-7, 2e-6]))
    assert abs(near[0] - (1 - 1e-14 / 6)) <= 1e-15
    assert abs(near[1] - math.sin(2e-6) / 2e-6) <= 1e-15


def test_identity_estimate_approaches_the_target(dh):
    _, phis, psis, s, _ = dh
    md = moment_density(s)
    f = phis[0]
    rep = resolution_estimate(*_overlaps(f, f, phis, psis, 12), s, md)
    errs = [p.abs_error for p in rep.gamma_trace]
    worsened = sum(1 for a, b in zip(errs, errs[1:]) if b > a)
    assert worsened <= 1
    assert rep.gamma_trace[-1].rel_error < 0.05
    assert abs(rep.target - inner(f, f)) == 0.0


def test_cross_estimates_stay_near_zero(dh):
    _, phis, psis, s, _ = dh
    md = moment_density(s)
    diag = resolution_estimate(*_overlaps(phis[1], psis[1], phis, psis, 12), s, md)
    cross = resolution_estimate(*_overlaps(phis[1], psis[2], phis, psis, 12), s, md)
    assert abs(cross.target) <= 1e-8
    assert all(p.rel_error is None for p in cross.gamma_trace)
    scale = abs(diag.estimate)
    assert all(abs(p.value) <= 0.01 * scale for p in cross.gamma_trace)
    assert abs(cross.gamma_trace[-1].value) <= abs(cross.gamma_trace[0].value)


def test_resolution_preconditions(dh):
    _, phis, psis, s, _ = dh
    flat = build_spectrum([3.0] * 12)
    md = moment_density(s)
    overlaps = _overlaps(phis[0], psis[0], phis, psis, 12)
    with pytest.raises(GKError, match="coincident"):
        resolution_estimate(*overlaps, flat, md)
    unsolved = moment_density(spectrum_from_formula(lambda n: float(n * n), 12))
    with pytest.raises(GKError, match="density"):
        resolution_estimate(*overlaps, s, unsolved)
    with pytest.raises(GKError, match="at least two levels"):
        resolution_estimate(*_overlaps(phis[0], psis[0], phis, psis, 1), s, md)
    f_coeff, g_coeff, target = overlaps
    with pytest.raises(GKError, match="truncation exceeds"):
        resolution_estimate(f_coeff, g_coeff[:11], target, s, md)
    with pytest.raises(GKError, match="truncation exceeds"):
        resolution_estimate(f_coeff, g_coeff, target, spectrum_from_formula(lambda n: 2.0 * n, 11),
                            md)


def _oracle_resolution(f_coeff, g_coeff, s, md):
    """The trace values of ``resolution_estimate`` as its n^2 loop formed them: each
    moment on a Simpson ladder of its own, each T-matrix entry one numpy
    scalar division by a numpy scalar product, the window at every point."""
    n = len(f_coeff)
    j_max = max(10.0, 40.0 * s.min_gap)
    e = s.energies[:n]

    def t_matrix(upper):
        powers = [_oracle_moment(md.density, 0.5 * p, upper)[0] for p in range(2 * n - 1)]
        t = np.empty((n, n), dtype=np.complex128)
        for a in range(n):
            for b in range(n):
                t[a, b] = powers[a + b] / (s.sqrt_rho[a] * np.conjugate(s.sqrt_rho[b]))
        return t

    def value(big_gamma, levels, t):
        w = _sinc(big_gamma * (e[None, :] - e[:, None]))[:levels, :levels]
        return complex(np.einsum("a,ab,b->", f_coeff[:levels], w * t[:levels, :levels],
                                 g_coeff[:levels]))

    t_full = t_matrix(j_max)
    n_trace = sorted({max(2, n // 2), max(2, (3 * n) // 4), n})
    return ([value(gv, n, t_full) for gv in (25.0, 50.0, 100.0, 200.0)]
            + [value(200.0, n, t_matrix(j_max * frac)) for frac in (0.25, 0.5, 1.0)]
            + [value(200.0, levels, t_full) for levels in n_trace])


# E_n = c n e^(i theta): real at theta = 0, complex products otherwise.  The
# window grows like exp(Gamma |Im dE|), so the complex spectra take a small c
# to keep the trace finite up to Gamma = 200.
@pytest.mark.parametrize("c, theta", [(0.7, 0.0), (2.0, 0.0), (0.1, 0.3), (0.1, 1.1)])
@pytest.mark.parametrize("n", [3, 12, 26])
def test_resolution_trace_matches_the_scalar_t_matrix_bit_for_bit(c, theta, n):
    s = spectrum_from_formula(lambda k: c * k * cmath.exp(1j * theta), n)
    md = moment_density(s)
    f_coeff, g_coeff = np.random.default_rng(n).normal(size=(2, n, 2)) @ np.array([1.0, 1.0j])
    rep = resolution_estimate(f_coeff, g_coeff, 0.8 - 0.3j, s, md)
    got = [p.value for p in rep.gamma_trace + rep.j_trace + rep.n_trace]
    want = _oracle_resolution(f_coeff, g_coeff, s, md)
    assert np.isfinite(got).all()
    assert np.array_equal(np.array(got).view(np.uint64), np.array(want).view(np.uint64))
    assert rep.estimate == got[3]


def test_a_trace_past_double_range_is_refused():
    # at c = 2 the theta = 0.3 window grows to 1e253 by Gamma = 100 and
    # overflows at Gamma = 200, where the estimate would read nan
    grid = Grid(8, 257)
    family = [GridFunction(grid, grid.x ** n * np.exp(-grid.x ** 2 / 2)) for n in range(12)]
    s = build_spectrum([2 * n * cmath.exp(0.3j) for n in range(12)])
    with pytest.raises(GKError, match="leaves double range at Gamma=200"):
        resolution_estimate(*_overlaps(family[0], family[0], family, family, 12), s,
                            moment_density(s))


# ---------------------------------------------------------------------------
# the action identity and evolution

def test_action_identity_returns_the_action(dh_pair_states, dh):
    m, _, _, _, _ = dh
    phi, psi = dh_pair_states
    val = action_identity(phi, psi)
    assert abs(val - phi.j) <= 1e-8
    grid_val = inner(psi.function, apply_H1(m.pair, phi.function))
    assert abs(grid_val - phi.j) <= 1e-5


def test_action_identity_for_unit_spaced_levels(harm):
    # the pairing telescopes for any E_0 = 0 ladder, not only even spacing
    s = spectrum_from_formula(lambda n: float(n), 20)
    phi, psi = state_pair(s, harm, harm, 0.8, 0.4, 1e-10, 2)[:2]
    assert abs(action_identity(phi, psi) - 0.8) <= 1e-8


def test_action_identity_preconditions():
    shifted = spectrum_from_formula(lambda n: n + 0.5, 20)
    dom = gk_domain(shifted, [1.0] * 20, [1.0] * 20)
    phi = build_state(shifted, "phi", 0.5, 0.0, 1e-10, dom, 20)
    psi = build_state(shifted, "psi", 0.5, 0.0, 1e-10, dom, 20)
    with pytest.raises(GKError, match="E_0"):
        action_identity(phi, psi)
    steady = build_spectrum([n + 0.4j for n in range(20)])
    dom2 = gk_domain(steady, [1.0] * 20, [1.0] * 20)
    phi2 = build_state(steady, "phi", 0.5, 0.0, 1e-10, dom2, 20)
    psi2 = build_state(steady, "psi", 0.5, 0.0, 1e-10, dom2, 20)
    with pytest.raises(GKError, match="real"):
        action_identity(phi2, psi2)


def test_evolution_shifts_the_angle(dh_pair_states):
    phi, _ = dh_pair_states
    moved = evolve(phi, 0.9)
    assert moved.gamma == pytest.approx(phi.gamma + 0.9)
    assert np.allclose(np.abs(moved.coefficients), np.abs(phi.coefficients),
                       rtol=1e-13)  # real spectrum: moduli are invariant
    frozen = evolve(phi, 0.0)
    assert np.array_equal(frozen.coefficients, phi.coefficients)


def test_evolution_composes(dh_pair_states):
    phi, psi = dh_pair_states
    for state in (phi, psi):
        two_step = evolve(evolve(state, 0.3), 0.4)
        one_step = evolve(state, 0.7)
        assert np.max(np.abs(two_step.coefficients - one_step.coefficients)) <= 1e-12


def test_evolution_conjugates_for_the_dual_family():
    steady = build_spectrum([n + 0.4j for n in range(20)])
    dom = gk_domain(steady, [1.0] * 20, [1.0] * 20)
    psi = build_state(steady, "psi", 0.5, 0.0, 1e-10, dom, 20)
    moved = evolve(psi, 0.6)
    expected = psi.coefficients * np.exp(-1j * np.conjugate(steady.energies[:20]) * 0.6)
    assert np.max(np.abs(moved.coefficients - expected)) <= 1e-12


# ---------------------------------------------------------------------------
# lowering operators

def test_states_are_lowering_eigenvectors(dh):
    _, _, _, s, dom = dh
    for gamma in (0.0, 1.0, math.pi):
        phi = build_state(s, "phi", 1.0, gamma, 1e-10, dom, len(s))
        psi = build_state(s, "psi", 1.0, gamma, 1e-10, dom, len(s))
        assert lowering_defect(phi) <= 1e-8
        assert lowering_defect(psi) <= 1e-8


def test_lowering_handles_complex_spectra():
    # interior rows cancel to rounding; what survives is the top row's
    # truncation footprint sqrt(J) |c_{N-1}|
    steady = build_spectrum([n + 0.4j for n in range(20)])
    dom = gk_domain(steady, [1.0] * 20, [1.0] * 20)
    for family in ("phi", "psi"):
        st = build_state(steady, family, 0.8, 1.1, 1e-10, dom, 20)
        footprint = math.sqrt(st.j) * abs(st.coefficients[-1])
        assert lowering_defect(st) <= footprint * (1 + 1e-6) + 1e-14


def test_oscillator_like_growth_keeps_an_open_domain(grid):
    sw = get_model("swanson", theta=math.pi / 8)
    n = 18
    basis = [sw.phi1(k, grid) for k in range(n)]
    s = spectrum_from_formula(sw.energy, n)
    assert math.isinf(s.radius)
    dom = gk_domain(s, [norm(b) for b in basis], [norm(b) for b in basis])
    assert math.isinf(dom.j_min)
    st = build_state(s, "phi", 0.5, 0.0, 1e-3, dom, n)
    assert st.tail <= 1e-3
    assert 0.0 < st.k < 1.0
