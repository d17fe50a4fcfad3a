"""Grid, quadrature, derivative, and carrier checks against closed forms."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susyq.expr import parse
from susyq.gk import GKError, _walk
from susyq.models import get_model
from susyq.numerics import (
    DecayFit,
    Grid,
    GridFunction,
    NonConvergenceError,
    PoleOnGridError,
    RepresentationError,
    ScaledGridFunction,
    biorthogonality_defect,
    cumulative_antiderivative,
    derivative,
    fitted_decay_exponents,
    inner,
    integrate_halfline,
    interior_norm,
    norm,
    relative_residual,
    sample,
)
from susyq import numerics, susy
from susyq.numerics import (_BLOCK, _EDGE_STENCILS, _LOG_HUGE, _Stencil, _blocks, _copy,
                             _one_sided_weights)


def test_grid_spacing_and_endpoints():
    g = Grid(12.0, 4097)
    assert g.x[0] == -12.0
    assert g.x[-1] == 12.0
    assert abs(g.spacing - 24.0 / 4096) < 1e-15
    assert np.allclose(np.diff(g.x), g.spacing)


def test_grid_rejects_bad_parameters():
    with pytest.raises(ValueError):
        Grid(0.0, 101)
    with pytest.raises(ValueError):
        Grid(-3.0, 101)
    with pytest.raises(ValueError):
        Grid(5.0, 15)
    for half_width in (math.inf, 1e308, 1e-162):
        with pytest.raises(ValueError):
            Grid(half_width, 101)
    # the extremes that doubles still hold
    assert np.isfinite(Grid(8e307, 101).x).all()
    assert Grid(3e-162, 101).spacing > 0


@pytest.mark.parametrize("n", [16, 17, 64, 4097])
def test_simpson_weights_integrate_cubics_exactly(n):
    g = Grid(1.0, n)
    w = g.simpson_weights
    assert abs(np.sum(w) - 2.0) < 1e-13
    assert abs(np.dot(w, g.x**2) - 2.0 / 3.0) < 1e-13
    assert abs(np.dot(w, g.x**3)) < 1e-13


def test_gaussian_norm_matches_pi_quarter():
    # ||exp(-x^2/2)||^2 = integral exp(-x^2) = sqrt(pi)
    g = Grid(12.0, 4097)
    f = sample(parse("exp(0 - x^2 / 2)"), g)
    assert abs(norm(f) - math.pi**0.25) < 1e-12


def test_sample_reports_pole_location():
    g = Grid(1.0, 17)  # odd point count puts x = 0 on the grid
    with pytest.raises(PoleOnGridError) as err:
        sample(parse("1 / x"), g)
    assert err.value.x == 0.0
    assert err.value.count == 1
    # even point count straddles the pole and sampling succeeds
    sample(parse("1 / x"), Grid(1.0, 16))


@pytest.mark.parametrize("order,expected", [(1, "4 * x^3"), (2, "12 * x^2")])
def test_derivative_exact_on_quartic_including_edges(order, expected):
    g = Grid(2.0, 33)
    f = sample(parse("x^4"), g)
    want = sample(parse(expected), g)
    got = derivative(f, order)
    assert np.max(np.abs(got.values - want.values)) < 1e-10


def test_derivative_fourth_order_convergence():
    e = parse("sin(2 * x)")
    errs = []
    for n in (129, 257):
        g = Grid(3.0, n)
        d = derivative(sample(e, g), 1)
        want = 2 * np.cos(2 * g.x)
        errs.append(np.max(np.abs(d.values - want)))
    # halving h should shrink the error by about 2^4
    assert errs[1] < errs[0] / 12


def test_scaled_derivative_uses_exact_scale_derivatives():
    g = Grid(12.0, 513)
    ones = np.ones(g.n_points)
    f = ScaledGridFunction(g, ones, g.x**2, dlog=2 * g.x, d2log=2 * ones)
    d1 = derivative(f, 1)
    assert np.allclose(d1.values, 2 * g.x, rtol=1e-12, atol=1e-10)
    d2 = derivative(f, 2)
    assert np.allclose(d2.values, 2 + 4 * g.x**2, rtol=1e-12, atol=1e-9)


def test_a_scaled_derivative_needs_the_exact_scale_derivatives_it_reads():
    g = Grid(3.0, 65)
    p = susy.build_pair(parse("x"), parse("x + 1"))
    values, scale = np.exp(-g.x**2), 0.3 * g.x**2
    bare = GridFunction(g, values, scale)
    for call in (lambda: derivative(bare, 1), lambda: derivative(bare, 2),
                 lambda: susy.apply_A(p, bare), lambda: susy.apply_H1(p, bare)):
        with pytest.raises(ValueError, match="dlog"):
            call()
    # a first-order pass reads dlog only, and gives the bits of a full carrier
    first = GridFunction(g, values, scale, dlog=0.6 * g.x)
    full = GridFunction(g, values, scale, 0.6 * g.x, np.full(g.n_points, 0.6))
    assert np.array_equal(_bits(derivative(first, 1).values), _bits(_derivative_oracle(full, 1)))
    assert np.array_equal(_bits(susy.apply_A(p, first).values),
                          _bits(_operator_oracles(p, full)["A"]))
    for call in (lambda: derivative(first, 2), lambda: susy.apply_H1(p, first),
                 lambda: susy.apply_ops(p, first, ["A", "H1"])):
        with pytest.raises(ValueError, match="d2log"):
            call()


def test_scale_derivatives_must_be_finite_and_match_the_grid():
    g = Grid(3.0, 65)
    ones, nan = np.ones(g.n_points), np.full(g.n_points, np.nan)
    for name in ("dlog", "d2log"):
        with pytest.raises(ValueError, match=f"{name} must match the grid length"):
            GridFunction(g, ones, g.x, **{name: np.ones(10)})
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            GridFunction(g, ones, g.x, **{name: nan})


def test_inner_is_conjugate_linear_in_first_slot():
    g = Grid(6.0, 129)
    f = sample(parse("exp(0 - x^2) * (1 + 2i)"), g)
    h = sample(parse("exp(0 - x^2) * x"), g)
    assert abs(inner(1j * f, h) - (-1j) * inner(f, h)) < 1e-14
    assert abs(inner(f, 1j * h) - 1j * inner(f, h)) < 1e-14


def test_scaled_pairing_cancels_huge_exponents():
    # exp(+500) carrier against exp(-500) carrier: product is order one
    g = Grid(2.0, 65)
    up = ScaledGridFunction(g, np.ones(g.n_points), np.full(g.n_points, 500.0))
    down = ScaledGridFunction(g, np.ones(g.n_points), np.full(g.n_points, -500.0))
    assert abs(inner(up, down) - 4.0) < 1e-12
    with pytest.raises(RepresentationError):
        inner(up, up)  # combined exponent 1000 overflows even though each half fits
    assert up.representable()
    huge = ScaledGridFunction(g, np.ones(g.n_points), np.full(g.n_points, 800.0))
    assert not huge.representable()
    with pytest.raises(RepresentationError):
        huge.materialize()


def test_scaled_materialize_round_trip():
    g = Grid(3.0, 65)
    f = ScaledGridFunction(g, np.exp(1j * g.x), -0.5 * g.x**2)
    plain = f.materialize()
    assert np.allclose(plain.values, np.exp(1j * g.x - 0.5 * g.x**2), rtol=1e-14)


def _plain_and_zero_scaled():
    """One function as a plain carrier and as a carrier with log_scale = 0."""
    g = Grid(6.0, 257)
    v = np.exp(-g.x**2 / 2) * (1 + 0.3j * g.x)
    zeros = np.zeros(g.n_points)
    return GridFunction(g, v), GridFunction(g, v, zeros, zeros, zeros)


def test_zero_log_scale_agrees_with_the_plain_carrier():
    plain, scaled = _plain_and_zero_scaled()
    for order in (1, 2):
        assert np.array_equal(derivative(scaled, order).values, derivative(plain, order).values)
        assert np.array_equal(derivative(numerics.as_scaled(plain), order).values,
                              derivative(plain, order).values)
    for f in (plain, scaled):
        with pytest.raises(ValueError):
            derivative(f, 3)
    assert abs(inner(scaled, scaled) - inner(plain, plain)) < 1e-14
    assert abs(inner(plain, scaled) - inner(plain, plain)) < 1e-14
    assert abs(norm(scaled) - norm(plain)) < 1e-14
    num_s, num_p = scaled - 0.9 * scaled, plain - 0.9 * plain
    assert relative_residual(num_s, scaled) == relative_residual(num_p, plain)
    assert relative_residual(num_p, scaled) == relative_residual(num_p, plain)


def test_mismatched_scales_are_rejected():
    plain, scaled = _plain_and_zero_scaled()
    shifted = GridFunction(plain.grid, plain.values, np.ones(plain.grid.n_points))
    for a, b in ((plain, scaled), (scaled, shifted), (shifted, plain)):
        with pytest.raises(ValueError):
            a + b
        with pytest.raises(ValueError):
            a - b
    with pytest.raises(ValueError):
        relative_residual(shifted, scaled)
    with pytest.raises(ValueError):
        relative_residual(plain, shifted)
    with pytest.raises(GKError):
        _walk([plain, scaled], np.array([1.0, 1.0]))
    assert _walk([scaled, scaled], np.array([1.0, 2.0]))[1].log_scale is scaled.log_scale


def test_scalar_products_keep_the_operand_order():
    # complex products are not bitwise commutative in every numpy build
    c = 0.7 + 0.3j
    for f in _plain_and_zero_scaled():
        assert (c * f).values.tobytes() == (c * f.values).tobytes()
        assert (f * c).values.tobytes() == (f.values * c).tobytes()
        assert (np.complex128(c) * f).values.tobytes() == (np.complex128(c) * f.values).tobytes()
        assert (c * f).log_scale is f.log_scale


def test_non_finite_values_are_poles_with_or_without_a_scale():
    g = Grid(2.0, 17)
    bad = np.ones(g.n_points)
    bad[3] = np.inf
    for scale in (None, np.zeros(g.n_points)):
        with pytest.raises(PoleOnGridError):
            GridFunction(g, bad, scale)
    with pytest.raises(ValueError):
        GridFunction(g, np.ones(g.n_points), np.full(g.n_points, np.nan))


def test_finite_values_whose_sum_overflows_are_accepted():
    g = Grid(2.0, 17)
    f = GridFunction(g, [1e308] * g.n_points)
    assert np.all(f.values == 1e308)


@pytest.mark.parametrize("bad_at", [[5], [0, 11]])
def test_a_nan_imaginary_part_is_reported_with_index_and_count(bad_at):
    g = Grid(2.0, 17)
    values = np.full(g.n_points, 1e308, dtype=np.complex128)
    values[bad_at] = complex(1.0, np.nan)
    with pytest.raises(PoleOnGridError) as err:
        GridFunction(g, values)
    assert err.value.index == bad_at[0]
    assert err.value.count == len(bad_at)
    assert err.value.x == float(g.x[bad_at[0]])


def test_relative_residual_invariant_under_scale_shift():
    g = Grid(5.0, 257)
    rng = np.random.default_rng(7)
    num_v = rng.normal(size=g.n_points) * 1e-9
    den_v = rng.normal(size=g.n_points) + 2.0
    sigma = -0.3 * g.x**2
    r0 = relative_residual(
        ScaledGridFunction(g, num_v, sigma), ScaledGridFunction(g, den_v, sigma)
    )
    r1 = relative_residual(
        ScaledGridFunction(g, num_v, sigma + 1000.0),
        ScaledGridFunction(g, den_v, sigma + 1000.0),
    )
    assert abs(r0 - r1) < 1e-15 * max(r0, 1.0)
    assert r0 < 1e-8


def test_relative_residual_excludes_marked_singularities():
    g = Grid(5.0, 257)
    num = np.zeros(g.n_points)
    j = np.argmin(np.abs(g.x - 1.0))
    num[j] = 1e6  # spike at the declared singular point
    r = relative_residual(
        GridFunction(g, num), GridFunction(g, np.ones(g.n_points)), exclude=[1.0]
    )
    assert r == 0.0


def test_cumulative_antiderivative_of_cosine():
    g = Grid(12.0, 4097)
    vals = np.cos(g.x)
    w = cumulative_antiderivative(vals, g, dvalues=-np.sin(g.x))
    assert np.max(np.abs(w - np.sin(g.x))) < 1e-10


def test_cumulative_antiderivative_vanishes_near_origin():
    g = Grid(12.0, 4096)  # even count: origin between points
    w = cumulative_antiderivative(np.exp(-g.x), g, dvalues=-np.exp(-g.x))
    j0 = np.argmin(np.abs(g.x))
    assert w[j0] == 0.0


@pytest.mark.parametrize("n", range(6))
def test_halfline_integral_reproduces_factorials(n):
    out = integrate_halfline(lambda t, n=n: t**n * np.exp(-t))
    assert abs(out - math.factorial(n)) < 1e-8 * math.factorial(n)


def test_halfline_integral_gaussian():
    out = integrate_halfline(lambda t: np.exp(-(t**2)))
    assert abs(out - math.sqrt(math.pi) / 2) < 1e-10


def test_halfline_integral_raises_without_decay():
    with pytest.raises(NonConvergenceError):
        integrate_halfline(lambda t: 1.0 / (1.0 + t))


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _fd_interior_oracle(v, h, order):
    """The interior stencil as array expressions: the complex expression it
    replaced, and for float64 input the real sum times 1 / (12 h**order)."""
    if order == 1:
        total, d = v[:-4] - 8 * v[1:-3] + 8 * v[3:-1] - v[4:], 12 * h
    else:
        total, d = -v[:-4] + 16 * v[1:-3] - 30 * v[2:-2] + 16 * v[3:-1] - v[4:], 12 * h * h
    return total * (1.0 / d) if v.dtype == np.float64 else total / d


def _stencil_inputs(n):
    rng = np.random.default_rng(n)
    signed = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -2.25])

    def cplx(re, im):
        z = np.empty(len(re), dtype=np.complex128)
        z.real, z.imag = re, im
        return z

    normal = cplx(rng.standard_normal(n), rng.standard_normal(n))
    sparse_zero = normal.copy()
    sparse_zero[n // 3] = complex(-0.0, 1.0)
    sparse_zero[n // 2] = complex(1.0, -0.0)
    return {
        "complex": normal,
        "complex signed zeros": cplx(rng.choice(signed, n), rng.choice(signed, n)),
        "complex with two -0.0": sparse_zero,
        "real-valued complex": cplx(rng.standard_normal(n), np.zeros(n)),
        "float64": rng.standard_normal(n),
        "float64 signed zeros": rng.choice(signed, n),
        "subnormal": cplx(rng.standard_normal(n) * 1e-310, rng.standard_normal(n) * 1e-312),
        "about 1e300": cplx(rng.standard_normal(n) * 1e300, rng.standard_normal(n) * 1e300),
        "overflowing": cplx(rng.choice([1e307, -1e307, 1.0], n), rng.standard_normal(n)),
        "non-contiguous": cplx(rng.standard_normal(2 * n), rng.standard_normal(2 * n))[::2],
    }


def _stencil_values(v, h, order):
    """``_Stencil`` run over every block of ``v``, as ``stencil_pass`` runs it
    on a carrier's samples."""
    stencil = _Stencil(v, h, (order,))
    out = np.empty_like(stencil.v)
    for lo, hi in _blocks(len(out)):
        stencil.into(lo, hi, {order: out[lo:hi]})
    return out


def _assert_stencil_contract(got, want, case):
    """``got`` against the complex-expression oracle ``want``.  Where the
    oracle is finite, ``got`` is equal by == on the float64 view and
    bit-equal at every nonzero part: it may differ only in a zero's sign.
    Where the oracle is not finite, neither is ``got``.  Float64 input has
    the bits of the real oracle, which multiplies by 1 / d."""
    assert got.dtype == want.dtype, case
    if got.dtype == np.float64:
        assert np.array_equal(_bits(got), _bits(want)), case
        return
    finite = np.isfinite(want)
    assert not np.isfinite(got[~finite]).any(), case
    g, w = got[finite].view(np.float64), want[finite].view(np.float64)
    assert np.array_equal(g, w), case
    assert np.array_equal(_bits(g[w != 0]), _bits(w[w != 0])), case


# 8197 complex points make the float64 view span two 16384-double blocks
@pytest.mark.parametrize("n", [16, 17, 4096, 4097, 8197])
@pytest.mark.parametrize("order", [1, 2])
def test_fd_interior_is_the_complex_expression_bit_for_bit(n, order):
    grid = Grid(12.0, n)
    for h in (grid.spacing, 0.3):
        for case, v in _stencil_inputs(n).items():
            with np.errstate(over="ignore", invalid="ignore"):
                got = _stencil_values(v, h, order)[2:-2]
                want = _fd_interior_oracle(v, h, order)
            _assert_stencil_contract(got, want, case)
            # a carrier's derivative is the same pass; it holds finite complex samples
            if h == grid.spacing and v.dtype == np.complex128 and np.isfinite(want).all():
                got = derivative(GridFunction(grid, v), order).values[2:-2]
                _assert_stencil_contract(got, want, case)


def _masked_inner(f, g):
    """The scaled pairing with the zero-product mask applied everywhere, on
    complex128 samples: a real carrier has the bits of the complex one."""
    s = f.log_scale + g.log_scale
    p = np.conjugate(f.values.astype(np.complex128)) * g.values.astype(np.complex128)
    mag = np.abs(p)
    with np.errstate(divide="ignore"):
        log_mag = s + np.log(mag)
    out = np.zeros_like(p)
    nz = mag > 0
    out[nz] = (p[nz] / mag[nz]) * np.exp(log_mag[nz])
    return complex(np.sum(f.grid.simpson_weights * out))


@pytest.mark.parametrize("n_points", [4097, 16385])
def test_scaled_inner_is_the_masked_formula_bit_for_bit(n_points):
    g = Grid(12.0, n_points)
    m = get_model("pseudo-bosonic")
    phis = [m.phi1(n, g) for n in range(11)]
    psis = [m.psi1(n, g) for n in range(11)]
    for f in phis:
        for h in psis:
            assert _bits(np.array([inner(f, h)])).tolist() == _bits(
                np.array([_masked_inner(f, h)])).tolist()
            assert _bits(np.array([inner(h, f)])).tolist() == _bits(
                np.array([_masked_inner(h, f)])).tolist()


def test_scaled_inner_with_exactly_zero_products():
    g = Grid(12.0, 4097)
    m = get_model("pseudo-bosonic")
    phi, psi = m.phi1(3, g), m.psi1(2, g)
    holes = psi.with_values(np.where(np.arange(g.n_points) % 5 == 0, 0.0, psi.values))
    got = inner(phi, holes)
    assert got == _masked_inner(phi, holes)
    assert got != inner(phi, psi)


# ---------------------------------------------------------------------------
# the blocked kernels against the whole-array expressions they replaced

_BLOCK_EDGE_SIZES = [16, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3]


def _fd_oracle(v, h, order):
    """The whole derivative: the interior oracle plus the edge dot products."""
    out = np.empty_like(v)
    out[2:-2] = _fd_interior_oracle(v, h, order)
    n = len(v)
    for j, offsets in _EDGE_STENCILS[order].items():
        w = _one_sided_weights(offsets, order) / h**order
        out[j] = np.dot(w, v[j + np.array(offsets)])
        jr = n - 1 - j
        w_r = _one_sided_weights(tuple(-o for o in offsets), order) / h**order
        out[jr] = np.dot(w_r, v[jr + np.array([-o for o in offsets])])
    return out


def _derivative_oracle(f, order):
    """``derivative(f, order).values`` as whole-array expressions."""
    h = f.grid.spacing
    if f.log_scale is None:
        return _fd_oracle(f.values, h, order)
    s1 = f.dlog
    v1 = _fd_oracle(f.values, h, 1)
    if order == 1:
        return v1 + s1 * f.values
    v2 = _fd_oracle(f.values, h, 2)
    return v2 + 2 * s1 * v1 + (f.d2log + s1 * s1) * f.values


def _operator_oracles(p, f):
    """Each ``susy.apply_*`` of ``f`` as the composed whole-array expression."""
    s = p.samples(f.grid)
    d1, d2 = _derivative_oracle(f, 1), _derivative_oracle(f, 2)
    dual_drift = -np.conjugate(s["q1"])
    return {
        "A": +1.0 * d1 + s["w_a"] * f.values,
        "B": -1.0 * d1 + s["w_b"] * f.values,
        "A_dag": -1.0 * d1 + np.conjugate(s["w_a"]) * f.values,
        "B_dag": +1.0 * d1 + np.conjugate(s["w_b"]) * f.values,
        "H1": -d2 + s["q1"] * d1 + s["v1"] * f.values,
        "H2": -d2 + s["q1"] * d1 + s["v2"] * f.values,
        "H1_dag": -d2 + dual_drift * d1 + s["v1_dual"] * f.values,
        "H2_dag": -d2 + dual_drift * d1 + s["v2_dual"] * f.values,
    }


def _carriers(grid, rng):
    """Plain and scaled carriers, with the exact derivatives of each scale;
    -0.0 samples among them."""
    n = grid.n_points
    x = grid.x
    z = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.exp(-x**2 / 8)
    signed = z.copy()
    signed.real[::7] = -0.0
    signed.imag[n // 2] = -0.0
    signed[n - 3] = complex(-0.0, -0.0)
    scale, dlog, d2log = 0.3 * x**2 - 0.5 * x, 0.6 * x - 0.5, np.full(n, 0.6)
    return {
        "plain": GridFunction(grid, z),
        "plain with -0.0": GridFunction(grid, signed),
        "scaled with -0.0": GridFunction(grid, signed, scale, dlog, d2log),
        "scaled": GridFunction(grid, z, scale, dlog, d2log),
        "negated scale with -0.0": GridFunction(grid, signed, -scale, -dlog, -d2log),
    }


@pytest.mark.parametrize("n", _BLOCK_EDGE_SIZES)
def test_blocked_operators_are_the_composed_expressions_bit_for_bit(n):
    grid = Grid(3.0, n)
    p = susy.build_pair(parse("x + 0.3i * cos(x)"), parse("x - 0.5 * tanh(x)"))
    for case, f in _carriers(grid, np.random.default_rng(n)).items():
        want = _operator_oracles(p, f)
        for op, values in want.items():
            got = getattr(susy, f"apply_{op}")(p, f)
            assert np.array_equal(_bits(got.values), _bits(values)), (case, op)
            assert got.log_scale is f.log_scale, (case, op)
        for order in (1, 2):
            got = derivative(f, order).values
            assert np.array_equal(_bits(got), _bits(_derivative_oracle(f, order))), (case, order)


_ALL_OPERATORS = ["A_dag", "H1_dag", "A", "H2", "B_dag", "H2_dag", "B", "H1"]


def _tilted(grid, values):
    """``values`` on the log scale 0.1 x, with its exact derivatives."""
    return GridFunction(grid, values, 0.1 * grid.x, np.full(grid.n_points, 0.1),
                        np.zeros(grid.n_points))


@pytest.mark.parametrize("n", _BLOCK_EDGE_SIZES)
def test_a_shared_pass_gives_each_job_the_bits_of_its_own_pass(n):
    # every job reads the same derivative block, so a combine that wrote
    # into it would change the jobs after it; _BLOCK + 1 ends in a one-point
    # block, where a complex product written over a factor changes bits
    grid = Grid(3.0, n)
    p = susy.build_pair(parse("x + 0.3i * cos(x)"), parse("x - 0.5 * tanh(x)"))
    for case, f in _carriers(grid, np.random.default_rng(n)).items():
        alone = {op: getattr(susy, f"apply_{op}")(p, f).values for op in _ALL_OPERATORS}
        for ops in (_ALL_OPERATORS, _ALL_OPERATORS[::-1], ["H1", "A"], ["B", "H2"], ["A_dag"]):
            got = susy.apply_ops(p, f, ops)
            assert len(got) == len(ops)
            for op, image in zip(ops, got):
                assert np.array_equal(_bits(image.values), _bits(alone[op])), (case, ops, op)
                assert image.log_scale is f.log_scale, (case, op)
        # derivative jobs beside operator jobs, all reading one derivative block
        s = p.samples(grid)
        jobs = [susy._OPERATORS["H1_dag"](s), ((2,), _copy), ((1,), _copy),
                susy._OPERATORS["B_dag"](s)]
        h1_dag, d2, d1, b_dag = numerics.stencil_pass(f, jobs)
        for got, want in ((h1_dag, alone["H1_dag"]), (b_dag, alone["B_dag"]),
                          (d1, derivative(f, 1).values), (d2, derivative(f, 2).values)):
            assert np.array_equal(_bits(got.values), _bits(want)), case


@pytest.mark.parametrize("n", [_BLOCK + 1, 2 * _BLOCK + 3])
def test_a_shared_pass_reports_the_first_job_whose_image_overflows(n):
    grid = Grid(3.0, n)
    p = susy.build_pair(parse("x"), parse("x + 1"))
    values = np.ones(n, dtype=np.complex128)
    # first derivatives stay finite, second ones overflow
    values[_BLOCK - 5 : _BLOCK] = [1e303, -1e303, 1e303, -1e303, 1e303]
    for f in (GridFunction(grid, values), _tilted(grid, values)):
        with np.errstate(all="ignore"):
            for ops in (["A", "H1", "B", "H2_dag"], ["B_dag", "H2", "H1"], _ALL_OPERATORS):
                assert np.isfinite(getattr(susy, f"apply_{ops[0]}")(p, f).values).all()
                with pytest.raises(PoleOnGridError) as expected:
                    getattr(susy, f"apply_{ops[1]}")(p, f)
                with pytest.raises(PoleOnGridError) as got:
                    susy.apply_ops(p, f, ops)
                assert str(got.value) == str(expected.value), ops


@pytest.mark.parametrize("n", [_BLOCK + 1, 2 * _BLOCK + 3])
def test_an_overflowing_stencil_is_reported_as_the_composed_expression_reports_it(n):
    grid = Grid(3.0, n)
    p = susy.build_pair(parse("x"), parse("x + 1"))
    values = np.ones(n, dtype=np.complex128)
    values[_BLOCK - 5 : _BLOCK] = [1e307, -1e307, 1e307, -1e307, 1e307]  # reads across the block edge
    values[-40] = 1e307
    for f in (GridFunction(grid, values), _tilted(grid, values)):
        with np.errstate(all="ignore"):
            for op, want in _operator_oracles(p, f).items():
                with pytest.raises(PoleOnGridError) as expected:
                    GridFunction(grid, want)
                with pytest.raises(PoleOnGridError) as got:
                    getattr(susy, f"apply_{op}")(p, f)
                assert str(got.value) == str(expected.value), op
            got = _stencil_values(values, grid.spacing, 2)
            want = _fd_oracle(values, grid.spacing, 2)
        _assert_stencil_contract(got, want, "overflowing")


# the parts of drawn stencil inputs: signed zeros, subnormals, normals and
# values whose stencil sums overflow
_STENCIL_PARTS = (st.sampled_from([0.0, -0.0, 1e307, -1e307])
                  | st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308)
                  | st.floats(-1e6, 1e6))
_OVERFLOW_PAIR = susy.build_pair(parse("x"), parse("x + 1"))


# the second length range puts about half the examples at the block edge
@settings(deadline=None)
@given(n=st.integers(16, _BLOCK + 40) | st.integers(_BLOCK - 4, _BLOCK + 40),
       complex_input=st.booleans(), parts=st.lists(_STENCIL_PARTS, min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1), order=st.sampled_from([1, 2]))
def test_drawn_stencil_inputs_meet_the_complex_expression_oracle(n, complex_input, parts,
                                                                 seed, order):
    rng = np.random.default_rng(seed)
    v = rng.choice(parts, n)
    if complex_input:
        v = v + 0j
        v.imag = rng.choice(parts, n)
    grid = Grid(3.0, n)
    with np.errstate(all="ignore"):
        got = _stencil_values(v, grid.spacing, order)
        _assert_stencil_contract(got, _fd_oracle(v, grid.spacing, order), "drawn")
        if not complex_input:
            return
        # each operator reports a non-finite image as the composed expression does
        for f in (GridFunction(grid, v), _tilted(grid, v)):
            for op, want in _operator_oracles(_OVERFLOW_PAIR, f).items():
                try:
                    GridFunction(grid, want)
                except PoleOnGridError as expected:
                    with pytest.raises(PoleOnGridError) as reported:
                        getattr(susy, f"apply_{op}")(_OVERFLOW_PAIR, f)
                    assert str(reported.value) == str(expected), op
                else:
                    got = getattr(susy, f"apply_{op}")(_OVERFLOW_PAIR, f).values
                    _assert_stencil_contract(got, want, op)


# ---------------------------------------------------------------------------
# float64 carriers against complex128 carriers holding the same values

def _assert_real_carrier_contract(got, want, case):
    """``got``, computed from float64 carriers, against ``want``, computed
    from complex128 carriers of the same values.  Where ``want`` is finite,
    every part is equal by == and bit-equal unless it is zero: only a zero's
    sign may differ.  Where ``want`` is not finite, neither is ``got``."""
    g = np.atleast_1d(np.asarray(got)).astype(np.complex128)
    w = np.atleast_1d(np.asarray(want)).astype(np.complex128)
    finite = np.isfinite(w)
    assert not np.isfinite(g[~finite]).any(), case
    g, w = g[finite].view(np.float64), w[finite].view(np.float64)
    assert np.array_equal(g, w), case
    assert np.array_equal(_bits(g[w != 0]), _bits(w[w != 0])), case


def _complex_twin(x):
    """A carrier, or a pair's samples on ``grid``, held as complex128."""
    if isinstance(x, GridFunction):
        return GridFunction(x.grid, x.values.astype(np.complex128), x.log_scale, x.dlog, x.d2log)
    pair, grid = x
    twin = copy.copy(pair)
    twin._cache = {grid: {k: v.astype(np.complex128) for k, v in pair.samples(grid).items()}}
    return twin


def _outcome(measure, *args):
    """``measure(*args)``, or the text of the grid error it raises."""
    try:
        return measure(*args)
    except (PoleOnGridError, RepresentationError) as e:
        return f"{type(e).__name__}: {e}"


def _assert_same_outcome(measure, real_args, complex_args, case):
    with np.errstate(all="ignore"):
        got, want = _outcome(measure, *real_args), _outcome(measure, *complex_args)
    if isinstance(got, str) or isinstance(want, str):
        assert got == want, case
    else:
        _assert_real_carrier_contract(got, want, case)


_COMPLEX_PAIR = susy.build_pair(parse("x + 0.3i * cos(x)"), parse("x - 0.5 * tanh(x)"))


# the length ranges put about half the examples at the block edge; a log
# scale of slope 150 takes pairings past the float range on [-3, 3]
@settings(deadline=None)
@given(n=st.integers(16, _BLOCK + 40) | st.integers(_BLOCK - 4, _BLOCK + 40),
       parts=st.lists(_STENCIL_PARTS, min_size=1, max_size=6), seed=st.integers(0, 2**32 - 1),
       slope=st.sampled_from([None, 0.1, -2.0, 150.0]),
       a=st.floats(-0.9, 0.9), c=st.floats(-0.9, 0.9))
def test_drawn_real_carrier_has_the_bits_of_the_complex_carrier(n, parts, seed, slope, a, c):
    # numpy divides a complex value by a real d as a * (1 / d), so the float64
    # path multiplies by the reciprocal wherever the complex one divides
    rng = np.random.default_rng(seed)
    grid = Grid(3.0, n)
    scale = () if slope is None else (slope * grid.x, np.full(n, slope), np.zeros(n))
    # the factors give the parts many mantissas, so that summation order shows
    f = GridFunction(grid, rng.choice(parts, n) * rng.uniform(0.5, 2.0, n), *scale)
    g = f.with_values(np.where(np.arange(n) % 5 == 0, 0.0, rng.choice(parts, n)))
    fc, gc = _complex_twin(f), _complex_twin(g)
    assert f.values.dtype == np.float64 and fc.values.dtype == np.complex128
    real_pair = susy.build_pair(parse("x + a*tanh(x)", {"a": a}), parse("x + c*tanh(x)", {"c": c}))
    assert real_pair.samples(grid)["v1_dual"].dtype == np.float64

    for pair, dtype in ((real_pair, np.float64), (_COMPLEX_PAIR, np.complex128)):
        twin = _complex_twin((pair, grid))
        with np.errstate(all="ignore"):
            got = _outcome(susy.apply_ops, pair, f, _ALL_OPERATORS)
            want = _outcome(susy.apply_ops, twin, fc, _ALL_OPERATORS)
        if isinstance(got, str) or isinstance(want, str):
            assert got == want
            continue
        for op, image, expected in zip(_ALL_OPERATORS, got, want):
            assert image.values.dtype == dtype, op
            _assert_real_carrier_contract(image.values, expected.values, op)

    _assert_same_outcome(inner, (f, g), (fc, gc), "inner")
    _assert_same_outcome(inner, (g, f), (gc, fc), "inner, swapped")
    _assert_same_outcome(inner, (f, f.with_values(np.zeros(n))), (fc, fc.with_values(np.zeros(n))),
                         "inner with a zero integrand")
    _assert_same_outcome(norm, (f,), (fc,), "norm")
    _assert_same_outcome(interior_norm, (f, 3, [0.25]), (fc, 3, [0.25]), "interior norm")
    # a pairing of real carriers is a complex c with a zero imaginary part
    for k in (2.0, 0.3 - 0.7j, 1.5 + 0j, complex(-1.5, -0.0)):
        _assert_same_outcome(relative_residual, ((f, k, g), g), ((fc, k, gc), gc), "residual")
        _assert_same_outcome(interior_norm, ((f, k, g),), ((fc, k, gc),), "residual norm")
    with np.errstate(all="ignore"):
        _assert_real_carrier_contract(cumulative_antiderivative(f.values, grid, g.values),
                                      cumulative_antiderivative(fc.values, grid, gc.values),
                                      "antiderivative")

    wide = Grid(12.0, n)
    twin = _complex_twin((real_pair, wide))
    for normalization in ("raw", "unit", "paired"):
        got, want = susy.vacua(real_pair, wide, normalization), susy.vacua(twin, wide, normalization)
        assert got.notes == want.notes
        for mine, theirs in zip(got.records(), want.records()):
            case = (normalization, mine.label)
            # a pairing is complex, so a paired phi is divided into complex values
            assert normalization == "paired" or mine.function.values.dtype == np.float64, case
            _assert_real_carrier_contract(mine.function.values, theirs.function.values, case)
            assert np.array_equal(_bits(mine.function.log_scale), _bits(theirs.function.log_scale))
            assert mine.summary() == theirs.summary(), case


def _scaled_inner_oracle(f, g):
    """The scaled branch of ``inner`` as whole-array expressions."""
    ls = lambda c: c.log_scale if c.log_scale is not None else np.zeros(c.grid.n_points)
    s = ls(f) + ls(g)
    p = np.conjugate(f.values) * g.values
    mag = np.abs(p)
    with np.errstate(divide="ignore"):
        log_mag = s + np.log(mag)
    if np.max(log_mag, initial=-np.inf) > _LOG_HUGE:
        j = int(np.argmax(log_mag))
        raise RepresentationError(
            f"pairing integrand exceeds float range near x={float(f.grid.x[j])!r}")
    if mag.min() > 0:
        out = (p / mag) * np.exp(log_mag)
    else:
        out = np.zeros_like(p)
        nz = mag > 0
        out[nz] = (p[nz] / mag[nz]) * np.exp(log_mag[nz])
    return complex(np.sum(f.grid.simpson_weights * out))


def _same_complex(a, b):
    return _bits(np.array([a])).tolist() == _bits(np.array([b])).tolist()


@pytest.mark.parametrize("n", _BLOCK_EDGE_SIZES)
def test_blocked_scaled_inner_is_the_whole_array_formula_bit_for_bit(n):
    grid = Grid(12.0, n)
    rng = np.random.default_rng(n)
    x = grid.x
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    up = GridFunction(grid, z, 40.0 * x)
    down = GridFunction(grid, np.conjugate(z) * 0.5, -40.0 * x - x**2)
    holes = down.with_values(np.where(np.arange(n) % 5 == 0, 0.0, down.values))
    # a zero product only in the last block keeps the earlier blocks unmasked
    late_hole = down.with_values(np.where(np.arange(n) == n - 2, 0.0, down.values))
    plain = GridFunction(grid, z * np.exp(-x**2))
    for f, g in [(up, down), (down, up), (up, holes), (holes, up), (up, late_hole),
                 (plain, down), (down, plain)]:
        assert _same_complex(inner(f, g), _scaled_inner_oracle(f, g))
    # only the last point contributes, so the last block's bits reach the sum
    for value in rng.standard_normal(16) + 1j * rng.standard_normal(16):
        tail = GridFunction(grid, np.where(np.arange(n) == n - 1, value, 0.0), 40.0 * x)
        assert _same_complex(inner(tail, down), _scaled_inner_oracle(tail, down))


@pytest.mark.parametrize("n", [_BLOCK + 1, 2 * _BLOCK + 3])
def test_a_pairing_out_of_range_names_the_first_largest_point(n):
    grid = Grid(12.0, n)
    ones = np.ones(n)
    # (point, log scale): a tie across blocks names the first point, and a
    # larger value in a later block names that one
    for peaks in ([(3, 750.0), (n - 1, 750.0)], [(_BLOCK - 1, 750.0), (n - 1, 760.0)],
                  [(_BLOCK - 1, 760.0), (_BLOCK, 750.0), (n - 1, 760.0)]):
        scale = np.zeros(n)
        for j, value in peaks:
            scale[j] = value
        f = GridFunction(grid, ones, scale)
        with pytest.raises(RepresentationError) as expected:
            _scaled_inner_oracle(f, f.with_values(ones))
        with pytest.raises(RepresentationError) as got:
            inner(f, f.with_values(ones))
        assert str(got.value) == str(expected.value)


def _relative_residual_oracle(num, den, mask):
    w = num.grid.simpson_weights * mask
    if num.log_scale is None and den.log_scale is None:
        a = np.sqrt(np.sum(w * np.abs(num.values) ** 2))
        b = np.sqrt(np.sum(w * np.abs(den.values) ** 2))
    else:
        scale = num.log_scale if num.log_scale is not None else np.zeros(num.grid.n_points)
        shifted = scale - np.max(scale[mask], initial=0.0)
        e2 = np.exp(2 * np.clip(shifted, -_LOG_HUGE, 0.0))
        a = np.sqrt(np.sum(w * np.abs(num.values) ** 2 * e2))
        b = np.sqrt(np.sum(w * np.abs(den.values) ** 2 * e2))
    if b == 0.0:
        return 0.0 if a == 0.0 else np.inf
    return float(a / b)


@pytest.mark.parametrize("n", _BLOCK_EDGE_SIZES)
def test_blocked_norms_and_residuals_are_the_whole_array_sums_bit_for_bit(n):
    from susyq.numerics import _interior_mask

    grid = Grid(12.0, n)
    carriers = _carriers(grid, np.random.default_rng(n + 1))
    exclude = [0.3, -2.0] if n > 16 else []  # at n = 16 they would mask every point
    mask = _interior_mask(grid, 5, exclude)
    for case, f in carriers.items():
        g = f.with_values(f.values[::-1] + 0.25)
        got = relative_residual(g, f, exclude=exclude)
        assert got == _relative_residual_oracle(g, f, mask), case
        # and with no point excluded
        got = relative_residual(g, f)
        assert got == _relative_residual_oracle(g, f, _interior_mask(grid, 5, None)), case
        if f.log_scale is None:
            w = grid.simpson_weights * mask
            want = float(np.sqrt(np.sum(w * np.abs(f.values) ** 2)))
            assert interior_norm(f, exclude=exclude) == want, case
            # the plain norm is the interior norm with no point left out
            want = float(np.sqrt(np.sum(grid.simpson_weights * np.abs(f.values) ** 2)))
            assert norm(f) == interior_norm(f, pad=0) == want, case
            assert norm(g) == interior_norm(g, pad=0), case
            assert interior_norm((g, 0.3 - 0.7j, f), pad=0) == norm(g - (0.3 - 0.7j) * f), case


def _difference_oracle(a, c, b):
    return a - (b if c is None else c * b)


@pytest.mark.parametrize("n", [_BLOCK + 1, 2 * _BLOCK + 1])
def test_a_residual_given_as_its_terms_is_the_carrier_expression_bit_for_bit(n):
    from susyq.numerics import _Difference

    grid = Grid(12.0, n)
    rng = np.random.default_rng(n + 2)
    for case, b in _carriers(grid, rng).items():
        a = b.with_values(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        # 1.5 + 0j is taken as 1.5, as a pairing of real carriers is
        for c in [None, 2.0, np.float64(-1.5), 0.3 - 0.7j, 1.5 + 0j]:
            terms = (a, b) if c is None else (a, c, b)
            want = _difference_oracle(a, c, b)
            # every block, the last one holding one point, has the expression's bits
            d = _Difference(terms)
            got = np.concatenate([d.block(slice(lo, hi), np.empty(hi - lo, complex))
                                  for lo, hi in _blocks(n)])
            assert np.array_equal(_bits(got), _bits(want.values)), (case, c)
            for kw in ({}, {"pad": 0}, {"exclude": [0.3, -2.0]}):
                assert interior_norm(terms, **kw) == interior_norm(want, **kw), (case, c, kw)
            for kw in ({}, {"exclude": [0.3, -2.0]}):  # a residual always drops EDGE_PAD points per edge
                assert relative_residual(terms, b, **kw) == relative_residual(want, b, **kw), \
                    (case, c, kw)


@pytest.mark.parametrize("n", [_BLOCK + 1, 2 * _BLOCK + 3])
def test_a_non_finite_residual_is_reported_as_the_carrier_expression_reports_it(n):
    grid = Grid(3.0, n)
    a, b = np.ones(n, dtype=np.complex128), np.ones(n, dtype=np.complex128)
    # the first offending point in the first block, one more in the last
    a[_BLOCK - 3], b[_BLOCK - 3] = 1e308, -1e308
    b[n - 1] = 1e308
    for scale in (None, 0.1 * grid.x):
        fa, fb = GridFunction(grid, a, scale), GridFunction(grid, b, scale)
        for c in [None, 2.0, np.float64(1.5), 3.0 - 7.0j]:
            terms = (fa, fb) if c is None else (fa, c, fb)
            with np.errstate(all="ignore"):
                with pytest.raises(PoleOnGridError) as expected:
                    _difference_oracle(fa, c, fb)
                for measure in (lambda t: relative_residual(t, fb), interior_norm):
                    with pytest.raises(PoleOnGridError) as got:
                        measure(terms)
                    assert str(got.value) == str(expected.value), (scale is None, c)
    # finite samples whose block sum overflows are a residual like any other
    big = GridFunction(grid, np.where(np.isin(np.arange(n), [100, 102]), 1e308, 0.0))
    zero = GridFunction(grid, np.zeros(n))
    with np.errstate(all="ignore"):
        assert interior_norm((big, zero)) == interior_norm(big) == math.inf


def test_the_interior_mask_is_cached_and_read_only():
    from susyq.numerics import _interior_mask

    g = Grid(12.0, 4097)
    a = _interior_mask(g, 5, [0.5])
    assert _interior_mask(Grid(12.0, 4097), 5, [0.5]) is a
    assert _interior_mask(g, 5, None) is _interior_mask(g, 5, [])
    assert _interior_mask(g, 5, None) is not a
    with pytest.raises(ValueError):
        a[0] = True
    window = np.abs(g.x - 0.5) <= 6 * g.spacing
    assert np.array_equal(a, ~window & (np.arange(4097) >= 5) & (np.arange(4097) < 4092))


def test_biorthogonality_defect_is_the_hand_loop_bit_for_bit():
    g = Grid(12.0, 4097)
    m = get_model("swanson")
    phis = [m.phi1(n, g) for n in range(7)]
    psis = [m.psi1(n, g) for n in range(7)]
    worst = 0.0
    for a in range(7):
        for b in range(7):
            worst = max(worst, abs(inner(psis[a], phis[b]) - (1.0 if a == b else 0.0)))
    assert biorthogonality_defect(psis, phis) == worst


def _unit_spikes(n):
    # h = 0.75 puts Simpson weight exactly 1 on the odd nodes, so unit spikes
    # there are orthonormal with no rounding at all
    g = Grid(12.0, 33)
    assert g.simpson_weights[1] == 1.0
    return [GridFunction(g, np.eye(g.n_points)[2 * k + 1]) for k in range(n)]


def test_biorthogonality_defect_of_an_exactly_orthonormal_set_is_zero():
    e = _unit_spikes(5)
    assert biorthogonality_defect(e, e) == 0.0


def test_biorthogonality_defect_reports_a_planted_off_diagonal_entry():
    e = _unit_spikes(5)
    right = list(e)
    right[3] = e[3] + 0.25j * e[1]  # <e_1, r_3> = 0.25j, every other entry exact
    assert biorthogonality_defect(e, right) == 0.25
    assert biorthogonality_defect(right, e) == 0.25


def test_gamma_average_matches_sinc(gamma_average):
    big = 50.0
    for w in (1.0, 2.0, 5.5):
        got = gamma_average(lambda t, w=w: np.exp(1j * w * t), big)
        want = math.sin(w * big) / (w * big)
        assert abs(got - want) < 1e-10
        assert abs(got) <= 2.0 / (big * w)


def test_gamma_average_of_constant_is_constant(gamma_average):
    assert abs(gamma_average(lambda t: np.ones_like(t) * (3 - 4j), 7.0) - (3 - 4j)) < 1e-12


def test_decay_fit_classifies_gaussian_and_growth():
    g = Grid(12.0, 1025)
    gauss = fitted_decay_exponents(sample(parse("exp(0 - x^2 / 2)"), g))
    assert gauss.square_integrable
    assert gauss.left_exponent < -1.0 and gauss.right_exponent < -1.0

    grow = fitted_decay_exponents(sample(parse("exp(x / 2)"), g))
    assert not grow.square_integrable
    assert grow.right_exponent > 0.4
    assert grow.left_exponent < -0.4  # decays toward -infinity


def test_decay_fit_flags_marginal_rates_as_not_decaying():
    # slower than the threshold rate on both sides: not square integrable
    g = Grid(12.0, 1025)
    f = GridFunction(g, np.exp(-0.01 * np.abs(g.x)))
    fit = fitted_decay_exponents(f)
    assert not fit.square_integrable
    assert DecayFit(-0.04, -3.0).square_integrable is False
    assert DecayFit(-0.06, -0.06).square_integrable is True


coeffs = st.lists(
    st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=4,
)


@settings(max_examples=40, deadline=None)
@given(coeffs, coeffs)
def test_cauchy_schwarz_for_polynomial_gaussians(cf, cg):
    g = Grid(6.0, 65)
    env = np.exp(-g.x**2)
    f = GridFunction(g, np.polyval(cf, g.x) * env)
    h = GridFunction(g, np.polyval(cg, g.x) * env)
    lhs = abs(inner(f, h))
    rhs = norm(f) * norm(h)
    assert lhs <= rhs * (1 + 1e-10) + 1e-12
