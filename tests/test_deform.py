"""Bounded-deformation structure against the oscillator base."""

import math

import numpy as np
import pytest

from susyq.deform import (
    DEFAULT_DEFORMATION_Q,
    DeformationError,
    build_deformation,
    deformed_basis_report,
    deformed_eigencheck,
    deformed_pair,
)
from susyq.expr import evaluate, parse
from susyq.models import get_model
from susyq.numerics import (Grid, GridFunction, biorthogonality_defect, inner, norm,
                            relative_residual, sample)
from susyq.susy import (apply_A, apply_B, apply_H1, apply_H1_dag, apply_H2, apply_H2_dag,
                        build_pair, intertwine_check)


@pytest.fixture(scope="module")
def grid():
    return Grid()


@pytest.fixture(scope="module")
def d(grid):
    return build_deformation(DEFAULT_DEFORMATION_Q, grid=grid)


@pytest.fixture(scope="module")
def base(grid):
    oscillator = get_model("harmonic")
    return [oscillator.phi1(n, grid) for n in range(9)]


@pytest.fixture(scope="module")
def families(grid):
    """The record's deformed families T e_n and T^-* e_n, levels 0-8."""
    m = get_model("deformed-harmonic")
    return [m.phi1(n, grid) for n in range(9)], [m.psi1(n, grid) for n in range(9)]


def test_bound_scan(d):
    assert d.m == pytest.approx(0.1, abs=1e-4)
    assert d.M == pytest.approx(1.1, abs=1e-4)
    assert len(d.notes) == 2  # both extrema sit at the window boundary


def test_interior_extrema_leave_no_notes(grid):
    dd = build_deformation("0.5*exp(-x^2) + 0.3", grid=grid)
    # max at x=0 (interior); min 0.3 approached at both edges
    assert dd.M == pytest.approx(0.8)
    assert all("upper" not in n for n in dd.notes)


def test_nonpositive_real_part_rejected(grid):
    with pytest.raises(DeformationError):
        build_deformation("tanh(x)", grid=grid)  # negative on the left half


def test_constant_deformation_recovers_base(grid):
    dd = build_deformation("0.7", grid=grid)
    p = deformed_pair(dd)
    s = p.samples(grid)
    assert np.max(np.abs(s["q1"])) == 0.0
    assert np.max(np.abs(s["w_a"] - grid.x)) == 0.0
    assert np.max(np.abs(s["w_b"] - grid.x)) == 0.0


def test_deformed_potential_closed_form(d, grid):
    # wA = x - q', wB = x + q': V1 = x^2 - 1 - (q')^2 + q''
    p = deformed_pair(d)
    s = p.samples(grid)
    q = parse(DEFAULT_DEFORMATION_Q)
    dq = sample(parse("0.5*(1 - tanh(x)^2) + 0.3i*cos(x)"), grid).values
    ddq = sample(parse("-tanh(x)*(1 - tanh(x)^2) - 0.3i*sin(x)"), grid).values
    want = grid.x**2 - 1.0 - dq**2 + ddq
    assert np.max(np.abs(s["v1"] - want)) < 1e-12
    assert np.max(np.abs(s["q1"] - 2.0 * dq)) < 1e-12


def test_dual_potential_flips_second_derivative_sign(d, grid):
    p = deformed_pair(d)
    s = p.samples(grid)
    dq = sample(parse("0.5*(1 - tanh(x)^2) + 0.3i*cos(x)"), grid).values
    ddq = sample(parse("-tanh(x)*(1 - tanh(x)^2) - 0.3i*sin(x)"), grid).values
    want = np.conjugate(grid.x**2 - 1.0 - dq**2 - ddq)
    assert np.max(np.abs(s["v1_dual"] - want)) < 1e-12


def test_basis_weight_cancels_exactly(families):
    phis, psis = families
    worst = 0.0
    for a in range(9):
        for b in range(9):
            got = inner(psis[a], phis[b])
            worst = max(worst, abs(got - (1.0 if a == b else 0.0)))
    assert worst < 1e-8


def test_norm_bounds(d, families):
    phis, psis = families
    for phi in phis:
        assert norm(phi) <= math.exp(d.M) * (1 + 1e-12)
    for psi in psis:
        assert norm(psi) <= math.exp(-d.m) * (1 + 1e-12)
    checks = deformed_basis_report(d, biorthogonality_defect(psis, phis),
                                   [norm(phi) for phi in phis], [norm(psi) for psi in psis])
    assert all(c.passed for c in checks)


def eigencheck(d, pair, energies, phis, psis, base):
    """``deformed_eigencheck`` folded over the levels, each family read one
    level at a time; the checks of the last level."""
    worst, checks, w = [0.0] * 4, None, None
    for n, (phi, psi, e_n) in enumerate(zip(phis, psis, base)):
        w = sample(d.w, phi.grid).values if w is None else w
        checks = deformed_eigencheck(worst, d, pair, w, energies[n], phi, apply_H1(pair, phi),
                                     psi, e_n if n else None)
    return checks


def test_eigencheck_harmonic_base(d, base, families):
    checks = eigencheck(d, deformed_pair(d), [2.0 * n for n in range(9)], *families, base)
    assert [c.check for c in checks] == [
        f"{family}: eigen-residuals" for family in
        ("h1 on phi1", "h1 adjoint on psi1", "h2 on phi2", "h2 adjoint on psi2")]
    assert all(c.passed for c in checks), [c.check for c in checks if not c.passed]


def test_eigencheck_lowers_the_base_as_the_base_pair_did_bit_for_bit(d, base, families):
    # the sector-2 base used to be A e_{n+1} / sqrt(E_{n+1}) with A from
    # build_pair(d.w, d.w), whose w_a samples are sample(d.w, grid); each
    # family's worst residual, built that way, is the oracle
    pair, (phis, psis) = deformed_pair(d), families
    energies = [2.0 * n for n in range(9)]
    grid = base[0].grid
    base_pair = build_pair(d.w, d.w)
    base2 = [apply_A(base_pair, base[n + 1]).values / math.sqrt(energies[n + 1]) for n in range(8)]
    sector2 = {"phi2": [GridFunction(grid, d.multiplier_values(grid) * e) for e in base2],
               "psi2": [GridFunction(grid, d.inverse_dual_values(grid) * e) for e in base2]}
    want = [max(relative_residual((op(pair, f), e, f), f) for f, e in zip(fns, evs))
            for op, fns, evs in ((apply_H1, phis, energies), (apply_H1_dag, psis, energies),
                                 (apply_H2, sector2["phi2"], energies[1:]),
                                 (apply_H2_dag, sector2["psi2"], energies[1:]))]
    # generators: the check reads each family one level at a time
    got = eigencheck(d, pair, energies, iter(phis), iter(psis), iter(base))
    assert np.array_equal(np.array([c.residual for c in got]).view(np.uint64),
                          np.array(want).view(np.uint64))


def test_intertwining_coefficients_sqrt_e(d, families):
    phis, _ = families
    pair = deformed_pair(d)
    for n in range(1, 9):
        rec = intertwine_check(n, 2.0 * n, phis[n], phis[n - 1], apply_A(pair, phis[n]),
                               apply_B(pair, phis[n - 1]))
        want = math.sqrt(2.0 * rec.n)
        assert rec.alpha == pytest.approx(want, rel=1e-5), rec.n
        assert rec.beta == pytest.approx(want, rel=1e-5), rec.n
        assert abs(rec.alpha * rec.beta - 2.0 * rec.n) < 1e-5


def test_registered_model(grid):
    m = get_model("deformed-harmonic")
    assert m.energy(4) == 8.0
    f = m.phi1(2, grid)
    hf = apply_H1(m.pair, f)
    res = relative_residual(GridFunction(grid, hf.values - 4.0 * f.values), f)
    assert res < 1e-5
    assert m.phi2(0, grid) is None
    assert m.constants["m"] == pytest.approx(0.1, abs=1e-4)


def test_multipliers_are_sampled_once_per_grid_and_read_only():
    d = build_deformation(DEFAULT_DEFORMATION_Q)
    small, large = Grid(12.0, 1025), Grid(12.0, 2049)
    for method, want in (
        (d.multiplier_values, lambda g: np.exp(sample(d.q, g).values)),
        (d.inverse_dual_values, lambda g: np.exp(-np.conjugate(sample(d.q, g).values))),
    ):
        first = method(large)
        assert method(Grid(12.0, 2049)) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 0.0
        assert np.array_equal(first.view(np.uint64), want(large).view(np.uint64))
        other = method(small)
        assert other.shape == (small.n_points,)
        assert method(large) is not first  # only the last grid is kept
        assert np.array_equal(method(large).view(np.uint64), first.view(np.uint64))
        assert np.array_equal(method().view(np.uint64), want(d.grid).view(np.uint64))


def test_both_multipliers_come_from_one_sample_of_q(monkeypatch):
    import susyq.deform

    d = build_deformation(DEFAULT_DEFORMATION_Q)
    grid = Grid(12.0, 1025)
    sampled = []
    monkeypatch.setattr(susyq.deform, "sample", lambda e, g: sampled.append(g) or sample(e, g))
    d.multiplier_values(grid)
    d.inverse_dual_values(grid)
    assert sampled == [grid]
