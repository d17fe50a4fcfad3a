"""Numbered acceptance checks over the whole library, one printed verdict each."""

import cmath
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from susyq.expr import differentiate, evaluate_array, parse
from susyq.gk import (
    action_identity,
    evolve,
    lowering_defect,
    moment_density,
    moment_residuals,
    normalization_K,
    pair_norm,
    resolution_estimate,
    spectrum_from_formula,
    state_pair,
)
from susyq.models import (
    bs_classification,
    bs_numeric_flags,
    get_model,
    models_list,
    pb_identities,
)
from susyq.numerics import Grid, GridFunction, inner, norm, relative_residual
from susyq.susy import (
    apply_A,
    apply_B,
    apply_H1,
    apply_ops,
    build_pair,
    intertwine_check,
    potential_identity_residual,
    probe_function,
    superalgebra_check,
)


def _criterion(num: int, ok: bool, detail: str = ""):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}")
    assert ok, detail


@pytest.fixture(scope="module")
def grid():
    return Grid(12.0, 4097)


def _ladder_levels(pair, phis, energy, n_levels):
    """Levels 1..n_levels-1 of the ladder, each with the level below as its
    partner: (level, its intertwining record, the images A phi_n, H1 phi_n,
    B phi_{n-1} and H2 phi_{n-1}, from one ``apply_ops`` pass per carrier)."""
    for n in range(1, n_levels):
        a, h1 = apply_ops(pair, phis[n], ["A", "H1"])
        b, h2 = apply_ops(pair, phis[n - 1], ["B", "H2"])
        rec = intertwine_check(n, energy(n), phis[n], phis[n - 1], a, b, pair.singular_points)
        yield n, rec, (a, h1, b, h2)


@pytest.fixture(scope="module")
def deformed(grid):
    m = get_model("deformed-harmonic")
    phis = [m.phi1(n, grid) for n in range(13)]
    psis = [m.psi1(n, grid) for n in range(13)]
    return m, phis, psis


@pytest.fixture(scope="module")
def hermite_basis():
    """Orthonormal oscillator functions on a coarse grid; self-dual basis."""
    g = Grid(12.0, 513)
    h = get_model("harmonic")
    return [h.phi1(n, g) for n in range(60)]


def _factorization_residual(pair, grid):
    """Worst of the potential identity and the composed-factor route."""
    r = potential_identity_residual(pair, grid)
    probe = probe_function(grid, pair.singular_points)
    # modulate so the probe cannot sit in the kernel of a first-order factor
    probe = GridFunction(grid, probe.values * (1.0 + 0.5 * np.sin(2.0 * grid.x)))
    composed = apply_B(pair, apply_A(pair, probe))
    direct = apply_H1(pair, probe)
    diff = GridFunction(grid, composed.values - direct.values)
    return max(r, relative_residual(diff, direct,
                                    exclude=list(pair.singular_points)))


def test_criterion_01_factorization_identities(grid):
    pairs = []
    for row in models_list():
        rec = get_model(row["name"])
        if rec.pair is not None:  # the rotated oscillator registers no pair
            pairs.append((row["name"], rec.pair))
    assert len(pairs) == 4

    rng = np.random.default_rng(20260822)
    for i in range(5):
        a, d = rng.uniform(0.5, 1.5, 2)
        b, c, e, f = rng.uniform(-1.0, 1.0, 4)
        u, v = rng.uniform(1.0, 3.0, 2)
        wa = f"{float(a)!r}*x + {float(b)!r}*tanh(x) + {float(c)!r}*sin({float(u)!r}*x)"
        wb = f"{float(d)!r}*x + {float(e)!r}*cos({float(v)!r}*x) + {float(f)!r}"
        pairs.append((f"random-{i}", build_pair(parse(wa), parse(wb))))

    worst, worst_name = 0.0, ""
    for name, pair in pairs:
        r = _factorization_residual(pair, grid)
        if r > worst:
            worst, worst_name = r, name
    _criterion(1, worst < 1e-5, f"worst {worst:.3e} on {worst_name}")


def test_criterion_02_black_scholes_assembly():
    worst_exact, worst = 0.0, 0.0
    for r in (-3.0, -1.0, -0.5, 0.0, 1.0, 2.0):
        m = get_model("black-scholes", r=r, v0=1.0)
        pair = m.pair
        pts = np.linspace(-5.0, 5.0, 401)
        x0 = m.extras["x0"]
        if x0 is not None:
            pts = pts[np.abs(pts - x0) > 0.3]

        drift, wa, wb, dwa, dwb, v2 = evaluate_array(
            [pair.q1, pair.w_a, pair.w_b, differentiate(pair.w_a), differentiate(pair.w_b),
             pair.v2], pts)
        worst_exact = max(worst_exact,
                          float(np.max(np.abs(drift - (1.0 - r)))))
        worst = max(worst, float(np.max(np.abs((wb - wa) - (1.0 - r)))))
        v1_raw = wa * wb - dwa
        worst = max(worst, float(np.max(np.abs(v1_raw - r))))

        if r == -1.0:
            want = 2.0 / (pts - 1.0) ** 2 - 1.0
            worst = max(worst, float(np.max(np.abs(v2 - want))))
            v2_raw = wa * wb + dwb
            worst = max(worst, float(np.max(np.abs(v2_raw - want))))
    _criterion(2, worst_exact == 0.0 and worst < 1e-9,
               f"exact gap {worst_exact:.3e}, raw gap {worst:.3e}")


def test_criterion_03_black_scholes_classification(grid):
    normalizable = (False, True, False, True)
    decaying_none = (False, False, False, False)
    expected = {
        2.0: normalizable, 1.0: normalizable, 0.5: normalizable,
        -0.5: decaying_none, -1.0: decaying_none, -2.0: decaying_none,
    }
    ok, bad = True, []
    for r, want in expected.items():
        analytic = bs_classification(r).flags()
        numeric = bs_numeric_flags(get_model("black-scholes", r=r, v0=1.0),
                                   grid).flags()
        if analytic != want or numeric != want:
            ok, bad = False, bad + [(r, analytic, numeric)]
    _criterion(3, ok, f"mismatches: {bad}")


def test_criterion_04_pseudo_bosonic_biorthogonality(grid):
    m = get_model("pseudo-bosonic", k=-1)
    phis = [m.phi1(n, grid) for n in range(11)]
    psis = [m.psi1(n, grid) for n in range(11)]
    worst = 0.0
    for a in range(11):
        for b in range(11):
            value = inner(phis[a], psis[b])
            worst = max(worst, abs(value - (1.0 if a == b else 0.0)))
    _criterion(4, worst < 1e-7, f"worst pairing gap {worst:.3e}")


def test_criterion_05_pseudo_bosonic_identities():
    rep = pb_identities(-1.0, n_max=12)
    ok = all(c.passed for c in rep.checks)
    documented = any("2^(-n) (n!)^(-1)" in note for note in rep.notes)
    failing = [c.check for c in rep.checks if not c.passed]
    _criterion(5, ok and documented,
               f"failing: {failing}; prefactor note present: {documented}")


def test_criterion_06_deformed_susy(grid, deformed):
    m, phis, psis = deformed
    worst_pair = 0.0
    for a in range(9):
        for b in range(9):
            value = inner(psis[a], phis[b])
            worst_pair = max(worst_pair, abs(value - (1.0 if a == b else 0.0)))

    worst_eig = 0.0
    for n in range(9):
        image = apply_H1(m.pair, phis[n])
        diff = GridFunction(grid, image.values - 2.0 * n * phis[n].values)
        ref = image if n else phis[n]
        worst_eig = max(worst_eig, relative_residual(diff, ref))

    cap_phi = math.exp(m.constants["M"])
    cap_psi = math.exp(-m.constants["m"])
    bounds = all(norm(phis[n]) <= cap_phi and norm(psis[n]) <= cap_psi
                 for n in range(9))

    worst_prod = max(rec.product_residual
                     for _, rec, _ in _ladder_levels(m.pair, phis, m.energy, 9))

    _criterion(6, worst_pair < 1e-8 and worst_eig < 1e-5 and bounds
               and worst_prod < 1e-5,
               f"pairing {worst_pair:.3e}, eigen {worst_eig:.3e}, "
               f"bounds {bounds}, product {worst_prod:.3e}")


def test_criterion_07_superalgebra(deformed):
    m, phis, _ = deformed
    checks = []
    for n, rec, (a, h1, b, h2) in _ladder_levels(m.pair, phis, m.energy, 11):
        vector, doublet = superalgebra_check(m.pair, n, phis[n], phis[n - 1], a, h1, b, h2,
                                             rec.alpha, rec.beta)
        checks += vector + doublet
    assert len(checks) == 10 * 7  # ten doublets, each also a test vector
    failing = [c.check for c in checks if not c.passed]
    _criterion(7, not failing, f"failing: {failing}")


def test_criterion_08_gk_states(hermite_basis):
    s_linear = spectrum_from_formula(float, 80)
    worst_k = max(abs(normalization_K(s_linear, j) - math.exp(-j / 2.0))
                  for j in np.linspace(0.0, 10.0, 201))

    s60 = spectrum_from_formula(float, 60)
    s60_double = spectrum_from_formula(lambda n: 2.0 * n, 60)
    rng = np.random.default_rng(8)
    worst_norm = 0.0
    for _ in range(20):
        j = float(rng.uniform(0.05, 6.0))
        gamma = float(rng.uniform(0.0, 2.0 * math.pi))
        phi, psi = state_pair(s60, hermite_basis, hermite_basis, j, gamma, 1e-10, 2)[:2]
        worst_norm = max(worst_norm, abs(pair_norm(phi, psi) - 1.0))

    worst_action = 0.0
    for s in (s60, s60_double):
        phi, psi = state_pair(s, hermite_basis, hermite_basis, 1.7, 0.9, 1e-10, 2)[:2]
        worst_action = max(worst_action, abs(action_identity(phi, psi) - 1.7))

    base = state_pair(s60, hermite_basis, hermite_basis, 1.7, 0.2, 1e-10, 2)[0]
    stepped = evolve(evolve(base, 0.3), 0.4)
    direct = evolve(base, 0.7)
    worst_evolve = float(np.max(np.abs(stepped.coefficients
                                       - direct.coefficients)))

    _criterion(8, worst_k < 1e-10 and worst_norm < 1e-12
               and worst_action < 1e-8 and worst_evolve < 1e-12,
               f"K {worst_k:.3e}, norm {worst_norm:.3e}, "
               f"action {worst_action:.3e}, evolve {worst_evolve:.3e}")


def test_criterion_09_moment_densities():
    ok, bad = True, []
    for name in ("harmonic", "pseudo-bosonic", "deformed-harmonic"):
        m = get_model(name)
        s = spectrum_from_formula(m.energy, 40)
        md = moment_density(s)
        if not md.solved:
            ok, bad = False, bad + [(name, "unsolved")]
            continue
        checks = moment_residuals(s, md)
        failing = [c.check for c in checks if not c.passed]
        if failing:
            ok, bad = False, bad + [(name, failing)]
    _criterion(9, ok, f"failures: {bad}")


def test_criterion_10_resolution_trend(deformed):
    m, phis, psis = deformed
    s = spectrum_from_formula(m.energy, 13)
    md = moment_density(s)
    # the overlaps state_pair's walk collects for the target <phi_0, phi_0>
    rep = resolution_estimate(np.array([inner(phis[0], phis[n]) for n in range(12)]),
                              np.array([inner(psis[n], phis[0]) for n in range(12)]),
                              inner(phis[0], phis[0]), s, md)
    limits = tuple(p.gamma_limit for p in rep.gamma_trace)
    errs = [p.rel_error for p in rep.gamma_trace]
    worsened = sum(1 for i in range(1, len(errs)) if errs[i] > errs[i - 1])
    _criterion(10, limits == (25.0, 50.0, 100.0, 200.0) and worsened <= 1
               and errs[-1] < 0.05,
               f"limits {limits}, errors {errs}, worsened {worsened}")


def test_criterion_11_lowering_action(hermite_basis):
    s40 = spectrum_from_formula(float, 40)
    basis = hermite_basis[:40]
    worst = max(lowering_defect(state_pair(s40, basis, basis, 1.0, g, 1e-10, 2)[0])
                for g in (0.0, 1.0, math.pi))
    _criterion(11, worst < 1e-8, f"worst defect {worst:.3e}")


def test_criterion_12_swanson(grid):
    theta = math.pi / 8
    m = get_model("swanson", theta=theta)
    phis = [m.phi1(n, grid) for n in range(7)]
    psis = [m.psi1(n, grid) for n in range(7)]
    worst_pair = 0.0
    for a in range(7):
        for b in range(7):
            value = inner(psis[a], phis[b])
            worst_pair = max(worst_pair, abs(value - (1.0 if a == b else 0.0)))

    target = cmath.exp(-1j * theta) / math.sqrt(math.pi)
    n1, n2 = m.constants["n1"], m.constants["n2"]
    norm_gap = max(abs(np.conjugate(n1) * n2 - target),
                   abs(m.constants["pairing_target"] - target))

    apply_h = m.extras["apply_h"]
    worst_h = 0.0
    for n in range(5):
        image = apply_h(phis[n])
        diff = GridFunction(grid, image.values - m.energy(n) * phis[n].values)
        worst_h = max(worst_h, relative_residual(diff, phis[n]))

    _criterion(12, worst_pair < 1e-6 and norm_gap < 1e-15 and worst_h < 1e-4,
               f"pairing {worst_pair:.3e}, normalization {norm_gap:.3e}, "
               f"hamiltonian {worst_h:.3e}")


def test_criterion_13_cli_determinism(tmp_path):
    env = os.environ.copy()
    env.pop("SUSYQ_GRID_N", None)

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "susyq", *argv],
                              capture_output=True, text=True, env=env)

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    first = run("verify", "--model", "pseudo-bosonic", "--out", str(out_a))
    second = run("verify", "--model", "pseudo-bosonic", "--out", str(out_b))
    identical = ((out_a / "verify.json").read_bytes()
                 == (out_b / "verify.json").read_bytes())
    negative = run("verify", "--model", "pseudo-bosonic",
                   "--perturb-wb", "0.02 * x", "--out", str(tmp_path / "c"))
    _criterion(13, first.returncode == 0 and second.returncode == 0
               and identical and negative.returncode == 1,
               f"codes {(first.returncode, second.returncode, negative.returncode)}, "
               f"identical {identical}")
