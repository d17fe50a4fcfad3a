"""Bicoherent state families labelled by an action value and an angle.

A discrete spectrum with products rho_n = E_1*...*E_n generates, over a
biorthogonal pair of eigenbases, a two-parameter family of states with
coefficients K(J) J^(n/2) exp(-i E_n gamma) / sqrt(rho_n).  This module
builds those states with certified truncation tails, computes the
normalization K(J) and the (J, gamma) region where the series converge,
solves the moment problem for recognized spectra, estimates how well the
family resolves the identity (J moments refined for all powers at once with
the bits of a Simpson ladder each, each T-matrix one array division), evolves
states in time, and realizes the gamma-dependent lowering operators under
which each state is an eigenvector with eigenvalue sqrt(J).  ``state_pair``
is the whole construction for one (J, gamma): it reads each family once,
level by level, so no family is held whole, and returns both states, their
domain and the resolution trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import _BLOCK, GridFunction, _same_scale, inner, integrate_halfline, norm
from .reporting import CheckResult

__all__ = [
    "GKError",
    "Spectrum",
    "build_spectrum",
    "spectrum_from_formula",
    "GKDomain",
    "gk_domain",
    "GKState",
    "normalization_K",
    "build_state",
    "pair_norm",
    "MomentDensity",
    "moment_density",
    "moment_residuals",
    "ResolutionPoint",
    "ResolutionReport",
    "resolution_estimate",
    "state_pair",
    "evolve",
    "action_identity",
    "lowering_action",
    "lowering_defect",
]


class GKError(ValueError):
    pass


# ---------------------------------------------------------------------------
# spectra and their product sequence

@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues with their running products rho_n = E_1*...*E_n.

    The products are kept as log|rho_n| and the accumulated argument
    ``theta``; ``sqrt_rho`` uses that argument, so each step satisfies
    sqrt_rho[n] = sqrt_rho[n-1] * sqrt(E_n) with the principal square root,
    without branch jumps as the accumulated phase passes pi.  ``radius`` is
    the estimated convergence radius of the K series: the modulus of the
    last eigenvalue, promoted to infinity when the tail moduli are still
    growing at full strength.
    """

    energies: np.ndarray
    log_abs_rho: np.ndarray
    theta: np.ndarray
    sqrt_rho: np.ndarray
    radius: float
    min_gap: float
    multiplicity_one: bool
    delta_e_tail: float

    def __len__(self) -> int:
        return len(self.energies)


def build_spectrum(energies) -> Spectrum:
    e = np.asarray(list(energies), dtype=np.complex128)
    if e.ndim != 1 or len(e) < 2:
        raise GKError("need at least two eigenvalues")
    if not np.isfinite(e).all():
        raise GKError("eigenvalues must be finite")
    if np.any(np.abs(e[1:]) == 0.0):
        raise GKError(
            "zero eigenvalue above the ground level: the products rho_n vanish "
            "and the coefficient denominators are undefined"
        )

    n = len(e)
    log_abs = np.zeros(n)
    theta = np.zeros(n)
    log_abs[1:] = np.cumsum(np.log(np.abs(e[1:])))
    theta[1:] = np.cumsum(np.angle(e[1:]))
    sqrt_rho = np.exp(0.5 * log_abs + 0.5j * theta)

    moduli = np.abs(e)
    tail = moduli[-min(10, n):]
    scale = max(1.0, float(tail.max()))
    diffs = np.diff(tail)
    radius = float(moduli[-1])
    # tail moduli that rise throughout without slowing: an unbounded radius
    if len(diffs) and np.all(diffs > 1e-9 * scale) and not diffs[-1] < 0.8 * diffs[0]:
        radius = math.inf

    gaps = np.abs(e[:, None] - e[None, :])
    np.fill_diagonal(gaps, np.inf)
    min_gap = float(gaps.min())
    multiplicity_one = min_gap > 1e-9 * scale

    imag_gaps = np.abs(np.diff(e.imag))
    delta_e_tail = float(imag_gaps[-min(5, len(imag_gaps)):].max()) if len(imag_gaps) else 0.0

    return Spectrum(energies=e, log_abs_rho=log_abs, theta=theta, sqrt_rho=sqrt_rho, radius=radius,
                    min_gap=min_gap, multiplicity_one=multiplicity_one, delta_e_tail=delta_e_tail)


def spectrum_from_formula(energy, n_terms: int) -> Spectrum:
    """Spectrum from a level formula, e.g. a model's ``energy`` callable."""
    return build_spectrum([energy(k) for k in range(n_terms)])


# ---------------------------------------------------------------------------
# normalization

def normalization_K(s: Spectrum, j: float) -> float:
    """K(J) = (sum_n J^n / |rho_n|)^(-1/2), positive and decreasing in J."""
    j = float(j)
    if j < 0:
        raise GKError("the action label J must be nonnegative")
    if j == 0.0:
        return 1.0
    if j >= s.radius:
        raise GKError(f"J={j:g} is outside the convergence radius R={s.radius:g}")
    ns = np.arange(len(s))
    log_terms = ns * math.log(j) - s.log_abs_rho
    m = float(log_terms.max())
    parts = np.exp(log_terms - m)
    total = float(parts.sum())
    if parts[-1] / total > 1e-13:
        raise GKError(
            f"spectrum of length {len(s)} is too short for J={j:g}: the last "
            "series term is not negligible"
        )
    return math.exp(-0.5 * m) / math.sqrt(total)


# ---------------------------------------------------------------------------
# convergence domain from norm growth

def _fit_norm_bound(norms, label: str):
    """Dominating bound ||v_n|| <= a * r^n * m_n from measured norms.

    Least squares on the log norms fixes r; a is inflated until the pure
    geometric bound dominates every measured level (m_n identically one).
    Only when the fit misses by more than a decade in log spread does a
    level-dependent correction m_n <= 1 enter, with its tail ratio taken
    conservatively.
    """
    arr = np.asarray(norms, dtype=float)
    top = float(arr.max(initial=0.0))
    if top <= 0:
        raise GKError(f"all {label} norms vanish")
    # empty or numerically-annihilated slots would poison the log fit
    keep = arr > 1e-9 * top
    if keep.sum() < 3:
        raise GKError(f"need at least three positive norms to bound the {label} growth")
    ns = np.flatnonzero(keep).astype(float)
    logs = np.log(arr[keep])
    slope, intercept = np.polyfit(ns, logs, 1)
    r = math.exp(slope)
    resid = logs - (intercept + slope * ns)
    a = math.exp(intercept + resid.max())
    notes = []
    if resid.max() - resid.min() <= 1.0:
        m_limit = 1.0
    else:
        m_seq = np.exp(resid - resid.max())
        ratios = m_seq[:-1] / m_seq[1:]
        m_limit = float(ratios[-min(5, len(ratios)):].min())
        notes.append(
            f"{label} norms deviate from a pure geometric envelope; "
            "using a level-dependent correction"
        )
    return a, r, m_limit, notes


_DELTA_E_TOL = 1e-8  # largest settled gap between imaginary parts of eigenvalues


@dataclass(eq=False)
class GKDomain:
    """Certified J range: J < j_min keeps both coefficient series summable."""

    a_phi: float
    r_phi: float
    m_phi_limit: float
    j_phi: float
    a_psi: float
    r_psi: float
    m_psi_limit: float
    j_psi: float
    radius: float
    j_min: float
    delta_e_value: float
    delta_e_ok: bool
    notes: tuple


def gk_domain(s: Spectrum, phi_norms, psi_norms) -> GKDomain:
    """Fit growth bounds for both families and intersect their J ranges.

    The imaginary parts of consecutive eigenvalues must settle (their gaps
    fall below ``_DELTA_E_TOL`` on the tail); otherwise the angle dependence
    of the series bound is uncontrolled and the whole domain collapses to
    J_min = 0.
    """
    a_phi, r_phi, ml_phi, n1 = _fit_norm_bound(phi_norms, "phi")
    a_psi, r_psi, ml_psi, n2 = _fit_norm_bound(psi_norms, "psi")

    def side_limit(m_limit, r):
        if math.isinf(s.radius):
            return math.inf
        return m_limit * m_limit * s.radius / r

    j_phi = side_limit(ml_phi, r_phi)
    j_psi = side_limit(ml_psi, r_psi)
    j_min = min(s.radius, j_phi, j_psi)
    notes = list(n1) + list(n2)
    delta_ok = s.delta_e_tail <= _DELTA_E_TOL
    if not delta_ok:
        j_min = 0.0
        notes.append(
            f"imaginary-part gaps do not settle (tail value {s.delta_e_tail:.3g} "
            f"> {_DELTA_E_TOL:g}); no positive J is certified"
        )
    return GKDomain(a_phi=a_phi, r_phi=r_phi, m_phi_limit=ml_phi, j_phi=j_phi,
                    a_psi=a_psi, r_psi=r_psi, m_psi_limit=ml_psi, j_psi=j_psi,
                    radius=s.radius, j_min=j_min, delta_e_value=s.delta_e_tail,
                    delta_e_ok=delta_ok, notes=tuple(notes))


# ---------------------------------------------------------------------------
# state construction

@dataclass(eq=False)
class GKState:
    """A truncated coefficient series over a biorthogonal family, which it
    does not keep; ``function`` is the series summed on the grid, or None for
    an evolved state, which carries its coefficients only."""

    family: str
    j: float
    gamma: float
    n_terms: int
    k: float
    coefficients: np.ndarray
    tail: float
    function: GridFunction | None
    spectrum: Spectrum = field(repr=False)
    domain: GKDomain = field(repr=False)
    build_tol: float = field(repr=False)

    def payload(self) -> dict:
        """JSON-ready summary; the key set is the serialization contract.

        States are built and reported over sector 1, so ``sector`` is a
        fixed 1 kept for the file format.
        """
        return {
            "family": self.family,
            "sector": 1,
            "J": self.j,
            "gamma": self.gamma,
            "N": self.n_terms,
            "K": self.k,
            "coefficients": [[float(c.real), float(c.imag)] for c in self.coefficients],
            "tail": self.tail,
        }


def _coefficient_vector(s: Spectrum, family: str, j: float, gamma: float,
                        k: float, n: int) -> np.ndarray:
    """c_n = K J^(n/2) exp(-i E_n gamma) / sqrt(rho_n), phases conjugated
    for the psi family, computed through logs so huge rho_n cannot overflow.
    K J^(n/2) / |sqrt(rho_n)| <= 1, so only the angle label can leave double
    range, in E_n gamma or in exp(+-Im E_n gamma); such a label is rejected."""
    e = s.energies[:n]
    sign = 1.0 if family == "phi" else -1.0
    with np.errstate(over="ignore", invalid="ignore"):
        phase = -e.real * gamma - 0.5 * s.theta[:n]
        if j == 0.0:
            out = np.zeros(n, dtype=np.complex128)
            out[0] = k * np.exp(sign * e[0].imag * gamma) * np.exp(1j * phase[0])
        else:
            ns = np.arange(n)
            log_mag = (math.log(k) + 0.5 * ns * math.log(j) - 0.5 * s.log_abs_rho[:n]
                       + sign * e.imag * gamma)
            out = np.exp(log_mag) * np.exp(1j * phase)
    if not (np.isfinite(phase).all() and np.isfinite(out).all()):
        raise GKError(f"gamma={gamma:g} is too large: exp(-i E_n gamma) leaves double range")
    return out


def _state_coefficients(s: Spectrum, family: str, j: float, gamma: float, n: int):
    """The n coefficients :func:`_series` forms, or None where K(J) or the
    vector raises; ``_series`` raises the same error after its domain check."""
    try:
        return _coefficient_vector(s, family, j, gamma, normalization_K(s, j), n)
    except GKError:
        return None


def _walk(levels, coefficients, overlap=None, n_overlaps=0):
    """Read a family once, level by level, dropping each level once read.

    Returns the levels' norms; the state sum c_n v_n over ``coefficients``,
    added in level order on the levels' shared log_scale (None for no
    coefficients); ``overlap(v_0, v_n)`` for the first ``n_overlaps``
    levels; and level 0 itself.
    """
    norms, overlaps, first, total = [], [], None, None
    for n, f in enumerate(levels):
        if n == 0:
            first = f
            if coefficients is not None:
                total = np.zeros(f.grid.n_points, dtype=np.complex128)
        elif f.grid is not first.grid and not np.array_equal(f.grid.x, first.grid.x):
            raise GKError("basis functions live on different grids")
        elif not _same_scale(f, first):
            raise GKError("basis functions must share one log_scale; rescale to one form")
        norms.append(norm(f))
        if total is not None:
            total += coefficients[n] * f.values
        if n < n_overlaps:
            overlaps.append(overlap(first, f))
    return norms, None if total is None else first.with_values(total), overlaps, first


def _tail_bound(s: Spectrum, a: float, r: float, family: str,
                j: float, gamma: float, k: float, n_used: int) -> float:
    """Bound on sum_{n >= n_used} |c_n| ||v_n|| using the fitted envelope.

    Known eigenvalues cover part of the tail exactly; beyond the spectrum
    the term ratio is closed geometrically with the last modulus standing
    in for all later ones.
    """
    if j == 0.0:
        return 0.0
    e = s.energies
    sign = 1.0 if family == "phi" else -1.0

    def log_term(n):  # log |c_n| ||v_n|| on the envelope; n an index or an index array
        return (math.log(k) + math.log(a) + n * math.log(r) + 0.5 * n * math.log(j)
                - 0.5 * s.log_abs_rho[n] + sign * e[n].imag * gamma)

    known = float(np.exp(log_term(np.arange(n_used, len(s)))).sum())
    last = len(s) - 1
    q = r * math.sqrt(j / abs(e[last]))
    if q >= 0.99:
        raise GKError(
            f"series terms are still growing at the last available level "
            f"(ratio {q:.3g}); extend the spectrum or reduce J"
        )
    return known + math.exp(log_term(last)) * q / (1.0 - q)


def build_state(basis, s: Spectrum, family: str = "phi", j: float = 0.0,
                gamma: float = 0.0, tol: float = 1e-10,
                domain: GKDomain | None = None) -> GKState:
    """Truncate the coefficient series over ``basis`` and sum it on the grid.

    A list adapter over the family walk ``_walk``, which reads the basis
    once.  With no explicit domain the certification is one-sided: the
    growth bound is fitted from this basis alone and used for both slots.
    The basis must come with the spectrum that actually labels it; nothing
    here re-derives the shift between partner sectors.
    """
    if family not in ("phi", "psi"):
        raise GKError("family must be 'phi' or 'psi'")
    if not basis:
        raise GKError("empty basis")
    j, gamma = float(j), float(gamma)
    n = min(len(basis), len(s))
    norms, function, _, _ = _walk(basis[:n], _state_coefficients(s, family, j, gamma, n))
    if domain is None:
        domain = gk_domain(s, norms, norms)
    return _series(s, family, j, gamma, tol, domain, n, function)


def _series(s: Spectrum, family: str, j: float, gamma: float, tol: float,
            domain: GKDomain, n: int, function: GridFunction | None = None) -> GKState:
    """The state's n-term coefficient series and certified tail, carrying the
    grid sum ``function``: the coefficients depend only on (s, J, gamma, K)."""
    if not j < domain.j_min:
        raise GKError(
            f"J={j:g} is outside the certified domain J_min={domain.j_min:g}"
        )
    k = normalization_K(s, j)
    coeffs = _coefficient_vector(s, family, j, gamma, k, n)
    a, r = (domain.a_phi, domain.r_phi) if family == "phi" else (domain.a_psi, domain.r_psi)
    tail = _tail_bound(s, a, r, family, j, gamma, k, n)
    if tail > tol:
        raise GKError(
            f"basis of length {n} leaves a series tail {tail:.3g} above the "
            f"requested tolerance {tol:g}"
        )
    return GKState(family=family, j=j, gamma=gamma, n_terms=n, k=k, coefficients=coeffs,
                   tail=float(tail), function=function, spectrum=s, domain=domain, build_tol=tol)


# ---------------------------------------------------------------------------
# pairing and the action identity

def _require_partners(phi_state: GKState, psi_state: GKState):
    if phi_state.family != "phi" or psi_state.family != "psi":
        raise GKError("pass the phi-family state first and its psi partner second")
    if phi_state.j != psi_state.j or phi_state.gamma != psi_state.gamma:
        raise GKError("states carry different (J, gamma) labels")
    if not np.array_equal(
        phi_state.spectrum.energies[: phi_state.n_terms],
        psi_state.spectrum.energies[: psi_state.n_terms],
    ):
        raise GKError("states were built over different spectra")


def pair_norm(phi_state: GKState, psi_state: GKState) -> complex:
    """<phi(J,gamma), psi(J,gamma)>, equal to one by the choice of K.

    The coefficients are contracted against exact biorthogonality, which
    makes this an algebraic identity: the phases cancel pairwise even for
    complex eigenvalues, leaving K^2 sum J^n/|rho_n|.  The quadrature's
    verdict on the same pairing is ``inner(phi_state.function,
    psi_state.function)``.
    """
    _require_partners(phi_state, psi_state)
    n = min(phi_state.n_terms, psi_state.n_terms)
    return complex(np.sum(np.conjugate(phi_state.coefficients[:n])
                          * psi_state.coefficients[:n]))


def action_identity(phi_state: GKState, psi_state: GKState) -> complex:
    """<psi(J,gamma), H phi(J,gamma)> = J for ladder-type spectra.

    Requires E_0 = 0 and E_n real positive above it; the coefficient
    contraction then telescopes exactly to J, and a contraction that drifts
    from J raises.  On the grid the same value is ``inner(psi_state.function,
    H phi_state.function)`` for the sector's Hamiltonian H.
    """
    _require_partners(phi_state, psi_state)
    n = min(phi_state.n_terms, psi_state.n_terms)
    e = phi_state.spectrum.energies[:n]
    scale = max(1.0, float(np.abs(e).max()))
    if np.abs(e.imag).max() > 1e-12 * scale:
        raise GKError("action identity needs a real spectrum")
    if abs(e[0]) > 1e-12 * scale or np.any(e.real[1:] <= 0):
        raise GKError("action identity needs E_0 = 0 and E_n > 0 above it")
    val = complex(np.sum(np.conjugate(psi_state.coefficients[:n])
                         * e * phi_state.coefficients[:n]))
    j = phi_state.j
    slack = 1e-8 * max(1.0, j) + 100.0 * (phi_state.tail + psi_state.tail)
    if abs(val - j) > slack:
        raise GKError(
            f"coefficient contraction {val:.6g} drifted from the action "
            f"value J={j:g}; the truncation is inconsistent"
        )
    return val


# ---------------------------------------------------------------------------
# the moment problem

@dataclass(eq=False)
class MomentDensity:
    """Density on [0, J_min) whose moments reproduce |rho_n|."""

    label: str | None
    density: object
    scale: float | None
    solved: bool


def moment_density(s: Spectrum) -> MomentDensity:
    """Match |rho_n| against closed-form families.

    Recognized: |E_n| = c*n for constant c gives |rho_n| = c^n n! and the
    density exp(-J/c)/c.  Constant-modulus spectra have |rho_n| = 1, whose
    moment sequence no integrable density on a half line reproduces here;
    anything else is reported unsolved rather than guessed.
    """
    e = s.energies
    ns = np.arange(1, len(e))
    ratios = np.abs(e[1:]) / ns
    c = float(ratios.mean())
    if np.max(np.abs(ratios - c)) <= 1e-9 * max(1.0, c):
        return MomentDensity(
            f"exponential(scale={c:g})",
            lambda jv, c=c: np.exp(-np.asarray(jv, dtype=float) / c) / c,
            c,
            True,
        )
    if np.max(np.abs(np.abs(e[1:]) - 1.0)) <= 1e-9:
        return MomentDensity("unit-moments", None, None, False)
    return MomentDensity(None, None, None, False)


def _finite_power_moments(density, powers, j_upper: float) -> np.ndarray:
    """Integrals of J^p times the density over [0, j_upper], one per power.

    Each power gets the bits and stop test of ``numerics._panel_simpson``
    (rel_tol 1e-11), or its last value if it never settles, but the powers
    share one ladder: each level's nodes and density are computed once and
    the rows still refining are summed in chunks of about 2 * ``_BLOCK`` cells.
    """
    # substitute J = u^2 so half-integer powers stay smooth at the origin
    b, ex = math.sqrt(j_upper), 2.0 * np.asarray(powers, dtype=float) + 1.0
    values, refining = np.full(len(ex), np.nan), np.arange(len(ex))  # nothing settles on NaN
    for m in (8 << k for k in range(14)):  # _panel_simpson's max_refine levels from 8 panels
        u = np.linspace(0.0, b, m + 1)
        dens = np.asarray(density(u * u), dtype=float)
        col, val, step = ex[refining, None], np.empty(len(refining)), max(1, 2 * _BLOCK // (m + 1))
        for lo in range(0, len(col), step):
            # a row gets the bits of a 1-D power with a scalar exponent (a full exponent
            # matrix does not), except 2: numpy squares for it, a column may miss by an ulp
            ys = u ** col[lo:lo + step]
            ys[col[lo:lo + step, 0] == 2.0] = u * u
            ys *= 2.0
            ys *= dens
            val[lo:lo + step] = (ys[:, 0] + ys[:, -1] + 4 * ys[:, 1:-1:2].sum(axis=1)
                                 + 2 * ys[:, 2:-2:2].sum(axis=1))
        val *= b / m / 3.0
        settled = np.abs(val - values[refining]) <= 1e-11 * np.maximum(1.0, np.abs(val))
        values[refining], refining = val, refining[~settled]
        if not len(refining):
            break
    return values


def moment_residuals(s: Spectrum, md: MomentDensity, n_max: int = 10,
                     rel_tol: float = 1e-8):
    """Check the half-line integral of J^n times the density against
    |rho_n| for n <= n_max, one relative-error check per moment."""
    if not md.solved:
        raise GKError("no solved moment density to verify")
    checks = []
    top = min(n_max, len(s) - 1)
    for n in range(top + 1):
        want = math.exp(s.log_abs_rho[n])
        got = integrate_halfline(
            lambda jv, p=n: np.asarray(jv, dtype=float) ** p
            * np.asarray(md.density(jv), dtype=float)
        )
        err = abs(got - want) / abs(want)
        checks.append(CheckResult.from_residual(f"moment n={n}", err, rel_tol))
    return checks


# ---------------------------------------------------------------------------
# resolution of the identity

def _sinc(z: np.ndarray) -> np.ndarray:
    """sin(z)/z continued through zero, valid for complex arguments."""
    z = np.asarray(z, dtype=np.complex128)
    out = np.ones_like(z)
    big = np.abs(z) > 1e-6
    out[big] = np.sin(z[big]) / z[big]
    small = ~big & (np.abs(z) > 0)
    zs = z[small]
    out[small] = 1.0 - zs * zs / 6.0 + zs ** 4 / 120.0
    return out


@dataclass(frozen=True)
class ResolutionPoint:
    gamma_limit: float
    j_max: float
    n_trunc: int
    value: complex
    abs_error: float
    rel_error: float | None


@dataclass(eq=False)
class ResolutionReport:
    target: complex
    estimate: complex
    gamma_trace: tuple
    j_trace: tuple
    n_trace: tuple


# the angle windows Gamma of the trace, widest last
_GAMMA_LIMITS = (25.0, 50.0, 100.0, 200.0)


def resolution_estimate(f, g, phi_basis, psi_basis, s: Spectrum,
                        md: MomentDensity,
                        n_trunc: int | None = None) -> ResolutionReport:
    """Estimate <f, g> from the overcompleteness integral of the family.

    The angle average of the cross phases is carried out in closed form
    (sin(Gamma * dE)/(Gamma * dE), which is what the quadrature it replaces
    converges to), the J integral numerically against the moment density;
    K^2 cancels between the coefficients and the measure.  Off-diagonal
    terms die like 1/Gamma, diagonal ones approach the exact moments, so
    the trace converges toward <f, g> in the joint limit and its points
    report the approach rather than assert a fixed tolerance.  The J
    integral runs up to j_max = max(10, 40 * min_gap), and the angle windows
    are ``_GAMMA_LIMITS``.  The J moments of all half-integer powers share
    one Simpson ladder per upper limit (``_finite_power_moments``); a
    T-matrix entry is a moment over sqrt(rho_a) conj(sqrt(rho_b)), and the
    denominators and each window's sinc are formed once per trace.
    """
    n = n_trunc if n_trunc is not None else min(len(phi_basis), len(psi_basis), len(s))
    if n < 2:
        raise GKError("need at least two levels")
    if n > min(len(phi_basis), len(psi_basis), len(s)):
        raise GKError("truncation exceeds the available basis or spectrum")
    return _resolution(np.array([inner(f, phi_basis[i]) for i in range(n)]),
                       np.array([inner(psi_basis[i], g) for i in range(n)]), inner(f, g), s, md)


@np.errstate(over="ignore", invalid="ignore")  # point() refuses a trace past double range
def _resolution(f_coeff, g_coeff, target: complex, s: Spectrum, md: MomentDensity):
    """:func:`resolution_estimate` from the overlaps <f, phi_n> and
    <psi_n, g> for n below the truncation, and the target <f, g>."""
    if not md.solved:
        raise GKError("resolution estimate needs a solved moment density")
    if not s.multiplicity_one:
        raise GKError(
            f"spectrum has (near-)coincident eigenvalues (min gap {s.min_gap:.3g}); "
            "the angle average cannot separate them"
        )
    n = len(f_coeff)
    j_max = max(10.0, 40.0 * s.min_gap)
    e = s.energies[:n]

    # numpy scalar products: an array product of complex factors may differ in the last bit
    den = np.array([[ra * np.conjugate(rb) for rb in s.sqrt_rho[:n]] for ra in s.sqrt_rho[:n]])
    windows = {gv: _sinc(gv * (e[None, :] - e[:, None])) for gv in _GAMMA_LIMITS}

    def t_matrix(upper):
        powers = _finite_power_moments(md.density, 0.5 * np.arange(2 * n - 1), upper)
        return powers[np.add.outer(np.arange(n), np.arange(n))] / den

    def point(big_gamma, upper, levels, t):
        """The estimate over the first ``levels`` levels in the angle window
        big_gamma, with ``t`` the T-matrix up to J = upper, and its errors."""
        w = windows[big_gamma][:levels, :levels]
        val = complex(np.einsum("a,ab,b->", f_coeff[:levels], w * t[:levels, :levels],
                                g_coeff[:levels]))
        if not abs(val.real) + abs(val.imag) < math.inf:  # NaN, infinity, or a modulus past it
            raise GKError(f"the resolution trace leaves double range at Gamma={big_gamma:g}: the "
                          "window sin(Gamma dE)/(Gamma dE) grows like exp(Gamma |Im dE|)")
        abs_err = abs(val - target)
        return ResolutionPoint(big_gamma, upper, levels, val, abs_err,
                               abs_err / abs(target) if abs(target) > 1e-8 else None)

    t_full = t_matrix(j_max)
    final_gamma = _GAMMA_LIMITS[-1]
    gamma_trace = [point(gv, j_max, n, t_full) for gv in _GAMMA_LIMITS]
    j_trace = [point(final_gamma, j_max * frac, n, t_full if frac == 1.0 else t_matrix(j_max * frac))
               for frac in (0.25, 0.5, 1.0)]
    n_trace = [point(final_gamma, j_max, levels, t_full)
               for levels in sorted({max(2, n // 2), max(2, (3 * n) // 4), n})]

    return ResolutionReport(target=target, estimate=gamma_trace[-1].value,
                            gamma_trace=tuple(gamma_trace), j_trace=tuple(j_trace),
                            n_trace=tuple(n_trace))


# ---------------------------------------------------------------------------
# the bicoherent pair

def state_pair(s: Spectrum, phi_levels, psi_levels, j: float, gamma: float, tol: float,
               n_overlaps: int) -> tuple:
    """Both states at (J, gamma) over len(s) levels of each family, given as
    iterables and read by ``_walk``, phi whole before psi: a level the model
    cannot build is reported before a norm that overflows.  Returns (phi
    state, psi state, domain, phi norms, psi norms, trace); the trace, of
    <phi_0, phi_0> over the first ``n_overlaps`` (at least two) levels, is
    None, and no overlap is formed, when ``moment_density(s)`` is unsolved.
    """
    n = len(s)
    md = moment_density(s)
    n_overlaps = n_overlaps if md.solved else 0
    phi_norms, phi_sum, phi_overlaps, phi0 = _walk(
        phi_levels, _state_coefficients(s, "phi", j, gamma, n), inner, n_overlaps)
    psi_norms, psi_sum, psi_overlaps, _ = _walk(
        psi_levels, _state_coefficients(s, "psi", j, gamma, n),
        lambda _, psi: inner(psi, phi0), n_overlaps)
    domain = gk_domain(s, phi_norms, psi_norms)
    phi, psi = (_series(s, family, j, gamma, tol, domain, n, function)
                for family, function in (("phi", phi_sum), ("psi", psi_sum)))
    # the first phi overlap is the target <phi_0, phi_0>
    trace = (_resolution(np.array(phi_overlaps), np.array(psi_overlaps), phi_overlaps[0], s, md)
             if md.solved else None)
    return phi, psi, domain, phi_norms, psi_norms, trace


# ---------------------------------------------------------------------------
# time evolution

def evolve(state: GKState, t: float) -> GKState:
    """Shift the angle label by t; H-evolution acts the same way.

    The returned state is the coefficient series rebuilt at gamma + t, with
    no grid function, cross-checked against the spectral phases applied to
    the existing coefficients (conjugated for the psi family, matching
    evolution under the adjoint).
    """
    t = float(t)
    fresh = _series(state.spectrum, state.family, state.j, state.gamma + t, state.build_tol,
                    state.domain, state.n_terms)
    e = state.spectrum.energies[: state.n_terms]
    phases = np.exp(-1j * (e if state.family == "phi" else np.conjugate(e)) * t)
    direct = state.coefficients * phases
    drift = np.max(np.abs(direct - fresh.coefficients))
    if drift > 1e-12 * max(1.0, float(np.max(np.abs(direct)))):
        raise GKError(
            f"evolution cross-check failed: phase route and rebuild differ by {drift:.3g}"
        )
    return fresh


# ---------------------------------------------------------------------------
# gamma-dependent lowering operators

def lowering_action(s: Spectrum, gamma: float, family: str = "phi",
                    n_terms: int | None = None) -> np.ndarray:
    """Matrix of the angle-dependent lowering operator on the first N levels.

    Entry (n-1, n) is sqrt(E_n) exp(i (E_n - E_{n-1}) gamma); the psi
    variant conjugates only the eigenvalues in the exponent, keeping
    sqrt(E_n) itself, which is what the shared sqrt(rho_n) denominator of
    the two coefficient families requires.  The ground column is zero and
    the matrix is nilpotent at its own size.
    """
    if family not in ("phi", "psi"):
        raise GKError("family must be 'phi' or 'psi'")
    n = n_terms if n_terms is not None else len(s)
    if n > len(s):
        raise GKError("truncation exceeds the spectrum length")
    e = s.energies[:n]
    ph = e if family == "phi" else np.conjugate(e)
    mat = np.zeros((n, n), dtype=np.complex128)
    idx = np.arange(1, n)
    mat[idx - 1, idx] = np.sqrt(e[idx]) * np.exp(1j * (ph[idx] - ph[idx - 1]) * gamma)
    return mat


def lowering_defect(state: GKState) -> float:
    """max |a(gamma) c - sqrt(J) c| over the truncated coefficient vector.

    Interior entries cancel exactly because each sqrt(rho_n) step is the
    principal sqrt(E_n); what remains is the top entry sqrt(J)|c_{N-1}|,
    the truncation's own footprint.
    """
    mat = lowering_action(state.spectrum, state.gamma, state.family, state.n_terms)
    c = state.coefficients
    return float(np.max(np.abs(mat @ c - math.sqrt(state.j) * c)))
