"""Registered worked examples with closed-form eigendata.

Five families ship built in:

* ``harmonic`` - the self-adjoint oscillator factorization wA = wB = x,
  eigenvalues 2n on Hermite functions.  The base everything else deforms.
* ``deformed-harmonic`` - the same ladder conjugated by a bounded
  multiplier e^q (see :mod:`susyq.deform`): non-selfadjoint, same spectrum.
* ``swanson`` - the rotated-oscillator family: complex-argument Hermite
  eigenfunctions of a non-selfadjoint quadratic Hamiltonian with real
  spectrum (n + 1/2)/cos(2 theta).  No real factorized form is used; the
  Hamiltonian is applied directly.
* ``black-scholes`` - the operator form of the constant-coefficient
  Black-Scholes generator after removing the time direction, factorized by
  a superpotential pair built from a v-function with one real zero.  The
  interest is in its vacua, none-to-two of which are square integrable
  depending on the rate parameter.
* ``pseudo-bosonic`` - wA = k + e^x, wB = x - e^x: the factors obey
  [A, B] = 1, the spectrum is 0, 1, 2, ..., and the eigenfunctions are a
  fixed polynomial ladder p_n times the respective vacuum.  The dual family
  grows like exp(e^x) and is carried in scaled form.

Each model is a :class:`ModelRecord` built by the registry table at the end
of this module, which the command line binds to.  Eigenfunction generators
return grid carriers; pure polynomial data (the p_n ladder) is exposed in
exact coefficient arithmetic for the identity checks that need it.
"""

from __future__ import annotations

import cmath
import math
import numbers
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial import Polynomial

from .deform import DEFAULT_DEFORMATION_Q, _read_only, build_deformation, deformed_pair
from .expr import Const, Exp, LogAbs, Var, differentiate, evaluate_array, parse
from .numerics import (Grid, GridFunction, _reject_non_finite, default_grid, inner,
                       stencil_pass)
from .reporting import CheckResult
from .susy import (
    SuperpotentialPair,
    VacuumRecord,
    build_pair,
    finalize_vacua,
    vacua as generic_vacua,
)

__all__ = [
    "ModelRecord",
    "ModelError",
    "BSRow",
    "hermite",
    "pb_polynomials",
    "harmonic_model",
    "deformed_harmonic_model",
    "swanson_model",
    "black_scholes_model",
    "bs_classification",
    "bs_numeric_flags",
    "pseudo_bosonic_model",
    "pb_identities",
    "PBIdentityReport",
    "get_model",
    "model_params",
    "models_list",
]


class ModelError(ValueError):
    """Invalid model name or parameters."""


# ---------------------------------------------------------------------------
# special functions

def hermite(n: int, x):
    """Physicists' Hermite polynomial by the three-term recurrence.

    Works on real or complex scalars and arrays; complex arguments are what
    the rotated-oscillator eigenfunctions need.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    z = np.asarray(x)
    z = z.astype(np.result_type(z.dtype, np.float64))
    h, h_prev = np.ones_like(z), np.empty_like(z)
    for m in range(n):
        h, h_prev = _hermite_step(m, z, h, h_prev), h
    return h.item() if np.ndim(x) == 0 else h


def _hermite_step(m: int, z: np.ndarray, h: np.ndarray, h_prev: np.ndarray) -> np.ndarray:
    """H_{m+1}(z) = 2 z H_m - 2 m H_{m-1} from ``h`` = H_m and ``h_prev`` =
    H_{m-1} (unread for m = 0, where H_1 = 2 z), written over ``h_prev``."""
    if m == 0:
        return np.multiply(2, z, out=h_prev)
    # out of place: a one-point complex product over a factor can change bits
    t = 2 * z * h
    np.multiply(2 * m, h_prev, out=h_prev)
    return np.subtract(t, h_prev, out=h_prev)


class _HermiteLadder:
    """H_n(c x) on a grid (c None: H_n(x)), resuming :func:`hermite`'s recurrence.

    Eigenfamily generators ask for levels 0, 1, 2, ... on one grid; each
    level then costs one recurrence step instead of n.  The state is the
    argument c x and the last two levels for one grid and one c; a lower
    level, another grid or another c starts again from level 0.  Each step
    is ``hermite``'s step, so each call returns a new array with the bits of
    ``hermite(n, z)``.
    It must be new: numpy evaluates ``c * new_array`` in the new array's
    buffer as ``new_array * c``, and complex products in numpy are not
    bitwise commutative, so ``c`` times a shared array would differ from
    ``c * hermite(n, z)`` in the last bit.
    """

    def __init__(self):
        self._key, self._envelope_key = (None, None, None), None

    def __call__(self, n: int, grid: Grid, c=None) -> np.ndarray:
        if n < 0:
            raise ValueError("n must be nonnegative")
        if (grid, c) != self._key[:2] or n < self._level:
            z = _ladder_argument(grid, c)
            self._key, self._level = (grid, c, z), 0
            self._h, self._h_prev = np.ones_like(z), np.empty_like(z)
        z = self._key[2]
        while self._level < n:
            h = _hermite_step(self._level, z, self._h, self._h_prev)
            self._level, self._h, self._h_prev = self._level + 1, h, self._h
        return self._h.copy()

    def envelope(self, grid: Grid, c, make) -> np.ndarray:
        """``make(grid)``, the Gaussian its levels are multiplied by, held for
        the last (grid, c) only.  Callers read it and never write it."""
        if (grid, c) != self._envelope_key:
            self._envelope_key, self._envelope = (grid, c), make(grid)
        return self._envelope


def _ladder_argument(grid: Grid, c) -> np.ndarray:
    return grid.x if c is None else c * grid.x


def _factorial(n: int) -> float:
    """n! as a float for the Hermite normalizations; past 170! doubles
    cannot hold it, so the level is not available."""
    try:
        return float(math.factorial(n))
    except OverflowError:
        raise ModelError(f"level {n} not available: {n}! exceeds the float range") from None


def _hermite_functions():
    """Orthonormal oscillator eigenfunctions as a generator (n, grid):
    H_n(x) e^{-x^2/2} / sqrt(2^n n! sqrt(pi)) on the grid."""
    ladder = _HermiteLadder()

    def fn(n, grid):
        scale = math.sqrt(2.0**n * _factorial(n) * math.sqrt(math.pi))
        env = ladder.envelope(grid, None, lambda g: np.exp(-g.x ** 2 / 2))
        return ladder(n, grid) * env / scale

    return fn


# ---------------------------------------------------------------------------
# model record and registry

@dataclass
class ModelRecord:
    """A worked example: factorized pair (when one exists) plus eigendata.

    ``phi2``/``psi2`` return the second-sector partner at the *same
    eigenvalue* as level n of the first sector, or None when the level has
    no partner (the unbroken zero-mode).  Generators return plain carriers
    when the family is representable in doubles and scaled carriers when it
    is not; the carriers of one family on one grid share read-only scale
    arrays, so a level holds only its own values.
    """

    name: str
    params: dict
    pair: SuperpotentialPair | None
    energy: object  # n -> sector-1 eigenvalue, or None when unknown
    phi1: object = None
    phi2: object = None
    psi1: object = None
    psi2: object = None
    constants: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)
    vacua_fn: object = None

    def vacua(self, grid: Grid | None = None, normalization: str = "raw"):
        if self.vacua_fn is not None:
            return self.vacua_fn(grid or default_grid(), normalization)
        if self.pair is None:
            raise ModelError(f"model {self.name!r} has no factorized form, so no factor vacua")
        return generic_vacua(self.pair, grid or default_grid(), normalization)


def model_params(name: str, **params) -> dict:
    """A registered model's parameter defaults merged with ``params``; a
    parameter whose default is a number must be given a real number (not a
    string or a bool), and one whose default is an expression string must be
    given a string."""
    if name not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise ModelError(f"unknown model {name!r}; registered: {known}")
    defaults = _REGISTRY[name][1]
    unknown = set(params) - set(defaults)
    if unknown:
        raise ModelError(f"model {name!r} does not take parameters {sorted(unknown)}")
    for key, value in params.items():
        if _is_number(defaults[key]) and not _is_number(value):
            raise ModelError(f"model {name!r} parameter {key!r} must be a number, got {value!r}")
        if isinstance(defaults[key], str) and not isinstance(value, str):
            raise ModelError(f"model {name!r} parameter {key!r} must be an expression string")
    return {**defaults, **params}


def get_model(name: str, **params) -> ModelRecord:
    """Build a registered model from its :func:`model_params`."""
    params = model_params(name, **params)
    return _REGISTRY[name][0](**params)


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _one_level_down(gen):
    """Second-sector partners from a first-sector generator: level n is
    ``gen``'s level n-1, and level 0 has none (the unbroken zero-mode)."""
    return lambda n, grid: None if n == 0 else gen(n - 1, grid)


def models_list() -> list:
    return [
        {"name": name, "params": defaults, "description": description}
        for name, (_, defaults, description) in sorted(_REGISTRY.items())
    ]


# ---------------------------------------------------------------------------
# harmonic base

def harmonic_model() -> ModelRecord:
    """wA = wB = x: eigenvalues 2n on Hermite functions, fully self-adjoint."""
    pair = build_pair(parse("x"), parse("x"))
    hermite_fn = _hermite_functions()

    def phi1(n, grid):
        return GridFunction(grid, hermite_fn(n, grid))

    # partner potential x^2 + 1 has eigenvalue 2m + 2 on level m
    phi2 = _one_level_down(phi1)
    return ModelRecord(
        name="harmonic",
        params={},
        pair=pair,
        energy=lambda n: 2.0 * n,
        phi1=phi1,
        phi2=phi2,
        psi1=phi1,
        psi2=phi2,
    )


def deformed_harmonic_model(q: str = DEFAULT_DEFORMATION_Q) -> ModelRecord:
    """The oscillator ladder conjugated by e^q: phi_n = e^q e_n and
    psi_n = e^{-conj q} e_n over the Hermite functions e_n, eigenvalues 2n."""
    d = build_deformation(q)
    hermite_fn = _hermite_functions()

    def base(n, grid):
        return GridFunction(grid, hermite_fn(n, grid))

    def phi1(n, grid):
        return GridFunction(grid, d.multiplier_values(grid) * hermite_fn(n, grid))

    def psi1(n, grid):
        return GridFunction(grid, d.inverse_dual_values(grid) * hermite_fn(n, grid))

    return ModelRecord(
        name="deformed-harmonic",
        params={"q": q},
        pair=deformed_pair(d),
        energy=lambda n: 2.0 * n,
        phi1=phi1,
        phi2=_one_level_down(phi1),
        psi1=psi1,
        psi2=_one_level_down(psi1),
        constants={"m": d.m, "M": d.M},
        notes=list(d.notes),
        extras={"deformation": d, "base_eigenfunction": base},
    )


# ---------------------------------------------------------------------------
# swanson family

def _swanson_applier(theta: float, rotation_sign: float):
    sec = 1.0 / math.cos(2 * theta)
    kin = cmath.exp(-2j * rotation_sign * theta)
    pot = cmath.exp(+2j * rotation_sign * theta)

    def apply_h(f):
        """0.5 * sec * (-kin * f'' + pot * x**2 * f), operation by operation."""
        x = f.grid.x

        # no complex product is written over a factor (see stencil_pass)
        def combine(sl, v, d2, out, t, u):
            np.multiply(np.multiply(pot, np.square(x[sl]), out=t), v, out=out)
            np.add(np.multiply(-kin, d2, out=t), out, out=u)
            np.multiply(0.5 * sec, u, out=out)

        return stencil_pass(f, [((2,), combine, pot, kin)])[0]

    return apply_h


def swanson_model(theta: float = math.pi / 8) -> ModelRecord:
    """Rotated oscillator: complex-scaled Hermite eigenfamilies, real spectrum.

    The two families are eigenfunctions of the Hamiltonian and of its
    adjoint; their normalizations are chosen so the cross pairing is exactly
    the Kronecker delta (conj(n1) * n2 = e^{-i theta}/sqrt(pi)).  No real
    superpotential pair is attached: the Hamiltonian applier in ``extras``
    acts directly.
    """
    if not (-math.pi / 4 < theta < math.pi / 4) or theta == 0.0:
        raise ModelError("theta must lie in (-pi/4, pi/4) excluding 0")
    n1 = cmath.exp(1j * theta / 2) / math.pi**0.25
    n2 = cmath.exp(-1j * theta / 2) / math.pi**0.25
    rot = cmath.exp(1j * theta)
    ladder = _HermiteLadder()  # shared: one family's levels and envelope at a time

    def family(norm_const, rotation):
        def gen(n, grid):
            env = ladder.envelope(grid, rotation,
                                  lambda g: np.exp(-0.5 * rotation**2 * g.x**2))
            values = (norm_const / math.sqrt(2.0**n * _factorial(n))
                      * ladder(n, grid, rotation) * env)
            return GridFunction(grid, values)

        return gen

    return ModelRecord(
        name="swanson",
        params={"theta": theta},
        pair=None,
        energy=lambda n: (n + 0.5) / math.cos(2 * theta),
        phi1=family(n1, rot),
        psi1=family(n2, 1.0 / rot),
        constants={
            "n1": n1,
            "n2": n2,
            "pairing_target": cmath.exp(-1j * theta) / math.sqrt(math.pi),
        },
        notes=[
            "biorthogonality degrades as theta approaches pi/4 (reported, not asserted)",
            "second-sector states require an explicitly shifted spectrum",
        ],
        extras={
            "apply_h": _swanson_applier(theta, +1.0),
            "apply_h_dual": _swanson_applier(theta, -1.0),
        },
    )


# ---------------------------------------------------------------------------
# black-scholes family

@dataclass(frozen=True)
class BSRow:
    """Square-integrability flags of the four factor vacua."""

    r: float
    phi0_1: bool
    phi0_2: bool
    psi0_1: bool
    psi0_2: bool

    def flags(self):
        return (self.phi0_1, self.phi0_2, self.psi0_1, self.psi0_2)


def bs_classification(r: float) -> BSRow:
    """Integrability of the four vacua by the exponent case analysis.

    The A-side vacua always grow at one end; the B-side pair decays at both
    ends exactly when the rate is positive.
    """
    good = r > 0
    return BSRow(r=float(r), phi0_1=False, phi0_2=good, psi0_1=False, psi0_2=good)


def black_scholes_model(r: float = 1.0, v0: float = 1.0) -> ModelRecord:
    """Superpotential pair for the rate-r generator, with closed-form vacua.

    The pair comes from a v-function solving v' = -(1+r)v - 1 (sigma^2
    fixed to 2): wA = r + 1/v, wB = 1 + 1/v.  For r > -1 the v-function has
    a real zero x0 where wA, wB, and the partner potential blow up; x0 is
    declared as a singular point and annotated downstream.  The vacua are
    pure exponentials of +-(r x or x) plus log|u| for u the v-zero factor,
    sampled with exact log-derivatives so annihilation residuals stay at
    rounding level even near the singularity.
    """
    if v0 <= 0:
        raise ModelError("v0 must be positive")
    r = float(r)
    v0 = float(v0)
    x = Var()
    if r == -1.0:
        v_expr = Const(v0) - x
        u = Const(v0) - x  # vacuum log factor: integral of 1/v is -log|u|
        x0 = v0
        v2_closed = Const(2.0) / ((x - Const(v0)) ** 2) + Const(-1.0)
    else:
        v_expr = Const(v0) * Exp(Const(-(r + 1.0)) * x) + Const(-1.0 / (r + 1.0))
        u = Exp(Const(r + 1.0) * x) + Const(-(r + 1.0) * v0)
        x0 = math.log((r + 1.0) * v0) / (r + 1.0) if r > -1.0 else None
        rv = Const(r) * v_expr * v_expr + Const(2.0 * (r + 1.0)) * v_expr + Const(2.0)
        v2_closed = rv / (v_expr * v_expr)
    w_a = Const(r) + Const(1.0) / v_expr
    w_b = Const(1.0) + Const(1.0) / v_expr
    singular = (x0,) if x0 is not None else ()
    # wA and wB differ by the constant 1 - r, so the drift and both dual
    # potentials collapse; supplying the reduced forms makes them exact on
    # the grid instead of cancelling numerically near the v-zero.
    pair = build_pair(
        w_a,
        w_b,
        singular_points=singular,
        simplified={
            "q1": Const(1.0 - r),
            "v1": Const(r),
            "v2": v2_closed,
            "v1_dual": Const(r),
            "v2_dual": v2_closed,
        },
    )

    log_u = LogAbs(u)
    vacuum_logs = {
        "phi0_1": Const(-r) * x + log_u,
        "phi0_2": x - log_u,
        "psi0_1": Const(-1.0) * x + log_u,
        "psi0_2": Const(r) * x - log_u,
    }
    # each vacuum e^g is carried as values 1 with its exact log-derivatives g' and g''
    ladders = [d for g in vacuum_logs.values()
               for d in (g, differentiate(g), differentiate(differentiate(g)))]

    def vacua_fn(grid, normalization):
        logs = iter([GridFunction(grid, v).values.real for v in evaluate_array(ladders, grid.x)])
        ones = _read_only(np.ones(grid.n_points))
        records = {label: VacuumRecord.measure(
                       label, GridFunction(grid, ones, next(logs), next(logs), next(logs)), pair)
                   for label in vacuum_logs}
        return finalize_vacua(records, normalization)

    return ModelRecord(
        name="black-scholes",
        params={"r": r, "v0": v0},
        pair=pair,
        energy=None,
        notes=(
            ["partner potential has a second-order pole at x0"] if x0 is not None else []
        ),
        extras={"x0": x0, "v2_closed_form": v2_closed},
        vacua_fn=vacua_fn,
    )


def bs_numeric_flags(record: ModelRecord, grid: Grid | None = None) -> BSRow:
    """Classification row re-derived from fitted decay exponents on the grid."""
    v = record.vacua(grid or default_grid())
    return BSRow(record.params["r"], *(rec.in_l2 for rec in v.records()))


# ---------------------------------------------------------------------------
# pseudo-bosonic family

def pb_polynomials(k: float, n_max: int) -> list:
    """The polynomial ladder p_0..p_{n_max} in exact coefficient arithmetic.

    p_0 = 1 and sqrt(n) p_n = (x + k) p_{n-1} - p_{n-1}'; the recursion
    depends on the superpotentials only through their sum k + x.
    """
    polys = [Polynomial([1.0])]
    shift = Polynomial([float(k), 1.0])
    # a k near double range overflows coefficients; the samples report it
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, n_max + 1):
            prev = polys[-1]
            polys.append((prev * shift - prev.deriv()) / math.sqrt(n))
    return polys


def _scale_per_grid(make):
    """A family's read-only ``(log_scale, dlog, d2log)`` from ``make(x, exp(x))``,
    held for the last grid only and shared by the levels on it; a log scale
    that overflows on the grid is a non-finite sample."""

    @lru_cache(maxsize=1)
    def scale(grid):
        with np.errstate(over="ignore", invalid="ignore"):
            arrays = make(grid.x, np.exp(grid.x))
        _reject_non_finite(grid, ~np.isfinite(arrays[0]))
        return tuple(map(_read_only, arrays))

    return scale


# the largest |k| whose dual normalization exp(-k^2/2)/sqrt(2 pi) is a normal double
_PB_DUAL_K_LIMIT = math.sqrt(-2.0 * math.log(sys.float_info.min * math.sqrt(2.0 * math.pi)))


def pseudo_bosonic_model(k: float = -1.0, n_max: int = 14) -> ModelRecord:
    """wA = k + e^x, wB = x - e^x: commuting ladder with spectrum 0, 1, 2, ...

    Both families are scaled carriers: the dual weight e^{e^x - x^2/2} is
    far past double range outright, and the first-sector weight
    e^{-kx - e^x} underflows on the right half of the grid while the cross
    products conj(phi) psi ~ e^{-kx - x^2/2} still carry mass there.
    Keeping both scales symbolic makes every pairing integrand exactly
    representable.  The second sector reuses the same functions one level
    down (its spectrum is shifted by one), so level n's partner is the
    (n-1)-th function.
    """
    k = float(k)
    pair = build_pair(parse("k + exp(x)", {"k": k}), parse("x - exp(x)"))
    polys = pb_polynomials(k, n_max)
    n_psi = math.exp(-k * k / 2.0) / math.sqrt(2.0 * math.pi)

    def poly_values(n, xs):
        if n >= len(polys):
            raise ModelError(f"model built with n_max={n_max}; level {n} not available")
        return polys[n](xs)

    phi_scale = _scale_per_grid(lambda xs, e: (-k * xs - e, -k - e, -e))
    psi_scale = _scale_per_grid(lambda xs, e: (e - xs**2 / 2.0, e - xs, e - 1.0))

    def phi1(n, grid):
        return GridFunction(grid, poly_values(n, grid.x), *phi_scale(grid))

    def psi1(n, grid):
        if n_psi < sys.float_info.min:
            raise ModelError(f"dual levels need |k| < {_PB_DUAL_K_LIMIT:.4f}: at k={k!r} "
                             "their normalization exp(-k^2/2)/sqrt(2 pi) underflows")
        return GridFunction(grid, n_psi * poly_values(n, grid.x), *psi_scale(grid))

    return ModelRecord(
        name="pseudo-bosonic",
        params={"k": k},
        pair=pair,
        energy=lambda n: float(n),
        phi1=phi1,
        phi2=_one_level_down(phi1),
        psi1=psi1,
        psi2=_one_level_down(psi1),
        notes=[
            "second-sector eigenvalues are the first sector's shifted by one; "
            "coherent-state constructions on sector 2 must pass the shifted spectrum"
        ],
    )


@dataclass
class PBIdentityReport:
    checks: list
    notes: list


def pb_identities(k: float = -1.0, n_max: int = 12, grid: Grid | None = None) -> PBIdentityReport:
    """Exact-coefficient identities of the polynomial ladder.

    (a) the sign-alternating family q_m built by q_{m+1} = q_m' - (x+k) q_m
        equals (-1)^m sqrt(m!) p_m (the weight-shifted m-th derivative rule);
    (b) the n-th derivative of p_n is the constant sqrt(n!);
    (c) p_n matches the Hermite closed form with prefactor
        2^{-n/2} (n!)^{-1/2} of H_n((x+k)/sqrt(2)); the superficially
        natural orthonormalization prefactor 2^{-n} (n!)^{-1} fails the
        recursion already at n = 1 and is rejected, with the mismatch noted;
    (d) for f, g inside the span of the first levels, summing
        <f, psi_j><phi_j, g> over the span reproduces <f, g> on the grid.
    """
    if n_max > 14:
        raise ModelError("n_max above 14 overflows double factorial accuracy")
    k = float(k)
    checks = []
    notes = []
    polys = pb_polynomials(k, n_max)
    xs = np.linspace(-3.0, 3.0, 20)

    # (a) alternating-derivative family
    q = Polynomial([1.0])
    shift = Polynomial([k, 1.0])
    worst = 0.0
    for m in range(1, n_max + 1):
        q = q.deriv() - shift * q
        want = (-1.0) ** m * math.sqrt(math.factorial(m)) * polys[m]
        scale = np.max(np.abs(want(xs)))
        worst = max(worst, np.max(np.abs(q(xs) - want(xs))) / scale)
    checks.append(
        CheckResult.from_residual(
            "weight-shifted derivative family matches the ladder (20 points)", worst, 1e-9
        )
    )

    # (b) top derivative collapses to sqrt(n!)
    worst = 0.0
    for n in range(n_max + 1):
        top = polys[n].deriv(n) if n else polys[n]
        const = float(top.coef[0])
        want = math.sqrt(math.factorial(n))
        worst = max(worst, abs(const - want) / want)
        if len(top.coef) > 1:
            worst = max(worst, np.max(np.abs(top.coef[1:])))
    checks.append(
        CheckResult.from_residual("n-th derivative of p_n equals sqrt(n!)", worst, 1e-12)
    )

    # (c) Hermite closed form, derived prefactor
    worst = 0.0
    for n in range(n_max + 1):
        closed = hermite(n, (xs + k) / math.sqrt(2.0)) / (
            2.0 ** (n / 2.0) * math.sqrt(math.factorial(n))
        )
        scale = max(np.max(np.abs(closed)), 1e-30)
        worst = max(worst, np.max(np.abs(polys[n](xs) - closed)) / scale)
    checks.append(
        CheckResult.from_residual(
            "Hermite closed form with prefactor 2^(-n/2) (n!)^(-1/2)", worst, 1e-9
        )
    )
    alt = hermite(1, (xs + k) / math.sqrt(2.0)) / (2.0 * 1.0)
    alt_gap = np.max(np.abs(polys[1](xs) - alt)) / np.max(np.abs(polys[1](xs)))
    checks.append(
        CheckResult.from_residual(
            "prefactor 2^(-n) (n!)^(-1) rejected by the recursion at n=1",
            0.0 if alt_gap > 1e-2 else 1.0,
            0.5,
        )
    )
    notes.append(
        "closed form uses 2^(-n/2) (n!)^(-1/2) H_n((x+k)/sqrt 2); the "
        f"2^(-n) (n!)^(-1) variant differs by {alt_gap:.3g} relative already at n=1 "
        "and is inconsistent with the generating recursion"
    )

    # (d) restricted span resolution on the grid
    grid = grid or default_grid()
    model = pseudo_bosonic_model(k=k, n_max=max(6, n_max))
    phi = [model.phi1(n, grid) for n in range(6)]
    psi = [model.psi1(n, grid) for n in range(6)]
    f = phi[1] + 2.0 * phi[3]
    g = phi[3]
    direct = inner(f, g)
    summed = 0.0 + 0.0j
    for j in range(6):
        summed += np.conjugate(inner(psi[j], f)) * inner(phi[j], g)
    checks.append(
        CheckResult.from_residual(
            "span-restricted completeness sum reproduces the pairing",
            abs(summed - direct) / abs(direct),
            1e-8,
        )
    )
    return PBIdentityReport(checks=checks, notes=notes)


# ---------------------------------------------------------------------------
# the registry: name -> (builder, parameter defaults, description)

_REGISTRY = {
    "harmonic": (harmonic_model, {},
                 "oscillator factorization wA = wB = x with Hermite eigenfunctions"),
    "deformed-harmonic": (deformed_harmonic_model, {"q": DEFAULT_DEFORMATION_Q},
                          "oscillator ladder conjugated by a bounded multiplier e^q"),
    "swanson": (swanson_model, {"theta": math.pi / 8},
                "rotated oscillator with complex-argument Hermite eigenfamilies"),
    "black-scholes": (
        black_scholes_model, {"r": 1.0, "v0": 1.0},
        "rate-r generator factorization with closed-form vacua and classification"),
    "pseudo-bosonic": (
        pseudo_bosonic_model, {"k": -1.0},
        "commuting-ladder pair wA = k + e^x, wB = x - e^x with polynomial eigenfamilies"),
}
