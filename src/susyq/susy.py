"""Factorized operator quadruples built from two superpotentials.

Given wA and wB, the first-order factors

    A = d/dx + wA(x),      B = -d/dx + wB(x)

generate H1 = B A and H2 = A B, both of the form
-d^2/dx^2 + q1 d/dx + V with the shared drift q1 = wB - wA and

    V1 = wA wB - wA',      V2 = wA wB + wB'.

With complex superpotentials these operators are manifestly non-selfadjoint;
their adjoints are the same second-order form with (wA, wB) replaced by
(conj wB, conj wA), carrying the dual potentials v1_dual, v2_dual.  This
module builds the symbolic quadruple, applies all eight operators on the
grid, computes the four factor vacua with decay classification, and verifies
the intertwining relations and the 2x2 matrix superalgebra level by level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import EvalDomainError, Expr, ExprError, conjugate, differentiate, evaluate_array
from .numerics import (
    DecayFit,
    Grid,
    GridFunction,
    RepresentationError,
    _interior_mask,
    cumulative_antiderivative,
    default_grid,
    fitted_decay_exponents,
    inner,
    interior_norm,
    norm,
    relative_residual,
    stencil_pass,
)
from .reporting import CheckResult

__all__ = [
    "SuperpotentialPair",
    "Vacua",
    "VacuumRecord",
    "IntertwineRecord",
    "build_pair",
    "apply_ops",
    "apply_A",
    "apply_B",
    "apply_A_dag",
    "apply_B_dag",
    "apply_H1",
    "apply_H2",
    "apply_H1_dag",
    "apply_H2_dag",
    "vacua",
    "finalize_vacua",
    "intertwine_check",
    "superalgebra_check",
    "factorization_residuals",
    "potential_identity_residual",
    "probe_function",
]


class SuperpotentialPair:
    """(wA, wB) with every derived symbolic quantity and sampling cache.

    Build through :func:`build_pair`, which also cross-checks the assembled
    potentials against the defining identities at scattered points.
    """

    def __init__(self, w_a: Expr, w_b: Expr, singular_points=()):
        self.w_a = w_a
        self.w_b = w_b
        self.dw_a = differentiate(w_a)
        self.dw_b = differentiate(w_b)
        self.q1 = w_b - w_a
        self.v1 = w_a * w_b - self.dw_a
        self.v2 = w_a * w_b + self.dw_b
        self.v1_dual = conjugate(w_a * w_b - self.dw_b)
        self.v2_dual = conjugate(w_a * w_b + self.dw_a)
        self.singular_points = tuple(float(s) for s in singular_points)
        self._cache = {}

    # the sampled fields, in the order a pole among them is reported
    _SAMPLED = ("w_a", "w_b", "dw_a", "dw_b", "q1", "v1", "v2", "v1_dual", "v2_dual")

    def samples(self, grid: Grid) -> dict:
        """Potential and superpotential arrays on the grid, cached and
        read-only: one expression DAG, each distinct subexpression sampled
        once, a pole reported in field order.  Fields that hold one object
        share one array, as do a complex pair's fields of one structure.  A
        pair whose fields are all real (zero imaginary parts) holds float64."""
        if grid not in self._cache:
            fields = [getattr(self, name) for name in self._SAMPLED]
            sampled = evaluate_array(fields, grid.x)
            real = not any(values.imag.any() for values in sampled)
            of_field = {}
            for i, e in enumerate(fields):
                values, sampled[i] = sampled[i], None  # a real pair's complex arrays go one by one
                GridFunction(grid, values)  # PoleOnGridError at a non-finite sample
                if id(e) not in of_field:
                    of_field[id(e)] = np.ascontiguousarray(values.real) if real else values
                    of_field[id(e)].flags.writeable = False
            self._cache[grid] = {name: of_field[id(e)] for name, e in zip(self._SAMPLED, fields)}
        return self._cache[grid]

    def __repr__(self):
        return f"SuperpotentialPair(w_a={self.w_a}, w_b={self.w_b})"


def build_pair(w_a: Expr, w_b: Expr, singular_points=(), simplified=None) -> SuperpotentialPair:
    """Assemble the quadruple and verify its defining identities pointwise.

    Checks, at scattered sample points away from declared singularities:
    V2 - V1 = wA' + wB', and the dual potentials against conj(V_j) - conj(q1').
    These guard the symbolic assembly; they cannot fail for well-formed input.
    Each field is evaluated once, on all the points; a point where any field
    is not finite is skipped, and the first failing point in draw order is
    the one reported.

    ``simplified`` optionally maps field names (q1, v1, v2, v1_dual, v2_dual)
    to algebraically reduced expressions.  Each is verified against the
    derived form at the sample points and then replaces it, so callers that
    know a cancellation in closed form (a constant drift, say) get it exact
    on the grid instead of up to rounding of the uncancelled terms.
    """
    p = SuperpotentialPair(w_a, w_b, singular_points)
    simplified = dict(simplified or {})
    unknown = set(simplified) - {"q1", "v1", "v2", "v1_dual", "v2_dual"}
    if unknown:
        raise ValueError(f"cannot simplify unknown fields {sorted(unknown)}")
    pts = np.random.default_rng(20260822).uniform(-8.0, 8.0, size=50)
    xs = pts[~(np.abs(pts[:, None] - np.array(p.singular_points)) < 0.05).any(axis=1)]
    derived = {"v1": p.v1, "v2": p.v2, "v1_dual": p.v1_dual, "v2_dual": p.v2_dual,
               "dw_a": p.dw_a, "dw_b": p.dw_b, "dq1": differentiate(p.q1)}
    if "q1" in simplified:  # the drift itself is read only to check its reduced form
        derived["q1"] = p.q1
    try:
        values = evaluate_array([*derived.values(), *simplified.values()], xs)
        at, reduced = dict(zip(derived, values)), dict(zip(simplified, values[len(derived):]))
        finite = np.logical_and.reduce([np.isfinite(v) for v in [*at.values(), *reduced.values()]])
    except EvalDomainError:  # a constant subexpression fails at every point
        finite = np.zeros(len(xs), dtype=bool)
    if not finite.any():
        raise ExprError("no pole-free sample points in [-8, 8] to verify the pair on")
    v1, v2, d1, d2, dq = at["v1"], at["v2"], at["v1_dual"], at["v2_dual"], at["dq1"]
    with np.errstate(all="ignore"):  # the points not finite are masked out below
        slope_sum = at["dw_a"] + at["dw_b"]
        scale = np.maximum(np.maximum(abs(v1), abs(v2)), np.maximum(abs(slope_sum), 1.0))
        fails = [
            (abs((v2 - v1) - slope_sum) > 1e-9 * scale, "potential difference identity fails"),
            (abs(d1 - (np.conjugate(v1) - np.conjugate(dq))) > 1e-9 * scale,
             "dual potential v1_dual inconsistent"),
            (abs(d2 - (np.conjugate(v2) - np.conjugate(dq))) > 1e-9 * scale,
             "dual potential v2_dual inconsistent"),
        ] + [(abs(got - at[name]) > 1e-9 * np.maximum(scale, abs(at[name])),
              f"simplified {name} disagrees with the derived form")
             for name, got in reduced.items()]
    bad = np.array([failed for failed, _ in fails]) & finite
    if bad.any():
        i = int(np.argmax(bad.any(axis=0)))  # the first failing point, then its first check
        raise ValueError(f"{fails[int(np.argmax(bad[:, i]))][1]} at x={xs[i]}")
    for name, e in simplified.items():
        setattr(p, name, e)
    return p


# ---------------------------------------------------------------------------
# operator application

def _first_order(w, deriv_sign, conj_w):
    """The stencil job of deriv_sign * f' + w f, with w conjugated for an adjoint."""

    def combine(sl, v, d1, out, t, u):
        np.multiply(deriv_sign, d1, out=out)
        np.multiply(np.conjugate(w[sl], out=u) if conj_w else w[sl], v, out=t)
        out += t

    return (1,), combine, w


def _second_order(drift, potential, dual):
    """The stencil job of -f'' + q f' + V f; with ``dual`` the drift is -conj(drift)."""

    def combine(sl, v, d1, d2, out, t, u):
        np.negative(d2, out=out)
        q = np.negative(np.conjugate(drift[sl], out=u), out=u) if dual else drift[sl]
        np.multiply(q, d1, out=t)
        out += t
        np.multiply(potential[sl], v, out=t)
        out += t

    return (1, 2), combine, drift, potential


# each operator's stencil job from the pair's samples; H1 and H2 go through
# their closed-form potentials, not by composing the factors
_OPERATORS = {
    "A": lambda s: _first_order(s["w_a"], +1.0, False),
    "B": lambda s: _first_order(s["w_b"], -1.0, False),
    "A_dag": lambda s: _first_order(s["w_a"], -1.0, True),
    "B_dag": lambda s: _first_order(s["w_b"], +1.0, True),
    "H1": lambda s: _second_order(s["q1"], s["v1"], False),
    "H2": lambda s: _second_order(s["q1"], s["v2"], False),
    "H1_dag": lambda s: _second_order(s["q1"], s["v1_dual"], True),
    "H2_dag": lambda s: _second_order(s["q1"], s["v2_dual"], True),
}


def apply_ops(p: SuperpotentialPair, f, names) -> list:
    """The images of ``f`` under the named operators (A, B, H1, H2 and their
    adjoints A_dag, B_dag, H1_dag, H2_dag), all from one stencil pass."""
    s = p.samples(f.grid)
    return stencil_pass(f, [_OPERATORS[name](s) for name in names])


def _one_operator(name: str, doc: str):
    """``apply_<name>(p, f)``: the image of ``f`` under one named operator."""

    def apply(p: SuperpotentialPair, f):
        return apply_ops(p, f, [name])[0]

    apply.__name__ = apply.__qualname__ = f"apply_{name}"
    apply.__doc__ = doc
    return apply


apply_A = _one_operator("A", "A f = f' + wA f.")
apply_B = _one_operator("B", "B f = -f' + wB f.")
apply_A_dag = _one_operator("A_dag", "Adjoint of A: -f' + conj(wA) f.")
apply_B_dag = _one_operator("B_dag", "Adjoint of B: f' + conj(wB) f.")
apply_H1 = _one_operator("H1", "H1 f = -f'' + q1 f' + V1 f.")
apply_H2 = _one_operator("H2", "H2 f = -f'' + q1 f' + V2 f.")
apply_H1_dag = _one_operator("H1_dag", "Adjoint of H1: drift -conj(q1), potential v1_dual.")
apply_H2_dag = _one_operator("H2_dag", "Adjoint of H2: drift -conj(q1), potential v2_dual.")


# ---------------------------------------------------------------------------
# structural residual helpers

def probe_function(grid: Grid, singular_points=()) -> GridFunction:
    """Unit-height Gaussian placed as far as possible from the singularities.

    Finite-difference stencils cannot resolve a potential's pole, so
    composition and commutator probes must be negligible there; a Gaussian
    six-plus units away contributes below rounding at the exclusion-zone
    edge while keeping an order-one norm.
    """
    candidates = np.linspace(-grid.half_width / 2, grid.half_width / 2, 97)
    if singular_points:
        gaps = [min(abs(c - s) for s in singular_points) for c in candidates]
        center = float(candidates[int(np.argmax(gaps))])
    else:
        center = 0.0
    return GridFunction(grid, np.exp(-((grid.x - center) ** 2) / 2.0))


def factorization_residuals(p: SuperpotentialPair, f) -> tuple:
    """Interior residuals of the composed factors against the closed forms,
    B A f against H1 f and A B f against H2 f; the four images of ``f`` come
    from one pass."""
    af, bf, h1f, h2f = apply_ops(p, f, ["A", "B", "H1", "H2"])
    return tuple(relative_residual((composed, direct), direct, exclude=list(p.singular_points))
                 for composed, direct in ((apply_B(p, af), h1f), (apply_A(p, bf), h2f)))


def potential_identity_residual(p: SuperpotentialPair, grid: Grid) -> float:
    """Pointwise residual of V2 - V1 against wA' + wB' over the interior.

    Measured against the local magnitude of the potentials themselves: the
    difference cancels the product wA*wB, so that product's size is the
    natural backward-error scale where it dominates.
    """
    s = p.samples(grid)
    mask = _interior_mask(grid, 0, p.singular_points)
    lhs = s["v2"] - s["v1"]
    rhs = s["dw_a"] + s["dw_b"]
    local = np.maximum(np.maximum(np.abs(s["v1"]), np.abs(s["v2"])), np.maximum(np.abs(rhs), 1.0))
    return float(np.max(np.abs(lhs - rhs)[mask] / local[mask]))


# ---------------------------------------------------------------------------
# vacua

@dataclass
class VacuumRecord:
    """One factor vacuum with its decay fit and integrability flags."""

    label: str
    function: GridFunction
    decay: DecayFit
    in_l2: bool
    in_l1loc_on_grid: bool
    annihilation_residual: float

    def summary(self) -> dict:
        return {
            "label": self.label,
            "left_exponent": self.decay.left_exponent,
            "right_exponent": self.decay.right_exponent,
            "in_l2": self.in_l2,
            "in_l1loc_on_grid": self.in_l1loc_on_grid,
            "annihilation_residual": self.annihilation_residual,
        }

    @classmethod
    def measure(cls, label: str, f, pair: SuperpotentialPair) -> "VacuumRecord":
        """Record ``f`` as the vacuum ``label`` of ``pair``: its decay fit,
        integrability flags and the residual of its annihilating factor."""
        annihilator = {"phi0_1": apply_A, "phi0_2": apply_B,
                       "psi0_1": apply_B_dag, "psi0_2": apply_A_dag}[label]
        fit = fitted_decay_exponents(f)
        return cls(
            label=label,
            function=f,
            decay=fit,
            in_l2=fit.square_integrable,
            in_l1loc_on_grid=f.representable(),
            annihilation_residual=relative_residual(
                annihilator(pair, f), f, exclude=list(pair.singular_points)),
        )


@dataclass
class Vacua:
    """The four factor vacua of a quadruple.

    phi0_1 is annihilated by A, phi0_2 by B, psi0_1 by the adjoint of B,
    psi0_2 by the adjoint of A.  All are carried in scaled form so that
    non-normalizable vacua (the generic case) are still representable.
    """

    phi0_1: VacuumRecord
    phi0_2: VacuumRecord
    psi0_1: VacuumRecord
    psi0_2: VacuumRecord
    normalization: str
    notes: list

    def records(self):
        return [self.phi0_1, self.phi0_2, self.psi0_1, self.psi0_2]


def _exp_vacuum(grid: Grid, w_vals, dw_vals, sign: float) -> GridFunction:
    """exp(sign * W) with W an antiderivative of w, W = 0 near x = 0."""
    w_anti = cumulative_antiderivative(w_vals, grid, dvalues=dw_vals)
    z = sign * w_anti
    return GridFunction(
        grid,
        np.exp(1j * z.imag) if np.iscomplexobj(z) else np.ones(grid.n_points),
        z.real,
        dlog=sign * np.real(w_vals),
        d2log=sign * np.real(dw_vals),
    )


def _normalize_unit(rec: VacuumRecord, notes: list):
    if not rec.in_l2:
        notes.append(f"{rec.label}: not square integrable, left unnormalized")
        return
    try:
        scale = norm(rec.function)
    except RepresentationError:
        notes.append(f"{rec.label}: norm overflows on this grid, left unnormalized")
        return
    if scale > 0:
        rec.function = rec.function / scale


def _normalize_paired(phi: VacuumRecord, psi: VacuumRecord, notes: list):
    try:
        pairing = inner(psi.function, phi.function)
    except RepresentationError:
        notes.append(
            f"{phi.label}/{psi.label}: pairing overflows on this grid, left unnormalized"
        )
        return
    if abs(pairing) < 1e-300:
        notes.append(f"{phi.label}/{psi.label}: pairing vanishes, left unnormalized")
        return
    phi.function = phi.function / pairing


def vacua(p: SuperpotentialPair, grid: Grid | None = None, normalization: str = "raw") -> Vacua:
    """Compute the four factor vacua from superpotential antiderivatives.

    ``normalization``: "raw" keeps the value-1-near-origin convention; "unit"
    rescales square-integrable vacua to unit norm; "paired" rescales each
    phi against its psi partner so their pairing is 1.  Vacua that cannot be
    normalized under the requested policy are left raw, with a note.
    """
    grid = grid or default_grid()
    s = p.samples(grid)
    specs = [
        ("phi0_1", s["w_a"], s["dw_a"], -1.0),
        ("phi0_2", s["w_b"], s["dw_b"], +1.0),
        ("psi0_1", np.conjugate(s["w_b"]), np.conjugate(s["dw_b"]), -1.0),
        ("psi0_2", np.conjugate(s["w_a"]), np.conjugate(s["dw_a"]), +1.0),
    ]
    records = {label: VacuumRecord.measure(label, _exp_vacuum(grid, w_vals, dw_vals, sign), p)
               for label, w_vals, dw_vals, sign in specs}
    return finalize_vacua(records, normalization)


def finalize_vacua(records: dict, normalization: str) -> Vacua:
    """Apply a normalization policy to four raw vacuum records.

    Shared by the generic antiderivative route and models that supply their
    vacua in closed form.  Vacua the policy cannot reach (growing norm,
    overflowing pairing) stay raw and are listed in the notes.
    """
    if normalization not in ("raw", "unit", "paired"):
        raise ValueError(f"unknown normalization policy {normalization!r}")
    notes = []
    if normalization == "unit":
        for rec in records.values():
            _normalize_unit(rec, notes)
    elif normalization == "paired":
        _normalize_paired(records["phi0_1"], records["psi0_1"], notes)
        _normalize_paired(records["phi0_2"], records["psi0_2"], notes)
    return Vacua(**records, normalization=normalization, notes=notes)


# ---------------------------------------------------------------------------
# intertwining

@dataclass
class IntertwineRecord:
    """Extracted intertwining data for one level.

    alpha is the coefficient carrying sector 1 to sector 2 under A, beta the
    return coefficient under B; their product must reproduce the eigenvalue
    (skipped at a zero ground-state energy, where both maps annihilate).
    """

    n: int
    energy: complex
    alpha: complex | None
    beta: complex | None
    residual_a: float
    residual_b: float
    product_residual: float | None


def _projection(target, image):
    """coefficient c with image ~ c * target, plus the relative defect
    ||image - c * target|| / ||image||, formed a block at a time."""
    den = inner(target, target)
    c = inner(target, image) / den
    scale = norm(image)
    if scale < 1e-13 * np.sqrt(abs(den)):
        return c, 0.0
    return c, float(interior_norm((image, c, target), pad=0) / scale)


def intertwine_check(n: int, energy, phi1, phi2, a_image, b_image, exclude=()):
    """Level n's record from A phi1 and, when the level has a partner phi2
    (None for a zero-mode, which A must annihilate), B phi2; the caller forms
    the images and judges the residuals."""
    if phi2 is None:
        return IntertwineRecord(n, complex(energy), None, None,
                                relative_residual(a_image, phi1, exclude=list(exclude)), 0.0, None)
    alpha, residual_a = _projection(phi2, a_image)
    beta, residual_b = _projection(phi1, b_image)
    # both maps annihilate at zero energy
    product = None if n == 0 and abs(energy) < 1e-12 else abs(alpha * beta - complex(energy))
    return IntertwineRecord(n, complex(energy), alpha, beta, residual_a, residual_b, product)


# ---------------------------------------------------------------------------
# 2x2 superalgebra

def superalgebra_check(p: SuperpotentialPair, n: int, f, g, af, h1f, bg, h2g, alpha, beta):
    """Verify the matrix superalgebra on the level-n doublet (f, g), given
    its images A f, H1 f, B g and H2 g.

    The charges Q_A (f, g) = (0, A f) and Q_B (f, g) = (B g, 0) and the
    Hamiltonian H = diag(H1, H2) make each identity on v = (f, g), test
    vector n - 1, a set of block identities, checked one sector at a time:

    * {Q_A, Q_B} = H:  B A f - H1 f  and  A B g - H2 g;
    * [H, Q_A] = 0:    H2 A f - A H1 f;
    * [H, Q_B] = 0:    H1 B g - B H2 g.

    Each residual is the two-sector interior norm over max(||H v||, ||v||).
    Nilpotency of both charges holds by block structure and is reported as
    0.  The doublet checks verify the mapping relations A f = alpha g and
    B g = beta f; that each charge annihilates the opposite doublet is again
    block structure, also reported as 0.  Returns (vector checks, doublet
    checks), lists of CheckResult.  Each norm is taken as soon as its images
    exist, which are then dropped: at most two of them are alive at once.
    """
    tol, ex, tag = 1e-5, list(p.singular_points), f"vector {n - 1}"

    def two_sector_norm(a, b):
        return float(np.hypot(interior_norm(a, exclude=ex), interior_norm(b, exclude=ex)))

    def sector(image, ops, h, apply_op):
        """||X image - h||, then ||Y image - op h||, for ops (X, Y); each image popped as read."""
        xy = apply_ops(p, image, ops)
        return (interior_norm((xy.pop(0), h), exclude=ex),
                interior_norm((xy.pop(), apply_op(p, h)), exclude=ex))

    scale = max(two_sector_norm(h1f, h2g), two_sector_norm(f, g), 1e-300)
    (anti_f, comm_a), (anti_g, comm_b) = (sector(af, ["B", "H2"], h1f, apply_A),
                                          sector(bg, ["A", "H1"], h2g, apply_B))
    vector = [
        CheckResult.from_residual(f"nilpotency Q_A^2 = Q_B^2 = 0 ({tag})", 0.0, 1e-300),
        CheckResult.from_residual(f"anticommutator {{Q_A,Q_B}} = H ({tag})",
                                  float(np.hypot(anti_f, anti_g)) / scale, tol),
        CheckResult.from_residual(f"commutator [H,Q_A] = 0 ({tag})", comm_a / scale, tol),
        CheckResult.from_residual(f"commutator [H,Q_B] = 0 ({tag})", comm_b / scale, tol),
    ]
    doublet = []
    for image, c, want, label in ((af, alpha, g, "sector 1 -> 2 with alpha"),
                                  (bg, beta, f, "sector 2 -> 1 with beta")):
        r = relative_residual((image, c, want), image, exclude=ex) if norm(image) > 0 else 0.0
        doublet.append(CheckResult.from_residual(f"charge maps {label} (n={n})", r, tol))
    doublet.append(CheckResult.from_residual(f"charges annihilate opposite doublets (n={n})", 0.0, 1e-300))
    return vector, doublet
