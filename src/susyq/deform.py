"""Bounded multiplicative deformation of a Hermitian factorization.

Starting from a real superpotential w (so wA = wB = w is an ordinary
self-adjoint ladder), conjugating by the multiplication operator
T = e^{q(x)} with 0 < m <= Re q <= M produces a genuinely non-selfadjoint
quadruple with the SAME real spectrum:

    wA = w - q',    wB = w + q',    drift q1 = 2 q'.

T and its inverse are bounded (|e^{q}| <= e^M, |e^{-q}| <= e^{-m}), so the
images phi_n = e^q e_n and duals psi_n = e^{-conj(q)} e_n of the base
orthonormal eigenfunctions form biorthogonal Riesz-type families; the
pointwise weight conj(e^{-conj q}) e^q = 1 makes their cross pairing
literally the base orthonormality.

The ``deformed-harmonic`` model (in ``models``) builds these families, its
partner sector the same one level down; the checks below take what the
deformed-harmonic suite's level walk measured, one level at a time.

The bounds m, M are certified by a grid scan only; when an extremum sits at
the scan boundary the true global bound may lie outside the window and the
deformation carries a note saying so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .expr import Const, Expr, differentiate, parse
from .numerics import (
    EDGE_PAD,
    Grid,
    GridFunction,
    default_grid,
    relative_residual,
    sample,
    stencil_pass,
)
from .reporting import CheckResult
from .susy import (
    SuperpotentialPair,
    _first_order,
    apply_H1_dag,
    apply_H2,
    apply_H2_dag,
    build_pair,
)

__all__ = [
    "Deformation",
    "DeformationError",
    "build_deformation",
    "deformed_pair",
    "deformed_basis_report",
    "deformed_eigencheck",
    "DEFAULT_DEFORMATION_Q",
]

DEFAULT_DEFORMATION_Q = "0.5*tanh(x) + 0.6 + 0.3i*sin(x)"


class DeformationError(ValueError):
    """Deformation function violates the boundedness requirements."""


@dataclass
class Deformation:
    """A bounded multiplier e^{q(x)} applied to the base superpotential w.

    m and M bracket Re q over the scan grid; the invertibility of the
    deformation needs m > 0, which :func:`build_deformation` enforces.
    """

    q: Expr
    w: Expr
    dq: Expr
    m: float
    M: float
    grid: Grid
    notes: list = field(default_factory=list)
    # (grid, e^q, e^{-conj q}) on the last grid q was sampled on
    _multipliers: tuple = field(default=(None,) * 3, init=False, repr=False, compare=False)

    def _on(self, grid: Grid | None) -> tuple:
        g = grid or self.grid
        if self._multipliers[0] != g:
            q = sample(self.q, g).values
            self._multipliers = (g, _read_only(np.exp(q)), _read_only(np.exp(-np.conjugate(q))))
        return self._multipliers

    def multiplier_values(self, grid: Grid | None = None) -> np.ndarray:
        """e^q on the grid; read-only, computed once per grid with its dual."""
        return self._on(grid)[1]

    def inverse_dual_values(self, grid: Grid | None = None) -> np.ndarray:
        """e^{-conj q} on the grid; read-only, computed once per grid with e^q."""
        return self._on(grid)[2]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def build_deformation(q, w=None, grid: Grid | None = None) -> Deformation:
    """Scan Re q on the grid and certify 0 < m <= Re q <= M.

    ``q`` and ``w`` may be expression strings or parsed trees; ``w``
    defaults to the oscillator base w(x) = x.
    """
    q = parse(q) if isinstance(q, str) else q
    w = parse(w) if isinstance(w, str) else (w if w is not None else parse("x"))
    grid = grid or default_grid()
    q_real = sample(q, grid).values.real
    m = float(np.min(q_real))
    M = float(np.max(q_real))
    if m <= 0.0:
        raise DeformationError(
            f"Re q must stay positive; scan found min {m:.6g} at x={grid.x[int(np.argmin(q_real))]:.4g}"
        )
    notes = []
    edge = max(EDGE_PAD, 5)
    for name, idx in (("lower", int(np.argmin(q_real))), ("upper", int(np.argmax(q_real)))):
        if idx < edge or idx >= grid.n_points - edge:
            notes.append(
                f"{name} bound attained at the scan boundary; certified only on "
                f"[{-grid.half_width:g}, {grid.half_width:g}]"
            )
    return Deformation(q=q, w=w, dq=differentiate(q), m=m, M=M, grid=grid, notes=notes)


def deformed_pair(d: Deformation) -> SuperpotentialPair:
    """wA = w - q', wB = w + q'; the drift 2q' is supplied in reduced form."""
    w_a = d.w - d.dq
    w_b = d.w + d.dq
    return build_pair(w_a, w_b, simplified={"q1": Const(2.0) * d.dq})


def deformed_basis_report(d: Deformation, pairing: float, phi_norms, psi_norms):
    """Pairing-matrix and norm-bound checks from a family's pairing defect and norms.

    The norm bounds are the operator bounds |e^q| <= e^M, |e^{-q}| <= e^{-m}
    applied to unit vectors; quadrature can overshoot them only at rounding
    level, which the tolerance of 1e-10 absorbs.
    """
    return [
        CheckResult.from_residual("biorthogonal pairing matrix is the identity", pairing, 1e-8),
        CheckResult.from_residual("deformed norms stay under e^M",
                                  max(max(r - math.exp(d.M) for r in phi_norms), 0.0), 1e-10),
        CheckResult.from_residual("dual norms stay under e^-m",
                                  max(max(r - math.exp(-d.m) for r in psi_norms), 0.0), 1e-10),
    ]


def deformed_eigencheck(worst: list, d: Deformation, pair: SuperpotentialPair, w, e: float,
                        phi, h1_phi, psi, e_n):
    """Fold one level's eigen-residuals at energy ``e`` into ``worst`` (four
    zeros at first) and return four checks, one per family, each holding the
    worst residual so far: H1 on phi = T e_n (its image ``h1_phi`` given), the
    adjoint on psi = T^-* e_n, and, unless ``e_n`` is None (level 0), H2 and
    its adjoint on T and T^-* of the base level e_n lowered by d/dx + w, with
    ``w`` the samples of ``d.w``."""
    worst[0] = max(worst[0], relative_residual((h1_phi, e, phi), phi))
    worst[1] = max(worst[1], relative_residual((apply_H1_dag(pair, psi), e, psi), psi))
    if e_n is not None:
        grid = e_n.grid
        lowered = stencil_pass(e_n, [_first_order(w, +1.0, False)])[0].values / math.sqrt(e)
        for i, op, t in ((2, apply_H2, d.multiplier_values(grid)),
                         (3, apply_H2_dag, d.inverse_dual_values(grid))):
            f = GridFunction(grid, t * lowered)
            worst[i] = max(worst[i], relative_residual((op(pair, f), e, f), f))
    families = ("h1 on phi1", "h1 adjoint on psi1", "h2 on phi2", "h2 adjoint on psi2")
    return [CheckResult.from_residual(f"{family}: eigen-residuals", r, 1e-5)
            for family, r in zip(families, worst)]
