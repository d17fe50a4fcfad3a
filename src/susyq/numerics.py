"""Uniform grids, finite differences, and quadrature.

Everything in the package runs on a fixed symmetric grid [-L, L].  One value
carrier, ``GridFunction``, holds finite complex ``values`` and an optional
real ``log_scale`` array; with a scale the function is
``values * exp(log_scale)``.  Families that grow like exp(exp(x)) are not
representable as doubles on a wide grid, but their pairings with decaying
partners are perfectly finite; the scale keeps the exponent symbolic until
the inner product combines them, so those pairings (and shift-invariant
relative residuals) are computed without overflow.  Without a scale every
operation runs the plain formulas.

Derivatives are 4th-order central differences in the interior with one-sided
stencils of matching order at the edges.  Inner products use composite Simpson
weights, conjugate-linear in the first slot.  Residual checks should drop the
outermost 5 points per edge, where one-sided stencils live.

The interior stencil runs on the float64 view of the samples, so a complex
array costs real multiplies instead of complex ones, and it keeps the bits
of the complex expressions it replaces.  numpy multiplies a sample a + bi by
a weight c as by c + 0j, giving c*a - 0*b and c*b + 0*a, and divides by a
real d as by d + 0j, giving (a + b*0)*(1/d) and (b - a*0)*(1/d).  So the view
multiplies by the reciprocal 1/d (dividing by d changes the last bit of about
a third of the doubles).  The zero terms can only flip the sign of a zero,
which needs a -0.0 among a point's samples, or turn an overflow into a NaN;
such points are recomputed with the complex expressions.  Real input (a log
scale) is divided by d, as the real expression does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .expr import Expr, evaluate_array

__all__ = [
    "Grid",
    "GridFunction",
    "ScaledGridFunction",
    "NumericsError",
    "PoleOnGridError",
    "RepresentationError",
    "NonConvergenceError",
    "default_grid",
    "as_scaled",
    "sample",
    "derivative",
    "inner",
    "biorthogonality_defect",
    "norm",
    "integrate_halfline",
    "cumulative_antiderivative",
    "relative_residual",
    "interior_norm",
    "fitted_decay_exponents",
]

EDGE_PAD = 5  # points per edge excluded from residual checks
DECAY_FIT_FRACTION = 0.2  # outer fraction of the grid used for decay fits
DECAY_EPSILON = 0.05  # a tail decays if its fitted outward slope < -epsilon

_LOG_HUGE = 700.0  # exp() beyond this is not representable in float64


class NumericsError(RuntimeError):
    """Base class for grid/quadrature failures."""


class PoleOnGridError(NumericsError):
    """Sampling produced non-finite values; carries the first offending x."""

    def __init__(self, x: float, index: int, count: int):
        super().__init__(
            f"non-finite sample (pole or overflow) at x={x!r} "
            f"(grid index {index}, {count} offending point{'s' if count != 1 else ''})"
        )
        self.x = x
        self.index = index
        self.count = count


class RepresentationError(NumericsError):
    """A scaled function cannot be materialized into plain doubles."""


class NonConvergenceError(NumericsError):
    """An adaptive quadrature or series did not meet its tolerance."""


class Grid:
    """Uniform symmetric grid: x_j = -L + j*h, h = 2L/(N-1), j = 0..N-1."""

    def __init__(self, half_width: float = 12.0, n_points: int = 4097):
        half_width = float(half_width)
        n_points = int(n_points)
        if not half_width > 0:
            raise ValueError("half_width must be positive")
        if n_points < 16:
            raise ValueError("n_points must be at least 16")
        self.half_width = half_width
        self.n_points = n_points
        self.spacing = 2.0 * half_width / (n_points - 1)
        self.x = -half_width + self.spacing * np.arange(n_points)
        self._simpson = None

    def __eq__(self, other):
        return (
            isinstance(other, Grid)
            and self.half_width == other.half_width
            and self.n_points == other.n_points
        )

    def __hash__(self):
        return hash((self.half_width, self.n_points))

    def __repr__(self):
        return f"Grid(half_width={self.half_width}, n_points={self.n_points})"

    @property
    def simpson_weights(self) -> np.ndarray:
        """Composite Simpson weights; a 3/8-rule tail absorbs an odd interval
        count so both grid parities integrate at 4th order."""
        if self._simpson is None:
            n, h = self.n_points, self.spacing
            w = np.zeros(n)
            if n % 2 == 1:
                w[0] = w[-1] = 1.0
                w[1:-1:2] = 4.0
                w[2:-2:2] = 2.0
                w *= h / 3.0
            else:
                w[0] = w[n - 4] = 1.0
                w[1 : n - 4 : 2] = 4.0
                w[2 : n - 4 : 2] = 2.0
                w *= h / 3.0
                w[n - 4 :] += h * np.array([3.0, 9.0, 9.0, 3.0]) / 8.0
            self._simpson = w
        return self._simpson


def default_grid() -> Grid:
    return Grid()


def _check_same_grid(f, g):
    if f.grid != g.grid:
        raise ValueError(f"grid mismatch: {f.grid!r} vs {g.grid!r}")


class GridFunction:
    """Complex samples on a grid, optionally carried as ``values * exp(log_scale)``.

    With ``log_scale`` None the function is ``values`` itself.  With a real
    ``log_scale`` array it is ``values * exp(log_scale)``, which keeps
    families that grow like exp(exp(x)) representable; ``dlog``/``d2log``
    optionally carry exact derivatives of ``log_scale`` (available whenever
    the scale came from a known superpotential), and finite differences fill
    in when absent.  ``+`` and ``-`` need operands with the same scale.
    """

    # numpy operands defer to __rmul__ instead of broadcasting over the carrier
    __array_ufunc__ = None

    def __init__(self, grid: Grid, values, log_scale=None, dlog=None, d2log=None):
        values = np.asarray(values, dtype=np.complex128)
        if values.shape != (grid.n_points,):
            raise ValueError(f"expected {grid.n_points} values, got shape {values.shape}")
        # a finite sum rules out every non-finite sample in one reduction; a
        # sum that overflows on finite samples falls through to the scan
        with np.errstate(over="ignore", invalid="ignore"):
            total = values.sum()
        if not np.isfinite(total):
            bad = ~np.isfinite(values)
            if bad.any():
                j = int(np.flatnonzero(bad)[0])
                raise PoleOnGridError(float(grid.x[j]), j, int(bad.sum()))
        if log_scale is not None:
            log_scale = np.asarray(log_scale, dtype=float)
            if log_scale.shape != (grid.n_points,):
                raise ValueError("log_scale must match the grid length")
            if not np.isfinite(log_scale).all():
                raise ValueError("log_scale must be finite")
        self.grid = grid
        self.values = values
        self.log_scale = log_scale
        self.dlog = None if dlog is None else np.asarray(dlog, dtype=float)
        self.d2log = None if d2log is None else np.asarray(d2log, dtype=float)

    def with_values(self, values) -> "GridFunction":
        """Same grid and scale (with its derivatives), new prefactor values."""
        return GridFunction(self.grid, values, self.log_scale, self.dlog, self.d2log)

    def __add__(self, other):
        _check_same_carrier(self, other)
        return self.with_values(self.values + other.values)

    def __sub__(self, other):
        _check_same_carrier(self, other)
        return self.with_values(self.values - other.values)

    def __mul__(self, c):
        return self.with_values(self.values * c)

    def __rmul__(self, c):
        return self.with_values(c * self.values)

    def log_magnitude(self) -> np.ndarray:
        """log|f| pointwise; -inf where the prefactor vanishes."""
        with np.errstate(divide="ignore"):
            log_abs = np.log(np.abs(self.values))
        return log_abs if self.log_scale is None else self.log_scale + log_abs

    def representable(self) -> bool:
        mag = self.log_magnitude()
        return bool(np.max(mag[np.isfinite(mag)], initial=-np.inf) < _LOG_HUGE)

    def materialize(self) -> "GridFunction":
        """The plain samples; the function itself when it has no scale."""
        if self.log_scale is None:
            return self
        if not self.representable():
            j = int(np.argmax(self.log_magnitude()))
            raise RepresentationError(
                f"function exceeds float range near x={float(self.grid.x[j])!r}; "
                "keep it in scaled form"
            )
        return GridFunction(self.grid, self.values * np.exp(self.log_scale))


class ScaledGridFunction(GridFunction):
    """The carrier under its older name for scaled functions."""

    # a class-level entry of its own, so wrapping either class's __init__
    # records one call per construction
    __init__ = GridFunction.__init__


def _same_scale(f, g) -> bool:
    """True when both carriers have no scale or equal scale arrays."""
    a, b = f.log_scale, g.log_scale
    return a is b or (a is not None and b is not None and np.array_equal(a, b))


def _check_same_carrier(f, g):
    _check_same_grid(f, g)
    if not _same_scale(f, g):
        raise ValueError("carriers differ in log_scale")


def _log_scale(f) -> np.ndarray:
    """The scale array, zeros for an unscaled carrier."""
    return f.log_scale if f.log_scale is not None else np.zeros(f.grid.n_points)


def as_scaled(f) -> GridFunction:
    """``f`` with an explicit scale array: zeros when it has none."""
    return f if f.log_scale is not None else GridFunction(f.grid, f.values, _log_scale(f))


# ---------------------------------------------------------------------------
# sampling and differentiation

def sample(e: Expr, grid: Grid) -> GridFunction:
    """Evaluate an expression on the grid; poles are reported, not returned."""
    values = evaluate_array(e, grid.x)
    bad = ~np.isfinite(values)
    if bad.any():
        j = int(np.flatnonzero(bad)[0])
        raise PoleOnGridError(float(grid.x[j]), j, int(bad.sum()))
    return GridFunction(grid, values)


@lru_cache(maxsize=64)
def _one_sided_weights(offsets: tuple, order: int) -> np.ndarray:
    """Stencil weights (in units of h**-order) from the Taylor system."""
    k = len(offsets)
    a = np.empty((k, k))
    for p in range(k):
        a[p] = [o**p / math.factorial(p) for o in offsets]
    b = np.zeros(k)
    b[order] = 1.0
    return np.linalg.solve(a, b)


_EDGE_STENCILS = {
    1: {0: (0, 1, 2, 3, 4), 1: (-1, 0, 1, 2, 3)},
    2: {0: (0, 1, 2, 3, 4, 5), 1: (-1, 0, 1, 2, 3, 4)},
}


def _fd(values: np.ndarray, h: float, order: int) -> np.ndarray:
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    out = np.empty_like(values)
    _fd_interior(values, h, order, out[2:-2])
    v = values
    n = len(v)
    for j, offsets in _EDGE_STENCILS[order].items():
        w = _one_sided_weights(offsets, order) / h**order
        idx = j + np.array(offsets)
        out[j] = np.dot(w, v[idx])
        # mirrored stencil at the right edge
        jr = n - 1 - j
        w_r = _one_sided_weights(tuple(-o for o in offsets), order) / h**order
        out[jr] = np.dot(w_r, v[jr + np.array([-o for o in offsets])])
    return out


def _fd_interior(values: np.ndarray, h: float, order: int, out: np.ndarray):
    """The central stencil, written into ``out`` (the interior slice).

    Runs block by block on the float64 view, where neighbour j+1 of a complex
    array sits two doubles further on, with one cache-sized scratch buffer
    and the operations in the order of ``_fd_reference``.  The results are
    that function's bits (see the module docstring): the points next to a
    -0.0 sample and the points whose result overflows are recomputed by it.
    """
    v = np.ascontiguousarray(values)
    a = v.view(np.float64)
    s = a.size // v.size  # doubles per element: 2 for complex, 1 for real
    scale = 12 * h if order == 1 else 12 * h * h
    recip = 1.0 / scale
    o = out.view(np.float64)
    m = o.size
    tmp = np.empty(min(_FD_BLOCK, m))
    for lo in range(0, m, _FD_BLOCK):
        hi = min(lo + _FD_BLOCK, m)
        ob, t = o[lo:hi], tmp[: hi - lo]
        # v_k: neighbour j + k - 2 of every interior point j in the block
        v0, v1, v2, v3, v4 = (a[lo + k * s : hi + k * s] for k in range(5))
        if order == 1:
            np.multiply(v1, 8, out=t)
            np.subtract(v0, t, out=ob)
            np.multiply(v3, 8, out=t)
            ob += t
            ob -= v4
        else:
            np.negative(v0, out=ob)
            np.multiply(v1, 16, out=t)
            ob += t
            np.multiply(v2, 30, out=t)
            ob -= t
            np.multiply(v3, 16, out=t)
            ob += t
            ob -= v4
        if s == 1:
            ob /= scale
        else:
            ob *= recip
    if s == 1:
        return
    redo = []
    bits = a.view(np.int64)
    if bits.min() == _NEGATIVE_ZERO:
        near = np.flatnonzero(bits == _NEGATIVE_ZERO) // 2
        redo.append((near[:, None] + np.arange(-2, 3)).ravel())
    if not np.isfinite(o.sum()):
        redo.append(np.flatnonzero(~np.isfinite(out)) + 2)
    if redo:
        j = np.unique(np.concatenate(redo))
        j = j[(j >= 2) & (j < len(v) - 2)]
        out[j - 2] = _fd_reference(v, h, order, j)


_FD_BLOCK = 16384  # doubles per block: each 128 KiB slice stays in L2 cache
# -0.0 read as an int64 is the smallest int64, so one min finds any -0.0
_NEGATIVE_ZERO = np.iinfo(np.int64).min


def _fd_reference(v: np.ndarray, h: float, order: int, j: np.ndarray) -> np.ndarray:
    """The interior stencil at the points ``j`` as complex array expressions."""
    if order == 1:
        return (v[j - 2] - 8 * v[j - 1] + 8 * v[j + 1] - v[j + 2]) / (12 * h)
    return (-v[j - 2] + 16 * v[j - 1] - 30 * v[j] + 16 * v[j + 1] - v[j + 2]) / (12 * h * h)


def derivative(f, order: int = 1):
    """4th-order finite-difference derivative, on the same scale as ``f``."""
    h = f.grid.spacing
    if f.log_scale is None:
        return f.with_values(_fd(f.values, h, order))
    s1 = f.dlog if f.dlog is not None else _fd(f.log_scale, h, 1).real
    v1 = _fd(f.values, h, 1)
    if order == 1:
        return f.with_values(v1 + s1 * f.values)
    v2 = _fd(f.values, h, order)  # raises unless order is 2
    s2 = f.d2log if f.d2log is not None else _fd(f.log_scale, h, 2).real
    return f.with_values(v2 + 2 * s1 * v1 + (s2 + s1 * s1) * f.values)


# ---------------------------------------------------------------------------
# inner products and norms

def inner(f, g) -> complex:
    """Simpson inner product, conjugate-linear in the first slot.

    Scaled carriers combine in log space: the pairing of a hugely growing
    function with a hugely decaying one is finite whenever the combined
    exponent is, and that is the condition checked.  An unscaled partner
    counts as scale zero.
    """
    _check_same_grid(f, g)
    w = f.grid.simpson_weights
    if f.log_scale is None and g.log_scale is None:
        return complex(np.sum(w * np.conjugate(f.values) * g.values))
    s = _log_scale(f) + _log_scale(g)
    p = np.conjugate(f.values) * g.values
    mag = np.abs(p)
    with np.errstate(divide="ignore"):
        log_mag = s + np.log(mag)
    if np.max(log_mag, initial=-np.inf) > _LOG_HUGE:
        j = int(np.argmax(log_mag))
        raise RepresentationError(
            f"pairing integrand exceeds float range near x={float(f.grid.x[j])!r}"
        )
    if mag.min() > 0:
        out = (p / mag) * np.exp(log_mag)
    else:
        out = np.zeros_like(p)
        nz = mag > 0
        out[nz] = (p[nz] / mag[nz]) * np.exp(log_mag[nz])
    return complex(np.sum(w * out))


def biorthogonality_defect(left, right) -> float:
    """max |<l_a, r_b> - delta_ab| over every pair of the two families."""
    worst = 0.0
    for a, l_a in enumerate(left):
        for b, r_b in enumerate(right):
            worst = max(worst, abs(inner(l_a, r_b) - (1.0 if a == b else 0.0)))
    return worst


def norm(f) -> float:
    """L2 norm; for scaled carriers it may overflow; prefer residual ratios."""
    if f.log_scale is None:
        return float(np.sqrt(np.sum(f.grid.simpson_weights * np.abs(f.values) ** 2)))
    return float(np.sqrt(abs(inner(f, f))))


def interior_norm(f, pad: int = EDGE_PAD, exclude: list | None = None) -> float:
    """L2 norm over the interior, skipping edge points and marked poles."""
    mask = _interior_mask(f.grid, pad, exclude)
    w = f.grid.simpson_weights * mask
    return float(np.sqrt(np.sum(w * np.abs(f.materialize().values) ** 2)))


def _interior_mask(grid: Grid, pad: int, exclude: list | None) -> np.ndarray:
    mask = np.zeros(grid.n_points, dtype=bool)
    mask[pad:grid.n_points - pad] = True
    if exclude:
        width = 6 * grid.spacing
        for x0 in exclude:
            mask &= np.abs(grid.x - x0) > width
    return mask


def relative_residual(num, den, pad: int = EDGE_PAD, exclude: list | None = None) -> float:
    """||num|| / ||den|| over the interior, shift-invariant for scaled input.

    ``num`` and ``den`` must share their scale array, an unscaled carrier
    counting as scale zero (operator residuals are produced that way).
    """
    _check_same_grid(num, den)
    grid = num.grid
    mask = _interior_mask(grid, pad, exclude)
    w = grid.simpson_weights * mask
    if num.log_scale is None and den.log_scale is None:
        a = np.sqrt(np.sum(w * np.abs(num.values) ** 2))
        b = np.sqrt(np.sum(w * np.abs(den.values) ** 2))
    else:
        scale = _log_scale(num)
        if not np.array_equal(scale, _log_scale(den)):
            raise ValueError("scaled residual requires a shared log_scale")
        shifted = scale - np.max(scale[mask], initial=0.0)
        e2 = np.exp(2 * np.clip(shifted, -_LOG_HUGE, 0.0))
        a = np.sqrt(np.sum(w * np.abs(num.values) ** 2 * e2))
        b = np.sqrt(np.sum(w * np.abs(den.values) ** 2 * e2))
    if b == 0.0:
        return 0.0 if a == 0.0 else np.inf
    return float(a / b)


# ---------------------------------------------------------------------------
# decay classification

@dataclass
class DecayFit:
    """Fitted outward log-slopes of |f| on the outer fraction of each side."""

    left_exponent: float
    right_exponent: float

    @property
    def square_integrable(self) -> bool:
        return (
            self.left_exponent < -DECAY_EPSILON and self.right_exponent < -DECAY_EPSILON
        )


def fitted_decay_exponents(f, fraction: float = DECAY_FIT_FRACTION) -> DecayFit:
    """Least-squares slope of log|f| vs outward distance on each tail."""
    log_mag = f.log_magnitude()
    n = f.grid.n_points
    k = max(8, int(round(fraction * n)))
    x = f.grid.x

    def slope(xs, ys):
        keep = np.isfinite(ys)
        if keep.sum() < 4:
            return -np.inf  # identically ~0 on the tail: decayed below floor
        c = np.polyfit(xs[keep], ys[keep], 1)
        return float(c[0])

    right = slope(x[-k:], log_mag[-k:])
    left = -slope(x[:k], log_mag[:k])
    return DecayFit(left_exponent=left, right_exponent=right)


# ---------------------------------------------------------------------------
# cumulative quadrature (for vacua built from superpotential antiderivatives)

def cumulative_antiderivative(values: np.ndarray, grid: Grid, dvalues=None) -> np.ndarray:
    """W with W' = values and W = 0 at the grid point nearest x = 0.

    Cumulative trapezoid plus the Euler-Maclaurin h^2/12 endpoint correction;
    with exact end-derivatives supplied the result is 4th-order accurate,
    which the downstream annihilation-residual checks rely on.
    """
    values = np.asarray(values, dtype=np.complex128)
    h = grid.spacing
    t = np.empty(grid.n_points, dtype=np.complex128)
    t[0] = 0.0
    np.cumsum((values[1:] + values[:-1]) * (h / 2.0), out=t[1:])
    dv = _fd(values, h, 1) if dvalues is None else np.asarray(dvalues)
    w = t - (h * h / 12.0) * (dv - dv[0])
    j0 = int(np.argmin(np.abs(grid.x)))
    return w - w[j0]


# ---------------------------------------------------------------------------
# adaptive quadrature on [0, inf) and oscillatory averages

@dataclass
class HalflineIntegral:
    value: float
    tail_estimate: float
    panels: int

    def __float__(self):
        return self.value


def _panel_simpson(f, a: float, b: float, rel_tol: float, max_refine: int = 14) -> float:
    """Composite Simpson on [a, b], refined by doubling until stable."""
    m = 8
    prev = None
    for _ in range(max_refine):
        xs = np.linspace(a, b, m + 1)
        ys = np.asarray(f(xs), dtype=float)
        h = (b - a) / m
        val = h / 3.0 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-2:2].sum())
        if prev is not None and abs(val - prev) <= rel_tol * max(1.0, abs(val)):
            return val
        prev = val
        m *= 2
    return prev


def integrate_halfline(f, tol: float = 1e-10, max_doublings: int = 40) -> HalflineIntegral:
    """Integrate a decaying real integrand over [0, inf) by panel doubling.

    Panels [0,1], [1,2], [2,4], ... are each integrated by refined Simpson;
    the sum stops when two consecutive panels contribute below tolerance.
    """
    total = 0.0
    edges = [0.0, 1.0]
    small_streak = 0
    last = np.inf
    panels = 0
    for k in range(max_doublings):
        a, b = edges
        part = _panel_simpson(f, a, b, rel_tol=tol * 1e-2)
        total += part
        panels += 1
        if abs(part) <= tol * max(1.0, abs(total)) / 2:
            small_streak += 1
            if small_streak >= 2:
                return HalflineIntegral(total, abs(part) + abs(last), panels)
        else:
            small_streak = 0
        last = part
        edges = [b, 2 * b]
    raise NonConvergenceError(
        f"half-line integral did not converge after {max_doublings} panel doublings"
    )
