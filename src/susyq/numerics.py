"""Uniform grids, finite differences, and quadrature.

Everything in the package runs on a fixed symmetric grid [-L, L].  One value
carrier, ``GridFunction``, holds finite ``values``, float64 for a real
function and complex128 otherwise, and an optional real ``log_scale`` array;
with a scale the function is ``values * exp(log_scale)``.  Families that
grow like exp(exp(x)) are not representable as doubles on a wide grid, but
their pairings with decaying partners are finite; the scale keeps the
exponent symbolic until the inner product combines them, so those pairings
(and shift-invariant relative residuals) are computed without overflow.

Derivatives are 4th-order central differences in the interior with one-sided
stencils of matching order at the edges.  Inner products use composite Simpson
weights, conjugate-linear in the first slot.  Residual checks should drop the
outermost 5 points per edge, where one-sided stencils live.

A float64 carrier gets the bits of the complex128 carrier of the same values,
up to a zero's sign.  numpy multiplies a + bi by a real c as by c + 0j,
giving c*a - 0*b and c*b + 0*a, and divides by a real d as by d + 0j, giving
(a + b*0)*(1/d) and (b - a*0)*(1/d): dropping the zero terms changes only a
zero's sign (or the parts of a point already non-finite), so the real path
multiplies by 1/d wherever the complex one divides (dividing changes the
last bit of about a third of the doubles).  The interior stencil runs on the
float64 view of either dtype with that rule.  Sums, products and abs keep
their bits; a complex sum adds in another pairwise order than a real one, so
``inner`` writes real terms into the real parts of a complex buffer and sums
that.  A zero's sign matters only at a branch cut: images reach reports
only through norms and magnitudes, a real vacuum's prefactor has phase +0 as
the complex one does, and a carrier rejects a non-finite point by its first
index and the count, whatever its parts.  Samples are computed in complex
arithmetic (numpy's real exp can differ from the complex one in the last
bit) and kept as float64 when every imaginary part is zero.

Every operator and every residual runs on the blocked kernels: each
derivative, and each operator built on one, is a job of a ``stencil_pass``,
which runs the stencil once per block for all of its jobs (the images of
one input under several operators); every job reads the same derivative
block and writes only its own output and scratch.  Every interior norm and
residual is a ``_weighted_norms`` reduction; the scaled pairing, which a
scaled norm takes, is a blocked pass of ``inner``.  The plain norm of an
unscaled carrier stays one whole-array expression, which gives the blocked
bits at less cost per call.  The kernels run block by block over slices of
``_BLOCK`` points, small enough that a block's operands and scratch stay in
L2 cache; a whole-array expression would send each of its N-point
temporaries through memory.  Elementwise work is
blocked: every element goes through the same operations, in the same order
and on the same operand types, as in the whole-array expression, so it
gets the same bits.  Reductions whose order sets the bits stay
whole-array: the blocks write their terms into one N-point array and
``np.sum`` adds it once, with the pairwise order of the whole-array sum.
A maximum is exact in any order, so it is taken block by block.
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
    "pairing_defect",
    "norm",
    "integrate_halfline",
    "cumulative_antiderivative",
    "relative_residual",
    "interior_norm",
    "DecayFit",
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
        if half_width * half_width == 0.0:
            raise ValueError(f"half_width {half_width:g} is too small: its square underflows")
        # with 2L finite, the spacing and every point -L + j*h are finite
        if not math.isfinite(2.0 * half_width):
            raise ValueError(f"half_width {half_width:g} puts grid points past the float range")
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


def _reject_non_finite(grid: Grid, bad: np.ndarray):
    """PoleOnGridError naming the first grid node flagged in ``bad``, if any."""
    if bad.any():
        j = int(np.flatnonzero(bad)[0])
        raise PoleOnGridError(float(grid.x[j]), j, int(bad.sum()))


class GridFunction:
    """Samples on a grid, optionally carried as ``values * exp(log_scale)``.

    ``values`` stay float64 when given as float64 and are complex128
    otherwise; ``f / d`` multiplies float64 values by ``1 / d`` for a real
    ``d``, as numpy divides complex ones (see the module docstring).
    With ``log_scale`` None the function is ``values`` itself.  With a real
    ``log_scale`` array it is ``values * exp(log_scale)``, which keeps
    families that grow like exp(exp(x)) representable; ``dlog`` and ``d2log``
    carry its exact derivatives, which a derivative of the carrier reads.
    ``+`` and ``-`` need operands with the same scale.
    The scale arrays are shared, not copied: by ``with_values`` and by the
    levels of one model family, which hold them read-only.
    """

    # numpy operands defer to __rmul__ instead of broadcasting over the carrier
    __array_ufunc__ = None

    def __init__(self, grid: Grid, values, log_scale=None, dlog=None, d2log=None):
        values = _as_samples(values)
        if values.shape != (grid.n_points,):
            raise ValueError(f"expected {grid.n_points} values, got shape {values.shape}")
        # a finite sum rules out every non-finite sample in one reduction; a
        # sum that overflows on finite samples falls through to the scan
        with np.errstate(over="ignore", invalid="ignore"):
            total = values.sum()
        if not np.isfinite(total):
            _reject_non_finite(grid, ~np.isfinite(values))
        self.grid = grid
        self.values = values
        for name, a in (("log_scale", log_scale), ("dlog", dlog), ("d2log", d2log)):
            if a is not None:
                a = np.ascontiguousarray(a, dtype=float)
                if a.shape != (grid.n_points,):
                    raise ValueError(f"{name} must match the grid length")
                if not np.isfinite(a).all():
                    raise ValueError(f"{name} must be finite")
            setattr(self, name, a)

    def with_values(self, values) -> "GridFunction":
        """Same grid and (checked, shared) scale arrays, new prefactor values."""
        f = GridFunction(self.grid, values)
        f.log_scale, f.dlog, f.d2log = self.log_scale, self.dlog, self.d2log
        return f

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

    def __truediv__(self, d):
        return self.with_values(_over(self.values, d))

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


def _as_samples(values) -> np.ndarray:
    """float64 samples as they are, anything else as complex128."""
    values = np.asarray(values)
    return values if values.dtype == np.float64 else values.astype(np.complex128, copy=False)


def _over(a, d, out=None):
    """``a / d`` for a real divisor ``d``: numpy divides a complex ``a`` by a
    real as ``a * (1 / d)``, so float64 ``a`` is multiplied by ``1 / d``."""
    if a.dtype == np.float64 and not np.iscomplexobj(d):
        return np.multiply(a, np.divide(1.0, d, out=out), out=out)
    return np.divide(a, d, out=out)


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
    """``f`` with an explicit scale array: zeros, and zero derivatives, when it has none."""
    return f if f.log_scale is not None else GridFunction(f.grid, f.values, *[_log_scale(f)] * 3)


# ---------------------------------------------------------------------------
# sampling and differentiation

def sample(e: Expr, grid: Grid) -> GridFunction:
    """Evaluate an expression on the grid, as float64 when every imaginary
    part is zero (of either sign); poles are reported, not returned (the
    carrier raises PoleOnGridError for a non-finite sample)."""
    v = evaluate_array([e], grid.x)[0]
    return GridFunction(grid, v if v.imag.any() else np.ascontiguousarray(v.real))


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


_BLOCK = 8192  # points per block: a complex slice is 128 KiB and stays in L2


def _blocks(n: int):
    """The (lo, hi) bounds of the cache-sized blocks that cover range(n)."""
    return ((lo, min(lo + _BLOCK, n)) for lo in range(0, n, _BLOCK))


class _Stencil:
    """Derivatives of one sample array, written a block of points at a time.

    The central stencil runs on the float64 view, where neighbour j+1 of a
    complex array sits two doubles further on, with the operations of the
    complex expression (v[j-2] - 8 v[j-1] + 8 v[j+1] - v[j+2]) / (12 h) and
    its second-order sibling, but every input, real or complex, is
    multiplied by 1 / (12 h).  A complex result matches the expression
    except for a zero's sign and the parts of a non-finite point, which no
    output reads (see the module docstring).  The two points at each edge
    take one-sided stencils.
    """

    def __init__(self, values: np.ndarray, h: float, orders):
        if not set(orders) <= {1, 2}:
            raise ValueError("order must be 1 or 2")
        self.v = v = np.ascontiguousarray(values)
        self.a = v.view(np.float64)
        self.s = self.a.size // v.size  # doubles per element: 2 for complex, 1 for real
        self.tmp = np.empty(min(_BLOCK, len(v)) * self.s)
        self.inverse = {order: 1.0 / (12 * h if order == 1 else 12 * h * h) for order in orders}
        n = len(v)
        self.edges = []  # (order, point, weights, neighbour indices)
        for order in orders:
            for j, offsets in _EDGE_STENCILS[order].items():
                self.edges.append((order, j, _one_sided_weights(offsets, order) / h**order,
                                   j + np.array(offsets)))
                # mirrored stencil at the right edge
                jr = n - 1 - j
                self.edges.append((order, jr, _one_sided_weights(tuple(-o for o in offsets), order)
                                   / h**order, jr + np.array([-o for o in offsets])))

    def into(self, lo: int, hi: int, outs: dict) -> dict:
        """Write the derivative of each order at points lo..hi-1 into
        ``outs[order]``; return ``outs``."""
        v, a, s = self.v, self.a, self.s
        jlo, jhi = max(lo, 2), min(hi, len(v) - 2)
        if jlo < jhi:
            t = self.tmp[: (jhi - jlo) * s]
            # v_k: neighbour j + k - 2 of every interior point j in the block
            b, e = (jlo - 2) * s, (jhi - 2) * s
            v0, v1, v2, v3, v4 = a[b:e], a[b + s : e + s], a[b + 2 * s : e + 2 * s], \
                a[b + 3 * s : e + 3 * s], a[b + 4 * s : e + 4 * s]
            for order, out in outs.items():
                o = out[jlo - lo : jhi - lo].view(np.float64)
                if order == 1:
                    np.multiply(v1, 8, out=t)
                    np.subtract(v0, t, out=o)
                    np.multiply(v3, 8, out=t)
                    o += t
                    o -= v4
                else:  # 16 v1 - v0 is -v0 + 16 v1: x - y and x + (-y) round alike
                    np.multiply(v1, 16, out=t)
                    np.subtract(t, v0, out=o)
                    np.multiply(v2, 30, out=t)
                    o -= t
                    np.multiply(v3, 16, out=t)
                    o += t
                    o -= v4
                o *= self.inverse[order]
        for order, j, w, idx in self.edges:
            if lo <= j < hi:
                outs[order][j - lo] = np.dot(w, v[idx])
        return outs


def stencil_pass(f, jobs) -> list:
    """``f`` with new values from each job, all from one cache-blocked pass
    over its samples; one carrier per job.

    A job is ``(orders, combine, *fields)``.  For each block of points, the
    stencil runs once, and ``combine(sl, v, *d, out, t, u)`` of each job
    writes the block's values into ``out``: ``sl`` is the block's slice,
    ``v`` is ``f.values[sl]`` and ``d`` holds ``derivative(f, k).values[sl]``
    for each k in ``orders`` (1, 2 or both).  Every job reads the same
    derivative block, so a combine must not write into ``v`` or ``d``; ``t``
    and ``u`` are scratch it may overwrite, float64 like ``out`` when ``f``
    and the job's ``fields`` (arrays or scalars) are real.  On a scaled
    carrier ``d`` is formed from its exact ``dlog`` and ``d2log`` as the
    whole-array expressions of a scaled ``derivative`` form them, operation
    by operation; a carrier without one that a job reads raises ValueError.

    A complex product must not be written over one of its factors: on a
    one-point block numpy then takes a loop whose last bit can differ.
    """
    grid = f.grid
    n, h = grid.n_points, grid.spacing
    scale = f.log_scale
    wanted = set().union(*(orders for orders, *_ in jobs))
    # a scaled second derivative reads the first derivative of the values too
    need = sorted(wanted | ({1} if scale is not None else set()))
    stencil = _Stencil(f.values, h, need)
    m = min(_BLOCK, n)
    dtypes = [np.result_type(f.values, *fields) for _, _, *fields in jobs]
    d = {k: np.empty(m, dtype=f.values.dtype) for k in need}
    scratch = {dt: np.empty((2, m), dtype=dt) for dt in {f.values.dtype, *dtypes}}
    if scale is not None:
        for name in ("dlog", "d2log")[: need[-1]]:
            if getattr(f, name) is None:
                raise ValueError(f"a scaled carrier needs {name} for an order {need[-1]} pass")
        r = np.empty(m)
    outs = [np.empty(n, dtype=dt) for dt in dtypes]
    for lo, hi in _blocks(n):
        k = hi - lo
        sl = slice(lo, hi)
        v = f.values[sl]
        db = stencil.into(lo, hi, {j: d[j][:k] for j in need})
        if scale is not None:
            s1, rb, tb = f.dlog[sl], r[:k], scratch[f.values.dtype][0, :k]
            if 2 in wanted:  # v2 + 2 * s1 * v1 + (s2 + s1 * s1) * v
                np.multiply(2, s1, out=rb)
                np.multiply(rb, db[1], out=tb)
                db[2] += tb
                np.multiply(s1, s1, out=rb)
                np.add(f.d2log[sl], rb, out=rb)
                np.multiply(rb, v, out=tb)
                db[2] += tb
            if 1 in wanted:  # v1 + s1 * v
                np.multiply(s1, v, out=tb)
                db[1] += tb
        for (orders, combine, *_), out in zip(jobs, outs):
            combine(sl, v, *(db[j] for j in orders), out[sl], *scratch[out.dtype][:, :k])
    return [f.with_values(out) for out in outs]


def _copy(sl, v, d, out, t, u):
    out[...] = d


def derivative(f, order: int = 1):
    """4th-order finite-difference derivative (order 1 or 2) on the scale of ``f``."""
    return stencil_pass(f, [((order,), _copy)])[0]


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
    n, w = f.grid.n_points, f.grid.simpson_weights
    dt = np.result_type(f.values, g.values)
    real = dt == np.float64
    # real terms are summed as complex: a real sum adds in another pairwise order
    if f.log_scale is None and g.log_scale is None:
        terms = w * (f.values if real else np.conjugate(f.values)) * g.values
        return complex(np.sum(terms.astype(np.complex128, copy=False)))
    weighted = np.empty(n, dtype=np.complex128)  # w times the integrand
    m = min(_BLOCK, n)
    zeros = np.zeros(m)
    p, c = np.empty(m, dtype=dt), np.empty(m, dtype=dt)
    s, mag, log_mag = np.empty(m), np.empty(m), np.empty(m)

    # no complex product is written over a factor (see stencil_pass)
    def integrand(lo, hi):
        """p, |p| and s + log|p| at points lo..hi-1, in the scratch buffers."""
        k = hi - lo
        pb, mb, lb, sb = p[:k], mag[:k], log_mag[:k], s[:k]
        np.add(zeros[:k] if f.log_scale is None else f.log_scale[lo:hi],
               zeros[:k] if g.log_scale is None else g.log_scale[lo:hi], out=sb)
        fb = f.values[lo:hi]
        np.multiply(fb if real else np.conjugate(fb, out=c[:k]), g.values[lo:hi], out=pb)
        np.abs(pb, out=mb)
        with np.errstate(divide="ignore"):
            np.log(mb, out=lb)
        np.add(sb, lb, out=lb)
        return pb, mb, lb

    def weigh(lo, hi, pb, mb, lb):
        """w * (p / |p|) * exp(s + log|p|) into ``weighted``, 0 where p is 0."""
        cb = c[: hi - lo]
        if mb.min() > 0:
            np.multiply(_over(pb, mb, out=cb), np.exp(lb, out=lb), out=pb)
            cb = pb
        else:
            cb[:] = 0
            nz = mb > 0
            cb[nz] = _over(pb[nz], mb[nz]) * np.exp(lb[nz])
        np.multiply(w[lo:hi], cb, out=weighted[lo:hi])

    # the largest log|integrand| and its first point, as np.argmax of the
    # whole array finds it; once it is out of range, blocks are only scanned
    worst, at = -np.inf, 0
    for lo, hi in _blocks(n):
        pb, mb, lb = integrand(lo, hi)
        top = lb.max()
        if top > worst:
            worst, at = top, lo + int(np.argmax(lb))
        if worst <= _LOG_HUGE:
            weigh(lo, hi, pb, mb, lb)
    if worst > _LOG_HUGE:
        raise RepresentationError(
            f"pairing integrand exceeds float range near x={float(f.grid.x[at])!r}"
        )
    return complex(np.sum(weighted))


def biorthogonality_defect(left, right) -> float:
    """max |<l_a, r_b> - delta_ab| over every pair of the two families.

    ``right`` is read once, in the outer loop, so it may be a generator:
    only ``left`` is held whole.  A maximum is exact in any order.
    """
    left = list(left)
    return max([0.0] + [pairing_defect(left, b, r_b) for b, r_b in enumerate(right)])


def pairing_defect(left, b: int, r_b) -> float:
    """max |<l_a, r_b> - delta_ab| over the family ``left``: column b of
    :func:`biorthogonality_defect`."""
    worst = 0.0
    for a, l_a in enumerate(left):
        worst = max(worst, abs(inner(l_a, r_b) - (1.0 if a == b else 0.0)))
    return worst


def norm(f) -> float:
    """L2 norm; for scaled carriers it may overflow; prefer residual ratios."""
    if f.log_scale is None:
        return float(np.sqrt(np.sum(f.grid.simpson_weights * np.abs(f.values) ** 2)))
    return float(np.sqrt(abs(inner(f, f))))


def interior_norm(f, pad: int = EDGE_PAD, exclude: list | None = None) -> float:
    """L2 norm over the interior, skipping edge points and marked poles; ``f``
    may be a residual given as its terms, as in :func:`relative_residual`."""
    f = (_Difference(f) if isinstance(f, tuple) else f).materialize()
    mask = _interior_mask(f.grid, pad, exclude)
    return float(_weighted_norms(f.grid, [f], mask)[0])


class _Difference:
    """``a - c * b`` from the terms (a, c, b), or ``a - b`` from (a, b), formed a
    block at a time with the bits of that carrier expression; a block that is
    not finite builds the carrier, which reports it as the expression does."""

    def __init__(self, terms):
        self.a, self.c, self.b = terms if len(terms) == 3 else (terms[0], None, terms[1])
        if isinstance(self.c, complex) and not self.c.imag:  # a pairing of real carriers
            self.c = self.c.real  # c + 0j times b has the bits of c times b, up to a zero's sign
        _check_same_carrier(self.a, self.b)
        self.grid, self.log_scale = self.a.grid, self.a.log_scale
        self.dtype = np.result_type(self.a.values, self.b.values, 0.0 if self.c is None else self.c)

    def carrier(self) -> GridFunction:
        return self.a - (self.b if self.c is None else self.c * self.b)

    def materialize(self):
        return self if self.log_scale is None else self.carrier().materialize()

    def block(self, sl: slice, out: np.ndarray) -> np.ndarray:
        b = self.b.values[sl]
        with np.errstate(over="ignore", invalid="ignore"):
            b = b if self.c is None else np.multiply(self.c, b, out=out)
            if not np.isfinite(np.subtract(self.a.values[sl], b, out=out).sum()):
                self.carrier()
        return out


def _weighted_norms(grid: Grid, funcs: list, mask: np.ndarray, shift=None) -> list:
    """sqrt(sum(w * |v|**2 * e2)) for the values v of each of ``funcs``.

    w is the Simpson weights times ``mask``; e2 is
    exp(2 * clip(scale - top, -_LOG_HUGE, 0)) when ``shift`` gives
    (scale, top), and 1 otherwise.  The terms are formed block by block
    and each row is summed whole.
    """
    n = grid.n_points
    m = min(_BLOCK, n)
    sw, wb, e2 = grid.simpson_weights, np.empty(m), np.empty(m)
    d = [None if isinstance(f, GridFunction) else np.empty(m, dtype=f.dtype) for f in funcs]
    terms = np.empty((len(funcs), n))
    for lo, hi in _blocks(n):
        sl, k = slice(lo, hi), hi - lo
        w = np.multiply(sw[sl], mask[sl], out=wb[:k])
        if shift is not None:
            e = np.subtract(shift[0][sl], shift[1], out=e2[:k])
            np.clip(e, -_LOG_HUGE, 0.0, out=e)
            np.exp(np.multiply(2, e, out=e), out=e)
        for row, f, buf in zip(terms, funcs, d):
            v = f.values[sl] if buf is None else f.block(sl, buf[:k])
            # |v|**2, and v**2 for real v: abs is exact, so the bits agree
            t = np.square(v if v.dtype == np.float64 else np.abs(v, out=row[sl]), out=row[sl])
            np.multiply(w, t, out=t)
            if shift is not None:
                t *= e
    return [np.sqrt(np.sum(row)) for row in terms]


def _interior_mask(grid: Grid, pad: int, exclude: list | None) -> np.ndarray:
    return _cached_interior_mask(grid.half_width, grid.n_points, pad, tuple(exclude or ()))


@lru_cache(maxsize=32)
def _cached_interior_mask(half_width: float, n_points: int, pad: int, exclude: tuple) -> np.ndarray:
    """The interior points of a grid, read-only; keyed by the grid's
    parameters so that the cache keeps no grid alive."""
    grid = Grid(half_width, n_points)
    mask = np.zeros(n_points, dtype=bool)
    mask[pad:n_points - pad] = True
    if exclude:
        width = 6 * grid.spacing
        for x0 in exclude:
            mask &= np.abs(grid.x - x0) > width
    mask.flags.writeable = False
    return mask


def relative_residual(num, den, exclude: list | None = None) -> float:
    """||num|| / ||den|| over the interior, shift-invariant for scaled input.

    ``num`` and ``den`` must share their scale array, an unscaled carrier
    counting as scale zero (operator residuals are produced that way).
    ``num`` may be given as its terms, (a, b) for ``a - b`` or (a, c, b) for
    ``a - c * b``: it is then formed a block at a time, never as a whole array.
    """
    num = _Difference(num) if isinstance(num, tuple) else num
    _check_same_grid(num, den)
    grid = num.grid
    mask = _interior_mask(grid, EDGE_PAD, exclude)
    shift = None
    if num.log_scale is not None or den.log_scale is not None:
        scale = _log_scale(num)
        if num.log_scale is not den.log_scale and not np.array_equal(scale, _log_scale(den)):
            raise ValueError("scaled residual requires a shared log_scale")
        shift = (scale, np.max(scale, where=mask, initial=0.0))
    a, b = _weighted_norms(grid, [num, den], mask, shift)
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


def fitted_decay_exponents(f) -> DecayFit:
    """Least-squares slope of log|f| vs outward distance on each tail."""
    log_mag = f.log_magnitude()
    n = f.grid.n_points
    k = max(8, int(round(DECAY_FIT_FRACTION * n)))
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

def cumulative_antiderivative(values: np.ndarray, grid: Grid, dvalues) -> np.ndarray:
    """W with W' = values and W = 0 at the grid point nearest x = 0.

    Cumulative trapezoid plus the Euler-Maclaurin h^2/12 endpoint correction,
    which reads the exact derivative ``dvalues`` of ``values`` at the points;
    the result is 4th-order accurate, which the downstream
    annihilation-residual checks rely on.
    """
    values = _as_samples(values)
    h = grid.spacing
    t = np.empty(grid.n_points, dtype=values.dtype)
    t[0] = 0.0
    np.cumsum((values[1:] + values[:-1]) * (h / 2.0), out=t[1:])
    dv = np.asarray(dvalues)
    w = t - (h * h / 12.0) * (dv - dv[0])
    j0 = int(np.argmin(np.abs(grid.x)))
    return w - w[j0]


# ---------------------------------------------------------------------------
# adaptive quadrature on [0, inf) and oscillatory averages

_SIMPSON_REFINES = 14  # panel refinements from 8 intervals before a panel's last value stands
_HALFLINE_TOL = 1e-10  # two successive panels below this share of the total end the sum
_HALFLINE_DOUBLINGS = 40  # panels [0, 1] to [2^38, 2^39] before NonConvergenceError


def _panel_simpson(f, a: float, b: float, rel_tol: float) -> float:
    """Composite Simpson on [a, b], refined by doubling until stable."""
    m = 8
    prev = None
    for _ in range(_SIMPSON_REFINES):
        xs = np.linspace(a, b, m + 1)
        ys = np.asarray(f(xs), dtype=float)
        h = (b - a) / m
        val = h / 3.0 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-2:2].sum())
        if prev is not None and abs(val - prev) <= rel_tol * max(1.0, abs(val)):
            return val
        prev = val
        m *= 2
    return prev


def integrate_halfline(f) -> float:
    """Integrate a decaying real integrand over [0, inf) by panel doubling.

    Panels [0,1], [1,2], [2,4], ... are each integrated by refined Simpson;
    the sum stops when two consecutive panels contribute below tolerance.
    """
    total = 0.0
    edges = [0.0, 1.0]
    small_streak = 0
    for _ in range(_HALFLINE_DOUBLINGS):
        a, b = edges
        part = _panel_simpson(f, a, b, rel_tol=_HALFLINE_TOL * 1e-2)
        total += part
        if abs(part) <= _HALFLINE_TOL * max(1.0, abs(total)) / 2:
            small_streak += 1
            if small_streak >= 2:
                return total
        else:
            small_streak = 0
        edges = [b, 2 * b]
    raise NonConvergenceError(
        f"half-line integral did not converge after {_HALFLINE_DOUBLINGS} panel doublings"
    )
