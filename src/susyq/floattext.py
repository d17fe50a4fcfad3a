"""Float64 blocks as the exact text of ``"{:.17g}".format`` and ``float.__repr__``.

``cells(values, style)`` returns the text of each value as a span of one
row of a uint8 matrix ``_WIDTH`` bytes wide.  The text is byte
for byte what Python writes: ``"csv"`` is ``"{:.17g}".format(v)``, and
``"json"`` is ``repr(v)`` with ``inf``, ``-inf`` and ``nan`` in quotes.

The digits come from array arithmetic.  |v| is scaled to seventeen integer
digits, ``|v| * 10**m = n + s``, by a Dekker two-product against a double
pair ``10**m = hi + lo`` (Dekker, Numer. Math. 18, 1971): n is the nearest
integer, and the rest ``|s| <= 1/2`` is off from the exact one by far less
than ``_EPS``.  A digit is kept only where that error cannot change it: s is
certifiably away from +-1/2, or the product is exact and s a true tie, which
rounds half to even.  ``repr`` keeps the fewest of 15, 16 or 17 digits whose
nearest decimal lies certifiably inside the rounding interval of v, half a
``spacing(v)`` each way; where two 16-digit decimals tie, the even one, as
Gay's shortest round trip does.  The digits are read four at a time from a
lookup table, and the cells are laid out with slice copies over the rows
that share a layout: its notation, and its exponent or digit count.

Every other cell is formatted by Python: non-finite values, |v| outside
[``_LOW``, ``_HIGH``], roundings the margin cannot certify, powers of two
under ``repr``, whose rounding interval is narrower below than above, and
blocks shorter than ``_KERNEL_ROWS``.  The lookup tables are built on first
use.
"""

from __future__ import annotations

import numpy as np

__all__ = ["cells"]

_WIDTH = 24  # the widest cell: "-1.2345678901234567e-308"
# Fewer values than this are formatted by Python, cell by cell: the kernel's
# fixed cost, about 0.1 ms a call, outweighs the cells it would save.
_KERNEL_ROWS = 256
_LOW, _HIGH = 1e-280, 1e280  # the |v| the digit kernel takes
_EPS = 1e-9  # certification margin, in units of the 17th digit
_E16, _E17 = 10 ** 16, 10 ** 17
_M_MIN, _M_MAX = -300, 300  # the powers 10**m in the table
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant
_LAST_FIXED = {"csv": 16, "json": 15}  # the largest exponent written without "e"
# A cell's 32-byte source row holds its 17 digits from byte _DIGITS and, in
# scientific notation, its exponent ("e+05", "e-100") from byte _SUFFIX;
# the other bytes of a cell are slices of _CONST.
_DIGITS, _SUFFIX = 3, 24
_CONST = b"0.000"

_tables: dict = {}


def _split(a):
    """Veltkamp's split of ``a`` into two halves of 26 bits each."""
    c = a * _SPLIT
    hi = c - (c - a)
    return hi, a - hi


def _powers():
    """10**m for m in [_M_MIN, _M_MAX] as hi + lo, each correctly rounded
    from Python's exact integers, and hi split for the two-product."""
    hi, lo = [], []
    for m in range(_M_MIN, _M_MAX + 1):
        if m >= 0:
            h = float(10 ** m)
            rest = (10 ** m - int(h), 1)
        else:
            d = 10 ** -m
            h = 1 / d  # int true division rounds correctly
            a, b = h.as_integer_ratio()
            rest = (b - a * d, b * d)
        hi.append(h)
        lo.append(rest[0] / rest[1])
    hi = np.array(hi)
    return (hi, *_split(hi), np.array(lo))


def _build():
    i = np.arange(10000)[:, None]
    _tables.update(
        powers=_powers(),
        # the four digits of i as one word, and how many of them end it as zeros
        digits4=(i // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8).view(np.uint32).ravel(),
        zeros4=(i % [10, 100, 1000, 10000] == 0).sum(axis=1),
        suffix=np.frombuffer(b"".join(f"e{k:+03d}".encode().ljust(8, b"\0")
                                      for k in range(-400, 401)), dtype=np.uint64),
        const=np.frombuffer(_CONST, dtype=np.uint8),
        csv=_layouts("csv"), json=_layouts("json"),
    )


def _scaled(ax, m):
    """``ax * 10**m`` as ``(n, s, exact)``: the nearest int64 n, the rest s
    with |s| <= 1/2, and where ``n + s`` is the exact product.

    Once the product has its 17 digits it is at least 2**53, so p is an
    even integer and a tie s = +-1/2 rounds to even with ``rint``; with
    10**m a double (lo = 0) the two-product leaves no error at all.
    """
    hi, hh, hl, lo = (np.take(t, m - _M_MIN) for t in _tables["powers"])
    p = ax * hi
    ah, al = _split(ax)
    e = ((ah * hh - p) + ah * hl + al * hh) + al * hl  # ax * hi - p, exactly
    whole = np.floor(p)
    t = (p - whole) + (e + ax * lo)
    near = np.rint(t)
    return whole.astype(np.int64) + near.astype(np.int64), t - near, lo == 0.0


def _shortest(n, s, exact, h):
    """``repr``'s digits, padded to 17, and the cells they leave uncertain.

    In units of the 17th digit, the 15- and 16-digit decimals nearest the
    value lie ``d15`` and ``d16`` from it, and its rounding interval
    reaches ``h`` each way.  A 16-digit tie, ``n % 10 == 5`` with ``s == 0``,
    takes the even neighbour.
    """
    q10, q100 = n // 10, n // 100
    r10 = (n - q10 * 10).astype(np.float64) + s
    r100 = (n - q100 * 100).astype(np.float64) + s
    d15 = np.minimum(np.abs(r100), 100.0 - r100)
    d16 = np.minimum(np.abs(r10), 10.0 - r10)
    inside, outside = h - _EPS, h + _EPS
    in15, in16 = d15 < inside, d16 < inside
    take16 = ~in15 & in16
    tie = take16 & (np.abs(r10 - 5.0) <= _EPS)
    unsure = ((d15 >= inside) & (d15 <= outside)
              | ~in15 & (d16 >= inside) & (d16 <= outside)
              | tie & ~(exact & (s == 0.0)))
    up16 = (r10 > 5.0) | tie & (q10 & 1 == 1)
    digits = np.where(in15, (q100 + (r100 > 50.0)) * 100,
                      np.where(take16, (q10 + up16) * 10, n))
    return digits, unsure


def _layout_of(style: str, code: int) -> tuple:
    """The unsigned layout ``code`` (see ``cells``): runs ``(from_source_row,
    start, length)``, concatenated in order, and the cell's length for each
    digit count from 0 to 17.  Digits past a cell's length are written and
    cut off by it."""
    n_fixed = _LAST_FIXED[style] + 5
    dot0 = 2 if style == "json" else 0  # repr's ".0" after an integer
    if code < n_fixed:
        k = code - 4
        if k < 0:  # "0.", -k - 1 zeros and the digits
            return [(False, 0, 1 - k), (True, _DIGITS, 17)], [1 - k + nd for nd in range(18)]
        return ([(True, _DIGITS, k + 1), (False, 1, 1), (True, _DIGITS + k + 1, 16 - k)],
                [k + 1 + dot0 if nd <= k + 1 else nd + 1 for nd in range(18)])
    if code == n_fixed + 34:
        return [(False, 0, 3)], [1 + dot0] * 18  # zero: "0" or "0.0"
    more, wide = divmod(code - n_fixed, 2)  # digits after the first; |k| >= 100
    runs = [(True, _DIGITS, 1)]
    if more:
        runs += [(False, 1, 1), (True, _DIGITS + 1, more)]
    runs.append((True, _SUFFIX, 4 + wide))
    return runs, [sum(n for _, _, n in runs)] * 18


def _layouts(style: str) -> tuple:
    """The runs of every layout code, and the flat table of cell lengths
    indexed by ``18 * code + nd``."""
    layouts = [_layout_of(style, code) for code in range(_LAST_FIXED[style] + 40)]
    return [runs for runs, _ in layouts], np.array([n for _, n in layouts]).ravel()


def _layout(runs, code, src):
    """The cells of ``code`` from their source rows ``src``, unsigned from
    column 1 after a "-": rows are sorted by code, and each run of a layout
    is one slice copy over the rows that share it."""
    text = np.empty((len(code), _WIDTH), dtype=np.uint8)
    text[:, 0] = ord("-")
    edges = np.flatnonzero(code[1:] != code[:-1]) + 1
    order = None
    if len(edges):
        order = np.argsort(code, kind="stable")
        code = code[order]
        src = np.take(src, order, axis=0)
        edges = np.flatnonzero(code[1:] != code[:-1]) + 1
    src, const = src.view(np.uint8), _tables["const"]
    for a, b in zip([0, *edges.tolist()], [*edges.tolist(), len(code)]):
        at = 1
        for from_src, start, n in runs[code[a]]:
            text[a:b, at:at + n] = src[a:b, start:start + n] if from_src else const[start:start + n]
            at += n
    if order is None:
        return text
    inverse = np.empty_like(order)
    inverse[order] = np.arange(len(order))
    return np.take(text, inverse, axis=0)


def _digits(values, style: str):
    """(n, k, certified): each |value| as a 17-digit integer n, which pads
    repr's shorter digits with zeros, its decimal exponent k, and where the
    kernel certifies them.  Zero and the values outside [_LOW, _HIGH] come
    out uncertified."""
    ax = np.abs(values)
    certified = (ax >= _LOW) & (ax <= _HIGH)
    if style == "json":  # a power of two has a narrower interval below it
        certified &= values.view(np.uint64) & np.uint64(2 ** 52 - 1) != 0
    ax = np.where(certified, ax, 1.0)

    k = np.floor(np.log10(ax)).astype(np.int64)
    n, s, exact = _scaled(ax, 16 - k)
    low = (n < _E16) | (n == _E16) & (s < 0.0)  # log10 was a decade off
    high = (n > _E17) | (n == _E17) & (s >= 0.0)
    off = np.flatnonzero(low | high)
    if len(off):
        k[off] += high[off].astype(np.int64) - low[off]
        n[off], s[off], exact[off] = _scaled(ax[off], 16 - k[off])
    # n == 10**17 is now a carry into the next decade
    certified &= (n >= _E16) & (n <= _E17) & ((0.5 - np.abs(s) > _EPS) | exact)
    carry = n == _E17
    if style == "json":
        if carry.any():
            n = np.where(carry, _E16, n)
            k = k + carry
            s = np.where(carry, s / 10.0, s)
            exact &= ~carry
        h = 0.5 * np.spacing(ax) * np.take(_tables["powers"][0], 16 - k - _M_MIN)
        n, unsure = _shortest(n, s, exact, h)
        certified &= ~unsure
        carry = n == _E17
    return np.where(carry, _E16, n), k + carry, certified


def _text(n, k, values, style: str):
    """(uint8 matrix, first, end) for the digits n and exponents k of
    ``_digits``; zero is written as Python writes it."""
    digits4, zeros4 = _tables["digits4"], _tables["zeros4"]
    lead = n // _E16
    rest = n - lead * _E16
    hi8 = rest // 10 ** 8
    lo8 = (rest - hi8 * 10 ** 8).astype(np.uint32)
    hi8 = hi8.astype(np.uint32)
    src = np.empty((len(n), 8), dtype=np.uint32)
    src[:, 0] = np.take(digits4, lead)
    for j, half in ((1, hi8), (3, lo8)):  # eight digits, four at a time
        top = half // 10000
        src[:, j] = np.take(digits4, top)
        src[:, j + 1] = np.take(digits4, half - top * 10000)
    # 17 digits less the trailing zeros, counted in the last nonzero half
    zero_lo = lo8 == 0
    last = np.where(zero_lo, hi8, lo8)
    top = last // 10000
    bottom = last - top * 10000
    zero_bottom = bottom == 0
    nd = 17 - 8 * zero_lo - 4 * zero_bottom - np.take(zeros4, np.where(zero_bottom, top, bottom))

    # layout codes: k + 4 in fixed notation; past those, 2 * (nd - 1) +
    # (|k| >= 100) in scientific notation, and 34 for zero
    n_fixed = _LAST_FIXED[style] + 5
    code = k + 4
    sci = np.flatnonzero((code < 0) | (code >= n_fixed))
    if len(sci):
        code[sci] = n_fixed + 2 * (nd[sci] - 1) + (np.abs(k[sci]) >= 100)
        src.view(np.uint64)[sci, 3] = np.take(_tables["suffix"], k[sci] + 400)
    code[values == 0.0] = n_fixed + 34
    runs, sizes = _tables[style]
    text = _layout(runs, code.astype(np.uint8), src)
    return text, 1 - np.signbit(values).astype(np.intp), 1 + np.take(sizes, 18 * code + nd)


def _python_text(values, style: str):
    """(uint8 matrix, lengths): the text of each value from Python's own
    formatter."""
    fmt = "{:.17g}".format if style == "csv" else _json_repr
    texts = [fmt(v) for v in values.tolist()]
    matrix = np.array(texts, dtype=f"S{_WIDTH}").view(np.uint8).reshape(-1, _WIDTH)
    return matrix, np.fromiter(map(len, texts), dtype=np.intp, count=len(texts))


def _json_repr(v: float) -> str:
    text = repr(v)
    return text if v - v == 0.0 else f'"{text}"'  # inf, -inf and nan as strings


def cells(values, style: str):
    """(uint8 matrix, first, end): the text of value i is
    ``matrix[i, first[i]:end[i]]``.

    ``style`` is ``"csv"`` for ``"{:.17g}".format`` or ``"json"`` for
    ``repr`` with non-finite values quoted.
    """
    values = np.asarray(values, dtype=np.float64)
    if len(values) < _KERNEL_ROWS:
        text, end = _python_text(values, style)
        return text, 0, end
    if not _tables:
        _build()
    n, k, certified = _digits(values, style)
    text, first, end = _text(n, k, values, style)
    slow = np.flatnonzero(~certified & (values != 0.0))
    if len(slow):
        text[slow], end[slow] = _python_text(values[slow], style)
        first[slow] = 0
    return text, first, end
