"""Tiny expression language: parsing, exact differentiation, complex evaluation.

Closed-form superpotentials and deformation profiles are functions of one real
variable ``x`` with complex constants.  The grammar is deliberately small but
closed under differentiation: sums, products, quotients, integer powers and the
unary functions ``exp``, ``sin``, ``cos``, ``tanh`` and ``ln``.  ``ln`` is the
natural logarithm of the absolute value, which is what antiderivatives of
simple poles produce; its derivative rule u'/u treats the argument as
real-valued (every use in this package is real-valued).

Complex constants are written with an ``i`` suffix on the number literal
(``0.3i``, ``2.5e-1i``).  Named parameters are resolved to complex constants at
parse time from a bindings table, so a parsed tree never contains free symbols
other than ``x``.

The only simplifications performed are constant folding and the 0/1 identity
eliminations; trees otherwise print back exactly as structured, and
``parse(str(e))`` evaluates identically to ``e``.  ``evaluate_array`` takes a
record's roots together and evaluates each distinct subtree once on the array.
"""

from __future__ import annotations

import cmath
import re
import struct
from collections import Counter

import numpy as np

__all__ = [
    "Expr",
    "Const",
    "Var",
    "ExprError",
    "ParseError",
    "EvalDomainError",
    "parse",
    "parse_bindings",
    "differentiate",
    "conjugate",
    "evaluate",
    "evaluate_array",
    "to_source",
]


class ExprError(ValueError):
    """Base class for expression-language errors."""


class ParseError(ExprError):
    """Syntax or binding error, carrying the byte offset into the source."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class EvalDomainError(ExprError):
    """Evaluation hit a pole, a log of zero, or overflowed; carries x."""

    def __init__(self, message: str, x):
        # on a grid only a constant subexpression is checked: it fails at every point
        super().__init__(f"{message} at x={x}" if np.ndim(x) == 0 else f"{message} at every x")
        self.x = x


class Expr:
    """Base node.  Subclasses implement ``_op``, ``diff``, ``conj``, ``__str__``."""

    _prec = 4  # atoms; lower binds looser

    def _kids(self) -> tuple:
        return ()

    def _op(self, x, *kid_values):  # this node's value from its children's
        raise NotImplementedError

    def _ev(self, x):  # a leaf's; the scalar recursion of nodes with children
        return self._op(x)

    def diff(self) -> "Expr":
        raise NotImplementedError

    def conj(self) -> "Expr":
        raise NotImplementedError

    # arithmetic sugar for assembling potentials; both operands are trees
    def __add__(self, other):
        return _add(self, other) if isinstance(other, Expr) else NotImplemented

    def __sub__(self, other):
        return _add(self, _neg(other)) if isinstance(other, Expr) else NotImplemented

    def __mul__(self, other):
        return _mul(self, other) if isinstance(other, Expr) else NotImplemented

    def __truediv__(self, other):
        return _div(self, other) if isinstance(other, Expr) else NotImplemented

    def __pow__(self, n):
        if not isinstance(n, (int, np.integer)):
            raise ExprError("only integer powers are supported")
        return _pow(self, int(n))

    def __neg__(self):
        return _neg(self)

    def _paren(self, child: "Expr", min_prec: int) -> str:
        s = str(child)
        return f"({s})" if child._prec < min_prec else s


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = complex(value)

    def _op(self, x):
        return self.value

    def diff(self):
        return Const(0.0)

    def conj(self):
        return Const(self.value.conjugate())

    def __str__(self):
        re_, im_ = self.value.real, self.value.imag
        if im_ == 0.0:
            return repr(re_) if re_ >= 0 else f"({re_!r})"
        if re_ == 0.0:
            return f"{im_!r}i" if im_ >= 0 else f"({im_!r}i)"
        sign = "+" if im_ >= 0 else "-"
        return f"({re_!r} {sign} {abs(im_)!r}i)"


class Var(Expr):
    """The real independent variable x."""

    __slots__ = ()

    def _op(self, x):
        return x

    def diff(self):
        return Const(1.0)

    def conj(self):
        return self

    def __str__(self):
        return "x"


class _Binary(Expr):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def _kids(self):
        return self.a, self.b

    def _ev(self, x):
        return self._op(x, self.a._ev(x), self.b._ev(x))


class Add(_Binary):
    _prec = 1

    def _op(self, x, a, b):
        return a + b

    def diff(self):
        return _add(self.a.diff(), self.b.diff())

    def conj(self):
        return _add(self.a.conj(), self.b.conj())

    def __str__(self):
        if isinstance(self.b, Neg):
            return f"{self._paren(self.a, 1)} - {self._paren(self.b.a, 2)}"
        return f"{self._paren(self.a, 1)} + {self._paren(self.b, 2)}"


class Mul(_Binary):
    _prec = 2

    def _op(self, x, a, b):
        return a * b

    def diff(self):
        return _add(_mul(self.a.diff(), self.b), _mul(self.a, self.b.diff()))

    def conj(self):
        return _mul(self.a.conj(), self.b.conj())

    def __str__(self):
        return f"{self._paren(self.a, 2)} * {self._paren(self.b, 2)}"


class Div(_Binary):
    _prec = 2

    def _op(self, x, num, den):
        if (np.isscalar(den) or np.ndim(den) == 0) and den == 0:
            raise EvalDomainError("division by zero", x)
        return num / den

    def diff(self):
        num = _add(_mul(self.a.diff(), self.b), _neg(_mul(self.a, self.b.diff())))
        return _div(num, _pow(self.b, 2))

    def conj(self):
        return _div(self.a.conj(), self.b.conj())

    def __str__(self):
        return f"{self._paren(self.a, 2)} / {self._paren(self.b, 3)}"


class _Unary(Expr):
    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a

    def _kids(self):
        return (self.a,)

    def _ev(self, x):
        return self._op(x, self.a._ev(x))


class Neg(_Unary):
    _prec = 2

    def _op(self, x, a):
        return -a

    def diff(self):
        return _neg(self.a.diff())

    def conj(self):
        return _neg(self.a.conj())

    def __str__(self):
        return f"-{self._paren(self.a, 3)}"


class Pow(_Unary):
    """Integer power; negative exponents allowed and mean division."""

    __slots__ = ("n",)
    _prec = 3

    def __init__(self, a, n: int):
        self.a, self.n = a, int(n)

    def _op(self, x, base):
        if self.n < 0 and (np.isscalar(base) or np.ndim(base) == 0) and base == 0:
            raise EvalDomainError("zero raised to a negative power", x)
        try:
            return base ** self.n
        except (OverflowError, ZeroDivisionError):  # Python scalars raise where numpy gives inf
            return np.power(np.asarray(base), self.n)

    def diff(self):
        inner = _mul(Const(self.n), _pow(self.a, self.n - 1))
        return _mul(inner, self.a.diff())

    def conj(self):
        return _pow(self.a.conj(), self.n)

    def __str__(self):
        return f"{self._paren(self.a, 4)}^{self.n}"


class _Fn(_Unary):
    name = "?"

    def _op(self, x, a):
        return self.ufunc(a)

    def conj(self):
        # exp/sin/cos/tanh have real Taylor coefficients, so conj(f(u(x))) =
        # f(conj(u(x))) for real x; ln|u| is real-valued either way.
        return type(self)(self.a.conj())

    def __str__(self):
        return f"{self.name}({self.a})"


class Exp(_Fn):
    name, ufunc = "exp", np.exp

    def diff(self):
        return _mul(self, self.a.diff())


class Sin(_Fn):
    name, ufunc = "sin", np.sin

    def diff(self):
        return _mul(Cos(self.a), self.a.diff())


class Cos(_Fn):
    name, ufunc = "cos", np.cos

    def diff(self):
        return _neg(_mul(Sin(self.a), self.a.diff()))


class Tanh(_Fn):
    name, ufunc = "tanh", np.tanh

    def diff(self):
        return _mul(_add(Const(1.0), _neg(_pow(Tanh(self.a), 2))), self.a.diff())


class LogAbs(_Fn):
    """ln|u|.  Real-valued; derivative u'/u assumes a real-valued argument."""

    name = "ln"

    def _op(self, x, v):
        mag = np.abs(v)
        if (np.isscalar(mag) or np.ndim(mag) == 0) and mag == 0:
            raise EvalDomainError("log of zero", x)
        return np.log(mag) + 0j if np.ndim(mag) else complex(np.log(mag))  # ln 0 = -inf on arrays

    def diff(self):
        return _div(self.a.diff(), self.a)


# ---------------------------------------------------------------------------
# smart constructors: constant folding plus 0/1 identities, nothing deeper

def _is_const(e, value=None):
    return isinstance(e, Const) and (value is None or e.value == value)


def _add(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value + b.value)
    if _is_const(a, 0):
        return b
    if _is_const(b, 0):
        return a
    return Add(a, b)


def _mul(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value * b.value)
    if _is_const(a, 0) or _is_const(b, 0):
        return Const(0.0)
    if _is_const(a, 1):
        return b
    if _is_const(b, 1):
        return a
    return Mul(a, b)


def _neg(a):
    if _is_const(a):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.a
    return Neg(a)


def _div(a, b):
    if _is_const(b):
        if b.value == 0:
            raise ExprError("division by the constant zero")
        if b.value == 1:
            return a
        if _is_const(a):
            return Const(a.value / b.value)
    if _is_const(a, 0):
        return Const(0.0)
    return Div(a, b)


def _pow(a, n: int):
    n = int(n)
    if n == 0:
        return Const(1.0)
    if n == 1:
        return a
    if _is_const(a):
        if a.value == 0 and n < 0:
            raise ExprError("the constant zero raised to a negative power")
        try:
            value = a.value ** n
            if cmath.isfinite(value):
                return Const(value)
        except (OverflowError, ZeroDivisionError):  # a negative power whose reciprocal underflows
            pass
        raise ExprError(f"constant power {a}^{n} is out of float range")
    return Pow(a, n)


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?i?)
  | (?P<name>[^\W\d]\w*)
  | (?P<op>[-+*/^()])
    """,
    re.VERBOSE | re.UNICODE,
)

_FUNCTIONS = {"exp": Exp, "sin": Sin, "cos": Cos, "tanh": Tanh, "ln": LogAbs}
_RESERVED = frozenset(_FUNCTIONS) | {"x"}


def parse_bindings(raw: dict | None) -> dict:
    """Normalize a bindings table: numbers or [re, im] pairs to complex."""
    out = {}
    for name, value in (raw or {}).items():
        if name in _RESERVED:
            raise ParseError(f"binding name {name!r} shadows a reserved word", 0)
        if isinstance(value, (list, tuple)):
            try:
                re_part, im_part = value
                out[name] = complex(float(re_part), float(im_part))
            except (TypeError, ValueError):
                raise ParseError(f"binding {name!r}: expected [re, im]", 0) from None
        elif isinstance(value, (int, float, complex)):
            out[name] = complex(value)
        else:
            raise ParseError(f"binding {name!r}: unsupported value {value!r}", 0)
    return out


class _Parser:
    def __init__(self, text: str, bindings: dict):
        self.text = text
        self.bindings = bindings
        self.tokens = []  # (kind, value, offset)
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            pos = m.end()
            kind = m.lastgroup
            if kind != "ws":
                self.tokens.append((kind, m.group(), m.start()))
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else ("end", "", len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, value, offset = self.next()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}, found {value!r}" if kind != "end" else f"expected {op!r}, found end of input", offset)

    def parse(self):
        e = self.expr()
        kind, value, offset = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing {value!r}", offset)
        return e

    def expr(self):
        e = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.next()
                rhs = self.term()
                e = _add(e, rhs) if value == "+" else _add(e, _neg(rhs))
            else:
                return e

    def term(self):
        e = self.unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.next()
                rhs = self.unary()
                e = _mul(e, rhs) if value == "*" else _div(e, rhs)
            else:
                return e

    def unary(self):
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.next()
            return _neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.next()
            return _pow(base, self.integer_exponent())
        return base

    def integer_exponent(self) -> int:
        sign = 1
        kind, value, offset = self.peek()
        if kind == "op" and value == "-":
            self.next()
            sign = -1
            kind, value, offset = self.peek()
        if kind != "number":
            raise ParseError("expected an integer exponent", offset)
        self.next()
        if value.endswith("i") or "." in value or "e" in value or "E" in value:
            raise ParseError(f"exponent must be an integer literal, got {value!r}", offset)
        return sign * int(value)

    def atom(self):
        kind, value, offset = self.next()
        if kind == "number":
            if value.endswith("i"):
                return Const(complex(0.0, float(value[:-1])))
            return Const(float(value))
        if kind == "name":
            if value == "x":
                return Var()
            if value in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return _FUNCTIONS[value](arg)
            if value in self.bindings:
                return Const(self.bindings[value])
            raise ParseError(f"unknown identifier {value!r}", offset)
        if kind == "op" and value == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ParseError(f"unexpected {value!r}" if kind != "end" else "unexpected end of input", offset)


def parse(text: str, bindings: dict | None = None) -> Expr:
    """Parse source text into an expression tree.

    Parameters
    ----------
    text : str
        Expression source, e.g. ``"k + exp(x)"``.
    bindings : dict, optional
        Maps parameter names to numbers or ``[re, im]`` pairs; resolved to
        complex constants during parsing.

    Raises
    ------
    ParseError
        On syntax errors, unknown identifiers, or non-integer exponents,
        carrying the byte offset of the offending token.
    """
    return _Parser(text, parse_bindings(bindings)).parse()


def differentiate(e: Expr) -> Expr:
    """Exact symbolic derivative d/dx."""
    return e.diff()


def conjugate(e: Expr) -> Expr:
    """Tree whose value is the complex conjugate of e(x) for real x."""
    return e.conj()


def to_source(e: Expr) -> str:
    """Parseable source text; parse(to_source(e)) evaluates identically to e."""
    return str(e)


def evaluate(e: Expr, x: float) -> complex:
    """Evaluate at one real point; raises EvalDomainError at poles/overflow."""
    with np.errstate(all="ignore"):
        value = complex(e._ev(float(x)))
    if not (np.isfinite(value.real) and np.isfinite(value.imag)):
        raise EvalDomainError("non-finite value (pole or overflow)", float(x))
    return value


def _temporary(t, other, x) -> bool:
    """Whether numpy reuses t's buffer for ``t op other`` when t is a fresh temporary
    (of at least NPY_MIN_ELIDE_BYTES, 256 KiB)."""
    return (isinstance(t, np.ndarray) and t is not x and t.nbytes >= 256 * 1024
            and np.result_type(t, other) == t.dtype)


def _walk_order(e, kid_values, x) -> list:
    """e's operand values in the order numpy took them in the recursive walk, where each
    was a fresh temporary: for a sum or product ``a op b`` with only b reusable, ``b op a``
    in b's buffer, unless a is a numpy scalar, which computes ``a op b`` itself.  Complex
    products and NaN payloads of sums depend on the order."""
    if isinstance(e, (Add, Mul)) and _temporary(kid_values[1], kid_values[0], x) and not (
            isinstance(kid_values[0], np.generic) or _temporary(*kid_values, x)):
        return kid_values[::-1]
    return kid_values


def evaluate_array(roots, x: np.ndarray) -> list:
    """The roots on a real array as one DAG: subtrees of one structure (type, children,
    exponent, constant bits, so 0.0 and -0.0 stay apart) are one node, evaluated once in
    the recursion's post-order, so the first EvalDomainError is the recursion's, and
    dropped after its last reader.  Equal roots share one array, which callers must not
    write; a constant root fills x's shape.  Poles are left to the sampling side."""
    x = np.asarray(x, dtype=float)
    nodes, at_key, at_id = [], {}, {}  # post-order (node, kid positions); key -> and id -> position

    def visit(e):
        if id(e) not in at_id:
            kids = tuple([visit(k) for k in e._kids()])
            tag = (struct.pack("<dd", e.value.real, e.value.imag) if isinstance(e, Const)
                   else getattr(e, "n", None))
            p = at_id[id(e)] = at_key.setdefault((type(e), kids, tag), len(nodes))
            if p == len(nodes):
                nodes.append((e, kids))
        return at_id[id(e)]

    at = [visit(e) for e in roots]
    readers = Counter(k for _, kids in nodes for k in kids) + Counter({p: float("inf") for p in at})
    values = [None] * len(nodes)
    with np.errstate(all="ignore"):
        for p, (e, kids) in enumerate(nodes):
            values[p] = e._op(x, *_walk_order(e, [values[k] for k in kids], x))
            for k in kids:
                readers[k] -= 1
                if not readers[k]:
                    values[k] = None
    for p in dict.fromkeys(at):
        v = np.asarray(values[p], dtype=np.complex128)
        values[p] = v if v.shape == x.shape else np.full(x.shape, complex(v), dtype=np.complex128)
    return [values[p] for p in at]
