"""The float formatting kernel against Python's own formatter.

Every cell must be byte-identical to ``"{:.17g}".format`` (CSV) and to
``float.__repr__`` (JSON) on every class of double, and the kernel must
certify nearly every cell of a grid or a Gaussian column itself rather
than hand it back to Python.
"""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from susyq import floattext
from susyq.numerics import Grid

FORMATS = {
    "csv": "{:.17g}".format,
    # what json writes for a float, with inf, -inf and nan as strings
    "json": lambda v: repr(v) if math.isfinite(v) else json.dumps(repr(v)),
}


def _doubles(bits) -> np.ndarray:
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


def mismatches(values, style) -> list:
    """(value, kernel text, Python text) for every cell that differs; the
    kernel takes the values however few they are."""
    values = np.asarray(values, dtype=np.float64)
    with mock.patch.object(floattext, "_KERNEL_ROWS", 0):
        text, first, end = floattext.cells(values, style)
    j = np.arange(text.shape[1] + 1)
    keep = (j >= np.asarray(first)[..., None]) & (j < end[:, None]) | (j == text.shape[1])
    lines = np.concatenate([text, np.full((len(values), 1), ord("\n"), np.uint8)], axis=1)
    got = lines[keep].tobytes().decode("ascii")
    fmt = FORMATS[style]
    if got == "".join(fmt(v) + "\n" for v in values.tolist()):
        return []
    return [(v, g, fmt(v)) for v, g in zip(values.tolist(), got.split("\n")) if g != fmt(v)]


def _near(x: float, steps: int = 200) -> np.ndarray:
    """x and the `steps` doubles on each side of it."""
    bits = np.array([x]).view(np.uint64)[0]
    return _doubles(bits + np.arange(-steps, steps + 1, dtype=np.int64).astype(np.uint64))


RNG = np.random.default_rng(20261019)
POWERS = [2.0 ** e for e in range(-1074, 1024)] + [float(f"1e{e}") for e in range(-323, 309)]
INPUTS = {
    "random bit patterns": _doubles(RNG.integers(0, 2 ** 64, 200_000, dtype=np.uint64)),
    "specials": np.concatenate([
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
         2.225073858507201e-308, 1.7976931348623157e308, -1.7976931348623157e308,
         np.inf, -np.inf, np.nan, -np.nan],
        _doubles([0x7FF8000000000001, 0xFFF8000000000123, 0x7FF0000000000001,
                  0x7FFFFFFFFFFFFFFF]),  # NaN payloads, a signalling one among them
    ]),
    "powers of 2 and 10": np.array(POWERS + [-p for p in POWERS]),
    "notation switches": np.concatenate(
        [_near(x) for x in (1e-4, 1e-5, 1e15, 1e16, 1e17)]
        + [np.array([float(s) for s in ("9.9999999999999995e-05", "9.999999999999999e-06",
                                        "9999999999999998", "99999999999999984",
                                        "1e16", "1.0000000000000002e16", "99999999999999999")])]),
    "rounded decimals": np.concatenate(
        [np.round(RNG.uniform(-1000.0, 1000.0, 5000), d) for d in range(16)]),
    "integers": np.concatenate([np.arange(-2000.0, 2001.0),
                                RNG.integers(-10 ** 17, 10 ** 17, 50_000).astype(np.float64),
                                RNG.integers(-10 ** 6, 10 ** 6, 5000) * 10.0 ** RNG.integers(0, 12, 5000)]),
    # odd multiples of 2**-j: exactly written in j decimals, so with 17 or
    # 18 significant digits they tie at 16 or 17 digits
    "dyadic ties": np.concatenate([(RNG.integers(1, 2 ** 24, 1000) | 1) * 2.0 ** -j
                                   for j in range(8, 64)]
                                  + [np.arange(1, 100, 2) * 2.0 ** -j for j in range(1, 90)]),
    **{f"Grid(12, {n}).x": Grid(12.0, n).x for n in (4097, 65537, 262145)},
}


@pytest.mark.parametrize("style", sorted(FORMATS))
@pytest.mark.parametrize("name", list(INPUTS))
def test_cells_match_python(name, style):
    bad = mismatches(INPUTS[name], style)
    assert not bad, f"{len(bad)} mismatches, first {bad[:5]}"


CERTIFIED = {
    "grid": Grid(12.0, 65537).x,
    "gaussian": RNG.standard_normal(65537),
    # exact ties: 18 significant digits rounded to 17, and 17 rounded to
    # repr's 16 on [8, 10), where both 16-digit neighbours read back
    "ties at 17 digits": (RNG.integers(2 ** 17, 10 * 2 ** 17, 4096) | 1) * 2.0 ** -17,
    "ties at 16 digits": (RNG.integers(8 * 2 ** 16, 10 * 2 ** 16, 4096) | 1) * 2.0 ** -16,
}


@pytest.mark.parametrize("style", sorted(FORMATS))
@pytest.mark.parametrize("name", list(CERTIFIED))
def test_the_kernel_certifies_nearly_every_cell(name, style):
    """A kernel that handed every cell back to Python would still match;
    this is what keeps the fast path fast."""
    values = CERTIFIED[name]
    assert not mismatches(values, style)
    _, _, certified = floattext._digits(values, style)
    assert np.mean(certified | (values == 0.0)) >= 0.99


_DOUBLES = st.one_of(
    st.floats(width=64),
    st.integers(0, 2 ** 64 - 1).map(lambda b: float(_doubles([b])[0])),
    st.builds(lambda m, e: float(f"{m}e{e}"), st.integers(-10 ** 17, 10 ** 17),
              st.integers(-30, 30)),  # short decimals, and their ties
)


@settings(deadline=None)
@given(st.lists(_DOUBLES, min_size=1, max_size=64), st.sampled_from(sorted(FORMATS)))
def test_drawn_doubles_match_python(values, style):
    assert mismatches(values, style) == []
