"""Oracles shared by more than one test module."""

import numpy as np
import pytest
from hypothesis import settings


def _gamma_average(f, big_gamma, rel_tol=1e-10, max_refine=18):
    """(1/2G) * integral of f over [-G, G] by refined composite Simpson.

    For f = exp(i*w*gamma) the result is sin(w*G)/(w*G): bounded by
    2/(G*|w|), which is the decay the resolution estimator sweeps on.
    """
    if big_gamma <= 0:
        raise ValueError("big_gamma must be positive")
    m = 128
    prev = None
    for _ in range(max_refine):
        xs = np.linspace(-big_gamma, big_gamma, m + 1)
        ys = np.asarray(f(xs), dtype=np.complex128)
        h = 2 * big_gamma / m
        val = h / 3.0 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-2:2].sum())
        val /= 2 * big_gamma
        if prev is not None and abs(val - prev) <= rel_tol * max(1.0, abs(val)):
            return complex(val)
        prev = val
        m *= 2
    return complex(prev)


@pytest.fixture
def gamma_average():
    """The angle average by quadrature: the oracle for gk's closed form."""
    return _gamma_average


@pytest.fixture
def stencil_passes(monkeypatch):
    """Counts of the stencil passes that ``susy`` and ``deform`` run and of
    the images they form, from the moment the fixture is set up."""
    import susyq.deform
    import susyq.numerics
    import susyq.susy

    counts = {"passes": 0, "images": 0}

    def counted(f, jobs):
        counts["passes"] += 1
        counts["images"] += len(jobs)
        return susyq.numerics.stencil_pass(f, jobs)

    for module in (susyq.susy, susyq.deform):
        monkeypatch.setattr(module, "stencil_pass", counted)
    return counts


@pytest.fixture
def array_evaluations(monkeypatch):
    """The expression nodes evaluated on an array from the moment the fixture
    is set up, in order: each node whose value is an array computed from x
    (x itself and constant subexpressions are not counted)."""
    import susyq.expr

    nodes = []
    for cls in vars(susyq.expr).values():
        if isinstance(cls, type) and issubclass(cls, susyq.expr.Expr) and "_op" in vars(cls):
            def counted(self, x, *kid_values, _op=vars(cls)["_op"]):
                value = _op(self, x, *kid_values)
                if isinstance(value, np.ndarray) and value is not x:
                    nodes.append(self)
                return value

            monkeypatch.setattr(cls, "_op", counted)
    return nodes


# ``--hypothesis-profile=long``: the long fuzz runs of the command line and of
# the float formatter
settings.register_profile("long", max_examples=2000)
