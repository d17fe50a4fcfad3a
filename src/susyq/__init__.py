"""Factorized non-Hermitian Schrodinger operators on the line.

A numpy library (plus a small CLI) for supersymmetric factorizations built
from two independent superpotentials, their four associated Hamiltonians,
deformed supersymmetry generated by bounded exponential weights, and
action-labelled bicoherent state families over biorthogonal eigenbases.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .expr import *
from .numerics import *
from .reporting import *
from .susy import *
from .models import *
from .deform import *
from .gk import *
from .suites import *

# each module's __all__ is the one list of its public names
__all__ = ["__version__"]
__all__ += expr.__all__
__all__ += numerics.__all__
__all__ += reporting.__all__
__all__ += susy.__all__
__all__ += models.__all__
__all__ += deform.__all__
__all__ += gk.__all__
__all__ += suites.__all__
