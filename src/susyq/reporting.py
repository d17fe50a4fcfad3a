"""Check records shared by the verification suites.

Every structural identity the package verifies is reported as a named check
with its measured residual and the tolerance it was held to, so reports can
be serialized, diffed, and gated on without re-running anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["CheckResult"]


@dataclass(frozen=True)
class CheckResult:
    check: str
    residual: float
    tolerance: float
    passed: bool

    @staticmethod
    def from_residual(check: str, residual: float, tolerance: float) -> "CheckResult":
        residual = float(residual)
        ok = math.isfinite(residual) and residual < tolerance
        return CheckResult(check, residual, float(tolerance), ok)
