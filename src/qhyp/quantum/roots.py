"""Root-of-unity evaluation contexts.

All invariants in this package are evaluated at the root q = exp(2 pi i / r)
for odd r >= 3, with colored Jones values taken at t = q^2.  The color set
of the level-r theory consists of the (r-1)/2 even integers 0, 2, ..., r-3.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass


@dataclass(frozen=True)
class RootOfUnityContext:
    """Level r with its distinguished roots q = e^(2 pi i / r) and t = q^2."""

    r: int

    def __post_init__(self):
        if self.r < 3 or self.r % 2 == 0:
            raise ValueError("the level r must be an odd integer >= 3")

    @property
    def q(self) -> complex:
        return cmath.exp(2j * cmath.pi / self.r)

    @property
    def t(self) -> complex:
        return cmath.exp(4j * cmath.pi / self.r)

    @property
    def kauffman_A(self) -> complex:
        """The bracket variable A with A^(-4) = t = q^2."""
        return cmath.exp(-1j * cmath.pi / self.r)


__all__ = ["RootOfUnityContext"]
