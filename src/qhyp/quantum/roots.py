"""Root-of-unity evaluation contexts.

All invariants in this package are evaluated at the root q = exp(2 pi i / r)
for odd r >= 3, with colored Jones values taken at t = q^2.  The color set
of the level-r theory consists of the (r-1)/2 even integers 0, 2, ..., r-3.
"""

from __future__ import annotations

import cmath
import math
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

    @property
    def color_set(self) -> tuple[int, ...]:
        """The even colors 0, 2, ..., r-3; there are (r-1)/2 of them."""
        return tuple(range(0, self.r - 2, 2))

    def t_half_power(self, k: int) -> complex:
        """t^(k/2) = q^k, half-integer powers taken through q."""
        return cmath.exp(2j * cmath.pi * k / self.r)


def quantum_integer(n: int, ctx: RootOfUnityContext) -> float:
    """The quantized integer [n] = (t^n - t^-n)/(t - t^-1) at t = q^2.

    Equals sin(4 pi n / r) / sin(4 pi / r); real, with [0] = 0 and [1] = 1.
    """
    return math.sin(4 * math.pi * n / ctx.r) / math.sin(4 * math.pi / ctx.r)


__all__ = ["RootOfUnityContext", "quantum_integer"]
