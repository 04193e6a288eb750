"""Level-r recoupling data for the fusion evaluation of colored Jones values.

Everything is built from the real quantized integers [k] = sin(2 pi k / r) /
sin(2 pi / r) of the level-r theory at odd r; for odd r these vanish only
when k is a multiple of r, so all admissible networks below are finite and
nonzero exactly where the classical theory says they are.

Quantized factorials overflow doubles long before r reaches interesting
sizes, so all loop, theta, and tetrahedral coefficients are carried as
(log-magnitude, sign) pairs, recombined through a max-factored exponential
sum.  These real coefficients are mixed with unit-modulus twist eigenvalues
only at the very end.

The tetrahedral coefficient implemented is the one needed by the double
twist template: both twist regions fuse pairs of strands of one color a, so
the closed network has four a-edges and the two channel edges c and d.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


class RecouplingLevel:
    """Cached quantized-integer tables and network coefficients at level r."""

    def __init__(self, r: int):
        if r < 3 or r % 2 == 0:
            raise ValueError("level r must be odd and at least 3")
        self.r = r
        k = np.arange(2 * r + 3)
        sines = np.where(k % r == 0, 0.0, np.sin(2 * np.pi * k / r))
        #: signed [k] for k <= 2r + 2, exactly 0 at multiples of r
        self.qint = sines / sines[1]
        #: {k} = t^(k/2) - t^(-k/2) = 2i sin(2 pi / r) [k], for the
        #: figure-eight expansion; exactly 0 at multiples of r
        self.braces = (2j * sines).tolist()
        self.sign_int = np.sign(self.qint).astype(int)
        with np.errstate(divide="ignore"):
            self.log_int = np.log(np.abs(self.qint))
        # factorial tables; index k holds [k]!
        self.log_fac = np.concatenate([[0.0], np.cumsum(self.log_int[1:])])
        self.sign_fac = np.concatenate([[1], np.cumprod(self.sign_int[1:])]).astype(
            int
        )

    # -- elementary quantities ---------------------------------------------

    def loop_value(self, c) -> tuple[np.ndarray, np.ndarray]:
        """(log, sign) of the c-colored loop (-1)^c [c+1], vectorized."""
        c = np.asarray(c)
        sign = (-1) ** (c % 2) * self.sign_int[c + 1]
        return self.log_int[c + 1], sign

    def theta(self, a: int, c) -> tuple[np.ndarray, np.ndarray]:
        """(log, sign) of the theta network with edge colors (a, a, c)."""
        c = np.asarray(c)
        h = c // 2
        m = a - h
        top = a + h + 1
        log = (
            self.log_fac[top]
            + self.log_fac[m]
            + 2 * self.log_fac[h]
            - 2 * self.log_fac[a]
            - self.log_fac[c]
        )
        sign = (
            (-1) ** ((a + h) % 2)
            * self.sign_fac[top]
            * self.sign_fac[m]
            * self.sign_fac[c]
        )
        return log, sign

    def channels(self, a: int) -> np.ndarray:
        """Admissible even fusion channels of two a-colored strands."""
        if not 0 <= a <= self.r - 2:
            raise ValueError(f"color {a} outside the level-{self.r} range")
        cmax = min(2 * a, 2 * (self.r - 2) - 2 * a)
        return np.arange(0, cmax + 1, 2)

    def tet_grid(self, a: int) -> tuple[np.ndarray, np.ndarray]:
        """(log, sign) grids of the tetrahedral network over channel pairs.

        Entry (i, j) is the tetrahedron with opposite edges channels[i] and
        channels[j] and four a-edges, evaluated by the factorial sum over
        the admissible range; terms whose numerator factorial vanishes at
        the root drop out automatically.
        """
        cs = self.channels(a)
        h = cs // 2
        c2 = h[:, None]
        d2 = h[None, :]
        a1 = a + c2  # vertex half-sums (twice each)
        a3 = a + d2
        b12 = a + c2 + d2  # square half-sums (twice)
        b3 = 2 * a
        log_pref = (
            4 * self.log_fac[d2]
            + 4 * self.log_fac[c2]
            + 2 * self.log_fac[a - c2]
            + 2 * self.log_fac[a - d2]
            - 4 * self.log_fac[a]
            - self.log_fac[2 * c2]
            - self.log_fac[2 * d2]
        )
        sign_pref = self.sign_fac[2 * c2] * self.sign_fac[2 * d2]
        smin = np.maximum(a1, a3)
        smax = np.minimum(b12, b3)
        smax_eff = np.minimum(smax, self.r - 2)  # [s+1]! = 0 beyond

        def term(s):
            ok = (s >= smin) & (s <= smax_eff)
            s_safe = np.where(ok, s, smin)
            log = self.log_fac[s_safe + 1] - (
                2 * self.log_fac[s_safe - a1]
                + 2 * self.log_fac[s_safe - a3]
                + 2 * self.log_fac[b12 - s_safe]
                + self.log_fac[b3 - s_safe]
            )
            sign = (
                (-1) ** (s % 2)
                * self.sign_fac[s_safe + 1]
                * self.sign_fac[b3 - s_safe]
            )
            return np.where(ok, log, -np.inf), np.where(ok, sign, 0)

        lo, hi = int(smin.min()), int(smax_eff.max())
        peak = np.full(smin.shape, -np.inf)
        for s in range(lo, hi + 1):
            lg, _ = term(s)
            peak = np.maximum(peak, lg)
        acc = np.zeros(smin.shape)
        for s in range(lo, hi + 1):
            lg, sg = term(s)
            acc += sg * np.exp(np.where(np.isinf(peak), 0.0, lg - peak))
        with np.errstate(divide="ignore"):
            log = log_pref + peak + np.log(np.abs(acc))
        sign = sign_pref * np.sign(acc).astype(int)
        return log, sign

    # -- unit-modulus factors -----------------------------------------------

    def half_twist_phase(self, a: int, c) -> np.ndarray:
        """Eigenvalue of one positive half-twist of two a-strands fused in
        channel c: (-1)^(a - c/2) A^(c(c+2)/2 - a(a+2)) with A = e^(-i pi/r).
        """
        c = np.asarray(c)
        angle = np.pi * ((a - c // 2) - (c * (c + 2) / 2 - a * (a + 2)) / self.r)
        return np.exp(1j * angle)

    def framing(self, a: int) -> complex:
        """Curl factor of an a-colored strand: (-1)^a A^(a(a+2))."""
        return complex(np.exp(1j * np.pi * (a - a * (a + 2) / self.r)))


@lru_cache(maxsize=8)
def recoupling_level(r: int) -> RecouplingLevel:
    return RecouplingLevel(r)


__all__ = ["RecouplingLevel", "recoupling_level"]
