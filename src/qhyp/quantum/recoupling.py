"""Level-r recoupling data for the fusion evaluation of colored Jones values.

Everything is built from the real quantized integers [k] = sin(2 pi k / r) /
sin(2 pi / r), k < r, of the level-r theory at odd r.  Colors are folded onto
a <= (r-3)/2 (jones._fold_color), so every factorial read, [k]! for
k <= 2a + 1 < r, is finite and nonzero.

The fusion sum is the Kauffman-Lins recoupling sum with the loop, theta and
tetrahedral prefactors folded into one weight per channel (weights) and a
bare tetrahedral coefficient per channel pair (tet_grid), the decomposition
the mpmath twin jones.fusion_value_mp sums too, there as exact integer dot
products of mpmath mantissas, rounded once per sum.  Quantized factorials
overflow doubles long before r reaches interesting sizes, so both are
carried as (log-magnitude, sign) pairs, recombined through a max-factored
exponential sum.  These real coefficients are mixed with unit-modulus twist
eigenvalues only at the very end.

Both twist regions of the double twist template fuse pairs of strands of
one color a, so the closed network has four a-edges and the two channel
edges c = 2i and d = 2j.
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
        sines = np.sin(2 * np.pi * np.arange(r) / r)
        qint = sines / sines[1]
        #: signed [k] for k < r, a list: the figure-eight loop runs on floats
        self.qint = qint.tolist()
        #: {1}^2 = -4 sin^2(2 pi / r), for the figure-eight expansion
        self.brace_sq = -4 * float(sines[1]) ** 2
        self.sign_int = np.sign(qint).astype(int)
        with np.errstate(divide="ignore"):
            self.log_int = np.log(np.abs(qint))
        # factorial tables; index k holds [k]!
        self.log_fac = np.concatenate([[0.0], np.cumsum(self.log_int[1:])])
        self.sign_fac = np.concatenate([[1], np.cumprod(self.sign_int[1:])]).astype(
            int
        )

    # -- the fusion decomposition -------------------------------------------

    def weights(self, a: int) -> tuple[np.ndarray, np.ndarray]:
        """(log, sign) of the channel weights of two fused a-colored strands,

            w_i = (-1)^(a+i) [2i+1] [i]!^2 [a-i]! / [a+i+1]!,

        over the channels c = 2i, i = 0 .. a, of a color a <= (r-3)/2.
        """
        if not 0 <= a <= (self.r - 3) // 2:
            raise ValueError(f"color {a} outside the level-{self.r} half range")
        i = np.arange(a + 1)
        log = (
            self.log_int[2 * i + 1]
            + 2 * self.log_fac[i]
            + self.log_fac[a - i]
            - self.log_fac[a + i + 1]
        )
        sign = (
            (-1) ** ((a + i) % 2)
            * self.sign_int[2 * i + 1]
            * self.sign_fac[a - i]
            * self.sign_fac[a + i + 1]
        )
        return log, sign

    def tet_grid(self, a: int) -> tuple[np.ndarray, np.ndarray]:
        """(log, sign) grid of the bare tetrahedral coefficients T_ij,

            T_ij = sum_s G[s] F[s-a-i] F[s-a-j] F[a+i+j-s],

        with G[s] = (-1)^s [s+1]! / [2a-s]! and F[k] = 1/[k]!^2, over the
        channel pairs of weights(a); s runs from a + max(i, j) to
        min(a+i+j, 2a).
        """
        n = a + 1
        j = np.arange(n)
        log, sign = np.empty((n, n)), np.empty((n, n), dtype=int)
        for i in range(n):
            # one row of channel pairs at a time: terms indexed (s, j)
            smin = a + np.maximum(i, j)
            smax = np.minimum(a + i + j, 2 * a)
            s = np.arange(a + i, int(smax.max()) + 1)[:, None]
            ok = (s >= smin) & (s <= smax)
            s_safe = np.where(ok, s, smin)
            term_log = self.log_fac[s_safe + 1] - (
                2 * self.log_fac[s_safe - a - i]
                + 2 * self.log_fac[s_safe - a - j]
                + 2 * self.log_fac[a + i + j - s_safe]
                + self.log_fac[2 * a - s_safe]
            )
            term_sign = (
                (-1) ** (s % 2) * self.sign_fac[s_safe + 1] * self.sign_fac[2 * a - s_safe]
            )
            term_log = np.where(ok, term_log, -np.inf)
            peak = term_log.max(axis=0)
            acc = (np.where(ok, term_sign, 0) * np.exp(term_log - peak)).sum(axis=0)
            with np.errstate(divide="ignore"):
                log[i] = peak + np.log(np.abs(acc))
            sign[i] = np.sign(acc)
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
