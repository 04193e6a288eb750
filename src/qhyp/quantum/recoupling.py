"""Level-r recoupling data for the fusion evaluation of colored Jones values.

Everything is built from the real quantized integers [k] = sin(2 pi k / r) /
sin(2 pi / r), k < r, of the level-r theory at odd r.  Colors are folded onto
a <= (r-3)/2 (jones._fold_color), so every factorial read, [k]! for
k <= 2a + 1 < r, is finite and nonzero.

The fusion sum is the Kauffman-Lins recoupling sum with the loop, theta and
tetrahedral prefactors folded into one weight per channel (weights) and a
bare tetrahedral coefficient per channel pair (tet_grid), the decomposition
the mpmath twin jones.fusion_value_mp sums too.  Both sum each coefficient
in one form, once per channel pair i <= j: here in doubles, there as exact
integer dot products of mpmath mantissas, rounded once per sum.  Quantized
factorials overflow doubles long before r reaches interesting sizes, so
here weights and coefficients are carried as (log-magnitude, sign) pairs,
recombined through a max-factored exponential sum.  These real coefficients
are mixed with unit-modulus twist eigenvalues only at the very end.

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
        """(log, sign) grid of the bare tetrahedral coefficients T_ij over
        the channel pairs of weights(a), symmetric in i and j.  For j >= i,

            T_ij = sum over u <= min(i, a-j) of H_i[a+j+u] c_i[u],

        with H_i[s] = G[s] F[s-a-i], c_i[u] = F[u] F[i-u], G[s] = (-1)^s
        [s+1]! / [2a-s]! and F[k] = 1/[k]!^2: the sum fusion_value_mp
        evaluates.  G is zero past s = 2a, so u runs over 0 .. i.
        """
        n = a + 1
        s = np.arange(a, 2 * a + 1)
        # G[s] at index s - a, padded with zeros up to s = 3a
        log_g, sign_g = np.full(2 * a + 1, -np.inf), np.zeros(2 * a + 1, dtype=int)
        log_g[:n] = self.log_fac[s + 1] - self.log_fac[2 * a - s]
        sign_g[:n] = (-1) ** (s % 2) * self.sign_fac[s + 1] * self.sign_fac[2 * a - s]
        log_f = -2 * self.log_fac[:n]
        log, sign = np.empty((n, n)), np.empty((n, n), dtype=int)
        for i in range(n):
            # terms (j - i, u) of row i, with s - a = j + u
            u = np.arange(i + 1)
            k = np.arange(i, n)[:, None] + u
            term_log = log_g[k] + log_f[k - i] + (log_f[u] + log_f[i - u])
            peak = term_log.max(axis=1)
            acc = (sign_g[k] * np.exp(term_log - peak[:, None])).sum(axis=1)
            with np.errstate(divide="ignore"):
                log[i, i:] = log[i:, i] = peak + np.log(np.abs(acc))
            sign[i, i:] = sign[i:, i] = np.sign(acc)
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
