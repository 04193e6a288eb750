"""Monodromy words of fibered double twist knots and their homology action.

The fiber of D(3, 2g) is a genus-g surface with one boundary component,
built by plumbing 2g Hopf bands along a linear chain of curves
c, a_1, b_1, a_2, ..., b_{g-1}, a_g (consecutive curves meet once, all other
pairs are disjoint).  The monodromy is the product of one Dehn twist per
band, with exponent signs +, +, -, +, ..., -, + matching the alternating
continued fraction expansion; the mirror knot D(-2g, -3) carries the
entrywise-inverted word.

Homologically, the 2g chain curves form a basis of the first homology of
the fiber, and each twist acts as a transvection.  The handedness of the
plumbed band alternates with the chain position relative to the word
exponent (a clasp of two positive bands is a trefoil fiber, one of opposite
bands a figure-eight fiber), so the transvection for a letter (curve i,
exponent e) uses the effective exponent e * (-1)^(i+1).  This is the unique
sign convention making the genus-one action have characteristic polynomial
t^2 - 3t + 1, the figure-eight Alexander polynomial, and it is held fixed
for all genera, where it is cross-checked against Fox calculus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .rationals import ContinuedFraction, alternating_cfe
from .twistknots import (
    DoubleTwistKnot,
    LaurentPolynomial,
    alexander,
    fraction_of,
)


def curve_name(index: int) -> str:
    """Chain position -> curve name: 1 is c, then a_1, b_1, a_2, ..."""
    if index == 1:
        return "c"
    if index % 2 == 0:
        return f"a{index // 2}"
    return f"b{index // 2}"


@dataclass(frozen=True)
class TwistWord:
    """A word of Dehn twists on the chain curves of a genus-g fiber."""

    genus: int
    letters: tuple[tuple[int, int], ...]  # (chain index 1..2g, exponent +-1)

    def __post_init__(self):
        if self.genus < 1:
            raise ValueError("genus must be positive")
        for index, exp in self.letters:
            if not 1 <= index <= 2 * self.genus:
                raise ValueError(f"curve index {index} invalid for genus {self.genus}")
            if exp not in (1, -1):
                raise ValueError("twist exponents must be +1 or -1")

    def __str__(self):
        def fmt(index, exp):
            base = f"T[{curve_name(index)}]"
            return base if exp == 1 else base + "^-1"

        return " ".join(fmt(i, e) for i, e in self.letters) or "(empty)"


def monodromy_from_cfe(cfe: ContinuedFraction) -> TwistWord:
    """Twist word of the fiber built from an all-(+-2) even-length CFE.

    Entry i contributes the chain curve i with the exponent given by the
    entry's sign.
    """
    if len(cfe) % 2 != 0 or any(abs(a) != 2 for a in cfe.entries):
        raise ValueError("monodromy needs an all-(+-2) even-length expansion")
    g = len(cfe) // 2
    letters = tuple((i + 1, 1 if a > 0 else -1) for i, a in enumerate(cfe.entries))
    return TwistWord(g, letters)


def monodromy_word(g: int) -> TwistWord:
    """The word T[c] T[a1] T[b1]^-1 T[a2] ... T[b(g-1)]^-1 T[ag] of D(3, 2g),
    read off its alternating expansion."""
    return monodromy_from_cfe(alternating_cfe(g))


def monodromy_word_mirror(g: int) -> TwistWord:
    """The exponent-flipped word of the mirror knots D(-2g, -3), read off
    the negated alternating expansion."""
    return monodromy_from_cfe(ContinuedFraction(-a for a in alternating_cfe(g)))


# ---------------------------------------------------------------------------
# Homology action
# ---------------------------------------------------------------------------


def intersection_form(g: int) -> list[list[int]]:
    """Pairing matrix J of the chain basis: <g_i, g_(i+1)> = 1, rest 0."""
    n = 2 * g
    J = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        J[i][i + 1] = 1
        J[i + 1][i] = -1
    return J


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _mat_mul(A: Sequence[Sequence[int]], B: Sequence[Sequence[int]]):
    n = len(A)
    return [
        [sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)] for i in range(n)
    ]


def _transvection(g: int, index: int, eff_exp: int) -> list[list[int]]:
    """Matrix of x -> x + eff_exp * <x, g_index> * g_index in the chain basis."""
    n = 2 * g
    i = index - 1
    M = _identity(n)
    # <g_j, g_i> is -1 for j = i+1 and +1 for j = i-1
    if i + 1 < n:
        M[i][i + 1] = -eff_exp
    if i - 1 >= 0:
        M[i][i - 1] = eff_exp
    return M


def symplectic_action(word: TwistWord) -> list[list[int]]:
    """Integer matrix of the word's action on H_1 of the fiber.

    Letters act in word order (leftmost first) on column vectors; each
    letter (i, e) is the transvection with effective exponent e * (-1)^(i+1)
    per the band-handedness convention in the module docstring.
    """
    n = 2 * word.genus
    M = _identity(n)
    for index, exp in word.letters:
        eff = exp * (1 if index % 2 == 1 else -1)
        M = _mat_mul(_transvection(word.genus, index, eff), M)
    return M


def is_symplectic(M: Sequence[Sequence[int]], g: int) -> bool:
    J = intersection_form(g)
    Mt = [list(row) for row in zip(*M)]
    return _mat_mul(_mat_mul(Mt, J), M) == J


def char_poly(M: Sequence[Sequence[int]]) -> list[int]:
    """Coefficients [1, c1, ..., cn] of det(tI - M), exactly.

    Faddeev-LeVerrier recursion; all divisions are exact over the integers.
    """
    n = len(M)
    coeffs = [1]
    Nk = _identity(n)
    for k in range(1, n + 1):
        MN = _mat_mul(M, Nk)
        c = -sum(MN[i][i] for i in range(n)) // k
        coeffs.append(c)
        Nk = [[MN[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
    return coeffs


def char_poly_laurent(M: Sequence[Sequence[int]]) -> LaurentPolynomial:
    coeffs = char_poly(M)
    n = len(M)
    return LaurentPolynomial({n - k: coeffs[k] for k in range(n + 1)})


def fibered_monodromy_check(g: int) -> tuple[bool, dict]:
    """Compare the homology action of the genus-g word with the Alexander
    polynomial of D(3, 2g).

    For a fibered knot the characteristic polynomial of the homological
    monodromy equals t^g times the Alexander polynomial, up to sign and
    powers of t.  Both sides are computed by independent routes (transvection
    products here, Fox calculus in twistknots).
    """
    word = monodromy_word(g)
    M = symplectic_action(word)
    cp = char_poly_laurent(M)
    delta = alexander(fraction_of(DoubleTwistKnot(3, 2 * g)))
    ok = is_symplectic(M, g) and cp.equals_up_to_units(delta)
    report = {
        "genus": g,
        "word": str(word),
        "char_poly": cp.terms(),
        "alexander": delta.terms(),
        "symplectic": is_symplectic(M, g),
        "match": cp.equals_up_to_units(delta),
    }
    return ok, report


def homological_stretch(word: TwistWord) -> float:
    """Spectral radius of the homology action.

    A value above 1 certifies that the mapping class is not periodic and
    bounds any pseudo-Anosov dilatation from below; it is a necessary
    condition only, not a proof of the pseudo-Anosov property.
    """
    M = np.array(symplectic_action(word), dtype=float)
    return float(max(abs(np.linalg.eigvals(M))))


__all__ = [
    "TwistWord",
    "curve_name",
    "monodromy_word",
    "monodromy_word_mirror",
    "monodromy_from_cfe",
    "intersection_form",
    "symplectic_action",
    "is_symplectic",
    "char_poly",
    "char_poly_laurent",
    "fibered_monodromy_check",
    "homological_stretch",
]
