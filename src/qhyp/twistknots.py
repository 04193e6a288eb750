"""Double twist knots and their two-bridge data.

A double twist knot D(m, n) has a diagram with two twist regions carrying m
and n half-twists; it is the two-bridge knot of the fraction n/(mn - 1).
This module computes that fraction, detects fiberedness through all-(+-2)
continued fraction expansions, and computes Alexander polynomials by Fox
calculus on the two-generator presentation of the knot group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .rationals import (
    INFINITY,
    ContinuedFraction,
    ExactRational,
    alternating_cfe,
    reciprocal,
)


class NotTwoBridgeKnotError(ValueError):
    """The given parameters describe an unknot or a two-component link."""


class DoubleTwistKnot:
    """D(m, n): m vertical and n horizontal half-twists.

    D(m, n) and D(n, m) are the same knot; equality and hashing use the
    lexicographically ordered pair while the stored order is preserved so
    the fraction formula n/(mn - 1) reads off the constructor arguments.
    """

    __slots__ = ("m", "n")

    def __init__(self, m: int, n: int):
        object.__setattr__(self, "m", int(m))
        object.__setattr__(self, "n", int(n))

    def __setattr__(self, name, value):
        raise AttributeError("DoubleTwistKnot is immutable")

    def canonical_pair(self) -> tuple[int, int]:
        return min((self.m, self.n), (self.n, self.m))

    def __eq__(self, other):
        if not isinstance(other, DoubleTwistKnot):
            return NotImplemented
        return self.canonical_pair() == other.canonical_pair()

    def __hash__(self):
        return hash(self.canonical_pair())

    def __repr__(self):
        return f"DoubleTwistKnot({self.m}, {self.n})"

    def __str__(self):
        return f"D({self.m}, {self.n})"

    @property
    def is_unknot(self) -> bool:
        """True for the members of the family that are unknotted.

        Since gcd(n, mn - 1) = 1 the fraction n/(mn - 1) is already reduced,
        so D(m, n) is unknotted exactly when |mn - 1| <= 1: that is mn = 0
        (a zero twist count), mn = 1 (the infinite fraction), or mn = 2
        (fraction with denominator 1, e.g. D(1, 2)).
        """
        return self.m * self.n in (0, 1, 2)

    @property
    def is_link(self) -> bool:
        """True when both twist counts are odd (a two-component link)."""
        return self.m % 2 != 0 and self.n % 2 != 0


def mirror(knot: DoubleTwistKnot) -> DoubleTwistKnot:
    """The mirror image D(-m, -n); its CFEs are entrywise negated."""
    return DoubleTwistKnot(-knot.m, -knot.n)


@dataclass(frozen=True)
class TwoBridgeFraction:
    """A two-bridge knot fraction with odd positive denominator.

    The fraction beta/alpha determines the knot; beta and beta' describe the
    same knot exactly when beta' = beta or beta * beta' = 1 modulo alpha.
    """

    fraction: ExactRational

    def __post_init__(self):
        f = self.fraction
        if f is INFINITY or f.numerator == 0:
            raise NotTwoBridgeKnotError(f"{f} is not a two-bridge knot fraction")
        if f.denominator % 2 == 0:
            raise NotTwoBridgeKnotError(
                f"{f} has even denominator (a two-bridge link, not a knot)"
            )
        if f.denominator == 1:
            raise NotTwoBridgeKnotError(f"{f} describes the unknot")
        if abs(f.numerator) > f.denominator:
            # shift into (-1, 1) without changing the knot
            object.__setattr__(
                self,
                "fraction",
                ExactRational(f.numerator % f.denominator, f.denominator),
            )

    @property
    def numerator(self) -> int:
        return self.fraction.numerator

    @property
    def denominator(self) -> int:
        return self.fraction.denominator

    def representatives(self) -> list[ExactRational]:
        """The four canonical fractions describing this knot.

        With b0 = beta mod alpha and b1 its inverse mod alpha, these are
        b0/alpha, (b0-alpha)/alpha, b1/alpha, (b1-alpha)/alpha.  Continued
        fraction expansions depend on the representative, knot invariants
        do not.
        """
        alpha = self.denominator
        b0 = self.numerator % alpha
        b1 = pow(b0, -1, alpha)
        reps = []
        for b in (b0, b0 - alpha, b1, b1 - alpha):
            r = ExactRational(b, alpha)
            if r not in reps:
                reps.append(r)
        return reps

    def __str__(self):
        return str(self.fraction)


def fraction_of(knot: DoubleTwistKnot) -> TwoBridgeFraction:
    """The two-bridge fraction n/(mn - 1) of D(m, n), reduced.

    Agrees with the value of the continued fraction [m, -n].  Unknots and
    two-component links in the family are rejected.
    """
    if knot.is_link:
        raise NotTwoBridgeKnotError(f"{knot} is a two-component link")
    if knot.is_unknot:
        raise NotTwoBridgeKnotError(f"{knot} is the unknot, not a two-bridge knot")
    return TwoBridgeFraction(ExactRational(knot.n, knot.m * knot.n - 1))


def _peel_all_two(value: ExactRational) -> Optional[list[int]]:
    """Greedy expansion of value into entries +-2, or None if impossible.

    At each step exactly one of a = +-2 can satisfy |1/v - a| < 1; recurse on
    v' = 1/v - a until v' = 0.  Denominators strictly decrease, so this
    terminates.
    """
    entries = []
    v = value
    while v.numerator != 0:
        inv = reciprocal(v)
        candidate = None
        for a in (2, -2):
            diff = inv - a
            if abs(diff.numerator) < diff.denominator:
                candidate = a
                v = diff
                break
        if candidate is None:
            return None
        entries.append(candidate)
    return entries


def fibered_cfe(fraction: TwoBridgeFraction) -> Optional[ContinuedFraction]:
    """An all-(+-2) even-length CFE for the knot, or None if it is not fibered.

    A two-bridge knot is fibered exactly when one of its representative
    fractions peels completely into entries +-2 with an even number of
    entries; all four canonical representatives are tried in order.
    """
    for rep in fraction.representatives():
        entries = _peel_all_two(rep)
        if entries is not None and len(entries) % 2 == 0 and entries:
            return ContinuedFraction(entries)
    return None


def fiber_genus(cfe: ContinuedFraction) -> int:
    """Genus k/2 of the fiber surface of an all-(+-2) length-k expansion."""
    if any(abs(a) != 2 for a in cfe.entries):
        raise ValueError("fiber genus needs an all-(+-2) expansion")
    if len(cfe) % 2 != 0:
        raise ValueError("fiber genus needs an even-length expansion")
    return len(cfe) // 2


# ---------------------------------------------------------------------------
# Laurent polynomials over Z
# ---------------------------------------------------------------------------


class LaurentPolynomial:
    """An integer Laurent polynomial stored as {exponent: coefficient}."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        if coeffs:
            for e, c in dict(coeffs).items():
                if c:
                    clean[int(e)] = int(c)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPolynomial is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, exponent: int) -> int:
        return self.coeffs.get(exponent, 0)

    def __eq__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def shift(self, k: int) -> "LaurentPolynomial":
        """Multiply by t^k."""
        return LaurentPolynomial({e + k: c for e, c in self.coeffs.items()})

    def min_exp(self) -> int:
        return min(self.coeffs)

    def max_exp(self) -> int:
        return max(self.coeffs)

    def normalized(self) -> "LaurentPolynomial":
        """Symmetrize about exponent 0 and make the top coefficient positive.

        This is the canonical representative under multiplication by +-t^k;
        it exists only when the exponent span is even, which holds for every
        knot Alexander polynomial.
        """
        if self.is_zero:
            raise ValueError("cannot normalize the zero polynomial")
        span = self.max_exp() - self.min_exp()
        if span % 2 != 0:
            raise ValueError("odd exponent span cannot be symmetrized")
        mid = (self.max_exp() + self.min_exp()) // 2
        sign = 1 if self[self.max_exp()] > 0 else -1
        return LaurentPolynomial({e - mid: sign * c for e, c in self.coeffs.items()})

    def equals_up_to_units(self, other: "LaurentPolynomial") -> bool:
        """Equality up to multiplication by +-t^k."""
        return self.normalized() == other.normalized()

    def evaluate_int(self, t: int) -> int:
        """Exact evaluation at a nonzero integer, cleared of t powers.

        Returns p(t) * t^(-min_exp), an integer, so that p(1) and p(-1) make
        sense for Laurent polynomials.
        """
        if self.is_zero:
            return 0
        shifted = self.shift(-self.min_exp())
        return sum(c * t**e for e, c in shifted.coeffs.items())

    def terms(self) -> list[tuple[int, int]]:
        """Sorted (exponent, coefficient) pairs; the JSON interchange form."""
        return sorted(self.coeffs.items())

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for e, c in sorted(self.coeffs.items(), reverse=True):
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                power = "t" if e == 1 else f"t^{e}"
                body = power if mag == 1 else f"{mag}*{power}"
            parts.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def __repr__(self):
        return f"LaurentPolynomial({self})"


def is_monic(poly: LaurentPolynomial) -> bool:
    """True when the leading coefficient is +-1."""
    if poly.is_zero:
        raise ValueError("the zero polynomial has no leading coefficient")
    return abs(poly[poly.max_exp()]) == 1


# ---------------------------------------------------------------------------
# Alexander polynomial by Fox calculus
# ---------------------------------------------------------------------------


def alexander(fraction: TwoBridgeFraction) -> LaurentPolynomial:
    """Alexander polynomial of the two-bridge knot of the given fraction.

    Uses the two-generator presentation < a, b | a w = w b > with
    w = b^e1 a^e2 ... a^e(p-1) and e_i = (-1)^floor(i q / p), where p is the
    odd denominator and q an odd representative of the numerator mod p.
    Fox differentiation of the relator and abelianization a, b -> t give
    Delta(t) = 1 + (t - 1) * d(w)/d(a) evaluated at t, which is returned in
    the symmetric top-coefficient-positive normal form.

    The odd-q representative matters: the sign word of an even q presents a
    different group.  This choice reproduces the closed form for all twist
    knots and the genus-one Seifert matrix determinant.
    """
    p = fraction.denominator
    q = fraction.numerator % p
    if q % 2 == 0:
        q -= p
    # phi(dw/da) is a sum over the a-letters of w of eps * t^(prefix
    # exponent sum); each term eps * t^k adds (t - 1) * eps * t^k to Delta
    delta = {0: 1}
    prefix = 0
    for i in range(1, p):
        eps = (-1) ** ((i * q) // p)
        if i % 2 == 0:
            k = prefix if eps == 1 else prefix - 1
            delta[k + 1] = delta.get(k + 1, 0) + eps
            delta[k] = delta.get(k, 0) - eps
        prefix += eps
    return LaurentPolynomial(delta).normalized()


def alexander_genus1_seifert(a: int, b: int) -> LaurentPolynomial:
    """Independent oracle: Alexander polynomial of D(2a, 2b) from its
    genus-one Seifert surface.

    The two bands carry a and b full twists and the Seifert matrix is
    V = [[a, 1], [0, b]]; the polynomial is det(V - t V^T) normalized.
    """
    if a == 0 or b == 0:
        raise ValueError("D(2a, 2b) with a zero twist count is the unknot")
    # det([[a(1-t), 1], [-t, b(1-t)]]) = a*b*(1-t)^2 + t
    poly = LaurentPolynomial({0: a * b, 1: -2 * a * b + 1, 2: a * b})
    return poly.normalized()


def twist_knot_alexander(n: int) -> LaurentPolynomial:
    """Closed form n*t - (2n+1) + n/t for D(2n, -2), normalized."""
    if n == 0:
        raise ValueError("n = 0 gives the unknot")
    return LaurentPolynomial({1: n, 0: -(2 * n + 1), -1: n}).normalized()


__all__ = [
    "DoubleTwistKnot",
    "TwoBridgeFraction",
    "LaurentPolynomial",
    "NotTwoBridgeKnotError",
    "mirror",
    "fraction_of",
    "fibered_cfe",
    "fiber_genus",
    "alexander",
    "alexander_genus1_seifert",
    "twist_knot_alexander",
    "is_monic",
    "alternating_cfe",
]
