"""Exact rational arithmetic, surgery slopes, and finite continued fractions.

Slopes on a knot-exterior boundary torus live in Q together with the single
point at infinity (written ``1/0``), which labels the meridional filling.
Everything here is exact: numerators and denominators are Python integers,
so continued fractions of any length evaluate without overflow or rounding.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Sequence


class RationalError(ArithmeticError):
    """Arithmetic was requested outside the domain where it is defined."""


class RejectedSequenceError(ValueError):
    """A continued fraction hit a division by zero while evaluating."""


class ExactRational:
    """A reduced fraction p/q with q >= 0, plus the single value 1/0.

    Instances are immutable and hashable.  The infinite slope supports only
    negation (a fixed point), equality, and reciprocal; other arithmetic on
    it raises RationalError, since the surgery calculus never needs it.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator, denominator=1):
        if isinstance(numerator, ExactRational):
            if denominator != 1:
                raise ValueError("cannot rescale an ExactRational at construction")
            object.__setattr__(self, "numerator", numerator.numerator)
            object.__setattr__(self, "denominator", numerator.denominator)
            return
        numerator = int(numerator)
        denominator = int(denominator)
        if denominator == 0:
            if numerator == 0:
                raise RationalError("0/0 is not a slope")
            numerator = 1
        else:
            if denominator < 0:
                numerator, denominator = -numerator, -denominator
            g = gcd(abs(numerator), denominator)
            if g > 1:
                numerator //= g
                denominator //= g
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)

    def __setattr__(self, name, value):
        raise AttributeError("ExactRational is immutable")

    # -- predicates ---------------------------------------------------------

    @property
    def is_infinite(self) -> bool:
        return self.denominator == 0

    def _require_finite(self, op: str) -> None:
        if self.is_infinite:
            raise RationalError(f"{op} is not defined for the infinite slope")

    # -- arithmetic ---------------------------------------------------------

    def __neg__(self) -> "ExactRational":
        if self.is_infinite:
            return self
        return ExactRational(-self.numerator, self.denominator)

    def reciprocal(self) -> "ExactRational":
        """1/x, extended by 1/0 = infinity and 1/infinity = 0."""
        if self.is_infinite:
            return ExactRational(0)
        if self.numerator == 0:
            return INFINITY
        return ExactRational(self.denominator, self.numerator)

    def _coerce(self, other):
        if isinstance(other, ExactRational):
            return other
        if isinstance(other, int):
            return ExactRational(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._require_finite("addition")
        other._require_finite("addition")
        return ExactRational(
            self.numerator * other.denominator + other.numerator * self.denominator,
            self.denominator * other.denominator,
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._require_finite("multiplication")
        other._require_finite("multiplication")
        return ExactRational(
            self.numerator * other.numerator, self.denominator * other.denominator
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (
            self.numerator == other.numerator
            and self.denominator == other.denominator
        )

    def __hash__(self):
        return hash((self.numerator, self.denominator))

    def __lt__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._require_finite("comparison")
        other._require_finite("comparison")
        return self.numerator * other.denominator < other.numerator * self.denominator

    def __le__(self, other):
        return self == other or self < other

    def __abs__(self):
        if self.is_infinite:
            return self
        return ExactRational(abs(self.numerator), self.denominator)

    def __float__(self):
        self._require_finite("float conversion")
        return self.numerator / self.denominator

    # -- formatting ---------------------------------------------------------

    def __str__(self):
        if self.is_infinite:
            return "1/0"
        if self.denominator == 1:
            return str(self.numerator)
        return f"{self.numerator}/{self.denominator}"

    def __repr__(self):
        return f"ExactRational({self})"

    @classmethod
    def parse(cls, text: str) -> "ExactRational":
        """Parse "p/q" or "p"; "1/0" denotes the infinite slope."""
        text = text.strip()
        if "/" in text:
            p, q = text.split("/", 1)
            return cls(int(p), int(q))
        return cls(int(text))


#: A slope p/q in Q plus 1/0; slopes of the form p/1 print as "p".
Slope = ExactRational

INFINITY = ExactRational(1, 0)
ZERO = ExactRational(0)


def negate_slope(s: Slope) -> Slope:
    """p/q -> -p/q, fixing 0 and the infinite slope."""
    return -s


class ContinuedFraction:
    """A finite continued fraction [a_1, ..., a_k] with nonzero integer entries.

    The value is 1/(a_1 + 1/(a_2 + ... + 1/a_k)).  Construction evaluates the
    sequence and rejects it if any intermediate division by zero occurs, so a
    stored instance always has a well-defined exact value.
    """

    __slots__ = ("entries", "_value")

    def __init__(self, entries: Iterable[int]):
        entries = tuple(int(a) for a in entries)
        if not entries:
            raise ValueError("a continued fraction needs at least one entry")
        if any(a == 0 for a in entries):
            raise ValueError("continued fraction entries must be nonzero")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_value", _evaluate(entries))

    def __setattr__(self, name, value):
        raise AttributeError("ContinuedFraction is immutable")

    def value(self) -> ExactRational:
        return self._value

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other):
        return isinstance(other, ContinuedFraction) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"ContinuedFraction({list(self.entries)})"

    def __str__(self):
        return "[" + ", ".join(str(a) for a in self.entries) + "]"


def _evaluate(entries: Sequence[int]) -> ExactRational:
    # Evaluate from the innermost level outward; tail holds 1/(a_i + ...).
    tail = ZERO
    for a in reversed(entries):
        level = tail + a
        if level.numerator == 0:
            raise RejectedSequenceError(
                f"continued fraction {list(entries)} divides by zero at entry {a}"
            )
        tail = level.reciprocal()
    return tail


def cfe_eval(cfe: ContinuedFraction) -> ExactRational:
    """Exact value of [a_1, ..., a_k] in lowest terms."""
    return cfe.value()


def alternating_cfe(g: int) -> ContinuedFraction:
    """The length-2g expansion [2, 2, -2, 2, ..., -2, 2] of 2g/(6g-1).

    The sign alternates from the second entry onward; entry i is 2 for i = 1
    and (-1)^i * 2 afterwards.
    """
    if g < 1:
        raise ValueError("genus must be a positive integer")
    entries = [2] + [2 * (-1) ** i for i in range(2, 2 * g + 1)]
    return ContinuedFraction(entries)


def minus_cfe(slope: Slope) -> list[int]:
    """Expand a finite slope as p/q = a_1 - 1/(a_2 - 1/(... - 1/a_k)).

    This is the expansion used to present a rational filling as a chain of
    integer-framed unknots.  Nearest-integer steps keep the chain short.
    """
    if slope.is_infinite:
        raise RationalError("the infinite slope has no surgery chain")
    p, q = slope.numerator, slope.denominator
    entries = []
    while q != 0:
        # nearest integer to p/q, ties rounded toward +infinity
        a = (2 * p + q) // (2 * q)
        entries.append(a)
        p, q = q, a * q - p
        if q < 0:
            p, q = -p, -q
    return entries


def evaluate_minus_cfe(entries: Sequence[int]) -> Slope:
    """Value of a_1 - 1/(a_2 - 1/(... - 1/a_k)); inverse of minus_cfe.

    Evaluated projectively: a - 1/0 is the infinite slope, 1/(1/0) is 0.
    """
    if not entries:
        raise ValueError("empty chain")
    tail = INFINITY
    for a in reversed(entries):
        inv = tail.reciprocal()
        tail = INFINITY if inv.is_infinite else ExactRational(a) - inv
    return tail
