"""Surgery slopes and finite continued fractions.

Slopes on a knot-exterior boundary torus live in Q together with the single
point at infinity (written ``1/0``), which labels the meridional filling.
Finite slopes are ``fractions.Fraction`` values and the infinite one is the
sentinel ``INFINITY``, so continued fractions of any length evaluate exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence


class RationalError(ArithmeticError):
    """Arithmetic was requested outside the domain where it is defined."""


class RejectedSequenceError(ValueError):
    """A continued fraction hit a division by zero while evaluating."""


class _Infinity:
    """The infinite slope 1/0, equal only to itself.

    It supports only negation (a fixed point) and equality; other arithmetic
    and ordering raise RationalError, since the surgery calculus never needs
    them.
    """

    __slots__ = ()
    numerator = 1
    denominator = 0

    def __neg__(self):
        return self

    def __str__(self):
        return "1/0"

    def __repr__(self):
        return "INFINITY"

    def _undefined(self, *_):
        raise RationalError("arithmetic is not defined for the infinite slope")

    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = _undefined
    __truediv__ = __rtruediv__ = __lt__ = __le__ = __gt__ = __ge__ = _undefined
    __float__ = _undefined


INFINITY = _Infinity()


class ExactRational(Fraction):
    """A slope p/q as a Fraction: p/0 gives INFINITY, 0/0 is rejected.

    Arithmetic returns plain Fractions, which compare and hash like the
    ExactRationals of the same value.
    """

    __slots__ = ()

    def __new__(cls, numerator, denominator=None):
        if denominator == 0:
            if numerator == 0:
                raise RationalError("0/0 is not a slope")
            return INFINITY
        return super().__new__(cls, numerator, denominator)

    @classmethod
    def parse(cls, text: str) -> Slope:
        """Parse "p/q" or "p" with integers p, q; "1/0" is the infinite slope."""
        text = text.strip()
        if "/" in text:
            p, q = text.split("/", 1)
            return cls(int(p), int(q))
        return cls(int(text))


#: Constructor of slopes; a slope is a Fraction or INFINITY.
Slope = ExactRational


def reciprocal(s: Slope) -> Slope:
    """1/s, extended by 1/0 = INFINITY and 1/INFINITY = 0."""
    return ExactRational(s.denominator, s.numerator)


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
    tail = ExactRational(0)
    for a in reversed(entries):
        level = tail + a
        if level.numerator == 0:
            raise RejectedSequenceError(
                f"continued fraction {list(entries)} divides by zero at entry {a}"
            )
        tail = reciprocal(level)
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
    if slope is INFINITY:
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
        inv = reciprocal(tail)
        tail = INFINITY if inv is INFINITY else a - inv
    return tail
