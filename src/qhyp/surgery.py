"""Rational surgery presentation calculus.

A surgery presentation is a list of framed link components with rational
coefficients and pairwise linking numbers.  The moves implemented here are
the Rolfsen twist along an unknotted component and the blow-down that
removes a (-1/t)-framed unknot, with the sign convention that t twists along
an unknot u send every other coefficient r to r + t * lk(u, .)^2 and u's own
coefficient c to 1/(1/c + t).  This is the unique convention reproducing
both endpoint labels of the shared-surgery move sequences for the families
D(2n, -3) and D(2n, -2), which is the only testable content of the pictures.

Only coefficients and linking numbers are tracked; planar isotopy is a no-op
at this level, and unknottedness is a caller-asserted flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .rationals import ExactRational, Slope, INFINITY, reciprocal


class UnknownComponentError(KeyError):
    pass


class NotBlowdownableError(ValueError):
    """The coefficient is not of the form -1/t for a nonzero integer t."""


class ExceptionalFillingError(ValueError):
    """The requested parameter gives an exceptional figure-eight filling."""


@dataclass(frozen=True)
class SurgeryComponent:
    """One framed component: id, coefficient, linking numbers, unknot flag."""

    id: str
    coefficient: Slope
    linking: Mapping[str, int] = field(default_factory=dict)
    unknotted: bool = False

    def lk(self, other_id: str) -> int:
        return self.linking.get(other_id, 0)


class SurgeryPresentation:
    """An immutable set of components with symmetric linking numbers."""

    __slots__ = ("components",)

    def __init__(self, components):
        comps = {}
        for c in components:
            if c.id in comps:
                raise ValueError(f"duplicate component id {c.id!r}")
            comps[c.id] = c
        for c in comps.values():
            for other, lk in c.linking.items():
                if other not in comps:
                    raise ValueError(f"linking refers to unknown component {other!r}")
                if comps[other].lk(c.id) != lk:
                    raise ValueError(
                        f"asymmetric linking between {c.id!r} and {other!r}"
                    )
        object.__setattr__(self, "components", comps)

    def __setattr__(self, name, value):
        raise AttributeError("SurgeryPresentation is immutable")

    def __getitem__(self, comp_id: str) -> SurgeryComponent:
        try:
            return self.components[comp_id]
        except KeyError:
            raise UnknownComponentError(comp_id) from None

    def __contains__(self, comp_id: str) -> bool:
        return comp_id in self.components

    def ids(self) -> list[str]:
        return sorted(self.components)

    def __eq__(self, other):
        if not isinstance(other, SurgeryPresentation):
            return NotImplemented
        if self.ids() != other.ids():
            return False
        for i in self.ids():
            a, b = self[i], other[i]
            if a.coefficient != b.coefficient or a.unknotted != b.unknotted:
                return False
            if {k: v for k, v in a.linking.items() if v} != {
                k: v for k, v in b.linking.items() if v
            }:
                return False
        return True

    def to_json(self) -> list[dict]:
        return [
            {
                "id": c.id,
                "coefficient": str(c.coefficient),
                "linking": {k: v for k, v in sorted(c.linking.items()) if v},
                "unknotted": c.unknotted,
            }
            for _, c in sorted(self.components.items())
        ]

    def __repr__(self):
        inner = ", ".join(
            f"{c.id}:{c.coefficient}" for _, c in sorted(self.components.items())
        )
        return f"SurgeryPresentation({inner})"


def rolfsen_twist(
    pres: SurgeryPresentation, twist_id: str, t: int
) -> SurgeryPresentation:
    """Apply t twists along the unknotted component twist_id.

    Every other coefficient r_i becomes r_i + t * lk^2, pairwise linkings
    lk(i, j) become lk(i, j) + t * lk(u, i) * lk(u, j), and the twisted
    component's own coefficient c becomes 1/(1/c + t), so the infinite
    coefficient goes to 1/t and -1/t goes to the infinite coefficient.
    """
    if t == 0:
        raise ValueError("a zero twist does nothing; t must be nonzero")
    u = pres[twist_id]
    if not u.unknotted:
        raise ValueError(f"component {twist_id!r} is not flagged unknotted")
    new_components = []
    for c in pres.components.values():
        if c.id == twist_id:
            inv = reciprocal(u.coefficient)
            # a 0-framed twisting unknot stays 0-framed: 1/(1/0 + t) = 0
            new_coeff = c.coefficient if inv is INFINITY else reciprocal(inv + t)
            new_components.append(
                SurgeryComponent(c.id, new_coeff, dict(c.linking), c.unknotted)
            )
        else:
            lk_u = c.lk(twist_id)
            new_coeff = c.coefficient + t * lk_u * lk_u
            new_linking = dict(c.linking)
            for other_id, lk in c.linking.items():
                if other_id != twist_id:
                    new_linking[other_id] = lk + t * lk_u * pres[other_id].lk(twist_id)
            new_components.append(
                SurgeryComponent(c.id, new_coeff, new_linking, c.unknotted)
            )
    return SurgeryPresentation(new_components)


def _blowdown_twist_count(coefficient: Slope) -> int:
    """The t with coefficient = -1/t, or raise NotBlowdownableError."""
    if coefficient is INFINITY or abs(coefficient.numerator) != 1:
        raise NotBlowdownableError(f"{coefficient} is not of the form -1/t")
    return -coefficient.numerator * coefficient.denominator


def blow_down(pres: SurgeryPresentation, comp_id: str) -> SurgeryPresentation:
    """Remove an unknotted (-1/t)-framed component after twisting it away."""
    t = _blowdown_twist_count(pres[comp_id].coefficient)
    twisted = rolfsen_twist(pres, comp_id, t)
    remaining = [
        SurgeryComponent(
            c.id,
            c.coefficient,
            {k: v for k, v in c.linking.items() if k != comp_id},
            c.unknotted,
        )
        for c in twisted.components.values()
        if c.id != comp_id
    ]
    return SurgeryPresentation(remaining)


# ---------------------------------------------------------------------------
# The two shared-surgery move sequences
# ---------------------------------------------------------------------------

FAMILY_D = "D"
FAMILY_D_PRIME = "D'"


def _family_linking(family: str) -> int:
    if family == FAMILY_D:
        return 2
    if family == FAMILY_D_PRIME:
        return 0
    raise ValueError(f"unknown family {family!r}; use {FAMILY_D!r} or {FAMILY_D_PRIME!r}")


def shared_surgery_moves(family: str, n: int):
    """Replay the move sequence turning a figure-eight surgery into a
    surgery on D(2n, -3) (family "D", linking 2) or D(2n, -2) ("D'",
    linking 0), returning (final slope on the new knot, trace).

    Starting presentation: the figure-eight component at -(4n+1)/n (family
    D) or -1/n (family D'), plus an inserted unknot at the infinite slope
    with the family's linking number.  A single positive twist along the
    inserted unknot makes the figure-eight component an unknot at -1/n and
    puts the inserted component (now the new knot) at 1; blowing down the
    -1/n component leaves the final coefficient.
    """
    if n == 0:
        raise ValueError("n must be nonzero")
    lk = _family_linking(family)
    start_coeff = (
        ExactRational(-(4 * n + 1), n) if family == FAMILY_D else ExactRational(-1, n)
    )
    pres = SurgeryPresentation(
        [
            SurgeryComponent("fig8", start_coeff, {"inserted": lk}),
            SurgeryComponent("inserted", INFINITY, {"fig8": lk}, unknotted=True),
        ]
    )
    trace = [("start", pres)]
    pres = rolfsen_twist(pres, "inserted", 1)
    trace.append(("twist +1 along inserted unknot", pres))
    if pres["fig8"].coefficient != ExactRational(-1, n):
        raise AssertionError("move sequence out of order: expected -1/n framing")
    # the twist untwists the figure-eight component into an unknot
    pres = SurgeryPresentation(
        [
            SurgeryComponent("fig8", pres["fig8"].coefficient, dict(pres["fig8"].linking), unknotted=True),
            pres["inserted"],
        ]
    )
    pres = blow_down(pres, "fig8")
    trace.append(("blow down the -1/n component", pres))
    return pres["inserted"].coefficient, trace


EXCEPTIONAL_FIG8_SLOPES = frozenset(
    [INFINITY] + [ExactRational(k) for k in (0, 1, -1, 2, -2, 3, -3, 4, -4)]
)


def is_exceptional_fig8_slope(s: Slope) -> bool:
    """True on the exceptional set {0, 1/0, +-1, +-2, +-3, +-4} of the
    figure-eight knot; every other filling of its complement is hyperbolic."""
    return s in EXCEPTIONAL_FIG8_SLOPES


def shared_surgery(family: str, n: int) -> tuple[Slope, Slope]:
    """The (knot slope, figure-eight slope) pair shared by D(2n, -3) or
    D(2n, -2) with the figure-eight knot: the final slope of
    shared_surgery_moves and the figure-eight coefficient it starts from,
    both as ExactRational slopes.

    Raises ExceptionalFillingError when that figure-eight slope is
    exceptional (family D at n = -1, family D' at n = +-1), and ValueError
    at n = 0.
    """
    knot_slope, trace = shared_surgery_moves(family, n)
    fig8_slope = trace[0][1]["fig8"].coefficient
    if is_exceptional_fig8_slope(fig8_slope):
        raise ExceptionalFillingError(
            f"n = {n} is excluded for family {family}: the figure-eight slope "
            f"{fig8_slope} is exceptional"
        )
    return ExactRational(knot_slope), fig8_slope


__all__ = [
    "SurgeryComponent",
    "SurgeryPresentation",
    "UnknownComponentError",
    "NotBlowdownableError",
    "ExceptionalFillingError",
    "rolfsen_twist",
    "blow_down",
    "shared_surgery_moves",
    "is_exceptional_fig8_slope",
    "shared_surgery",
    "FAMILY_D",
    "FAMILY_D_PRIME",
]
