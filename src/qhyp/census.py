"""Embedded census data: twist-knot names and shared-filling volume tables.

Two CSV resources are compiled into the package: the identification of the
low-crossing knots D(2n, -3) and D(2n, -2) with Rolfsen names, and the table
of census knot complements (at most nine tetrahedra) sharing a Dehn filling
with the figure-eight complement, together with the slopes on both sides and
the volumes involved.  Volumes are kept verbatim as printed, as decimal
strings.

The leading integer of a census name K<t>_<i> is the tetrahedron count t of
the complement's triangulation, which gives the upper bound v_oct * t for
the growth rate of its Turaev-Viro invariants; the filled volume is the
matching lower bound.  Both inequalities are checked row by row.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from importlib import resources
from typing import Optional

from .rationals import Slope, ExactRational
from .surgery import (
    FAMILY_D,
    FAMILY_D_PRIME,
    ExceptionalFillingError,
    shared_surgery,
)
from .twistknots import DoubleTwistKnot

#: Volume of the regular ideal octahedron.
V_OCT = 3.6638

_NAME_RE = re.compile(r"^K(\d+)_(\d+)$")


class UnknownRowError(KeyError):
    pass


@dataclass(frozen=True)
class KnotTableRow:
    family: str  # "D" for D(2n, -3), "D'" for D(2n, -2)
    n: int
    rolfsen_name: str


@dataclass(frozen=True)
class CensusRow:
    census_name: str
    vol_complement_str: str
    slope_on_knot: Optional[Slope]
    slope_on_fig8: Optional[Slope]
    vol_filled_str: str
    knot_name: Optional[str]

    @property
    def vol_complement(self) -> float:
        return float(self.vol_complement_str)

    @property
    def vol_filled(self) -> Optional[float]:
        return None if self.vol_filled_str == "-" else float(self.vol_filled_str)

    @property
    def has_filling(self) -> bool:
        return self.slope_on_knot is not None


def tetrahedra(census_name: str) -> int:
    """Tetrahedron count encoded in the leading integer of K<t>_<i>."""
    m = _NAME_RE.match(census_name.strip())
    if not m:
        raise ValueError(f"malformed census name {census_name!r}")
    return int(m.group(1))


def _read_resource(name: str) -> str:
    return resources.files("qhyp.data").joinpath(name).read_text(encoding="utf-8")


def _parse_slope(text: str) -> Optional[Slope]:
    text = text.strip()
    return None if text == "-" else ExactRational.parse(text)


def _load_names() -> list[KnotTableRow]:
    rows = []
    reader = csv.DictReader(io.StringIO(_read_resource("twist_knot_names.csv")))
    for rec in reader:
        rows.append(KnotTableRow(rec["family"], int(rec["n"]), rec["rolfsenName"]))
    return rows


def _load_census() -> list[CensusRow]:
    rows = []
    reader = csv.DictReader(io.StringIO(_read_resource("census_fillings.csv")))
    for rec in reader:
        rows.append(
            CensusRow(
                census_name=rec["censusName"],
                vol_complement_str=rec["volComplement"],
                slope_on_knot=_parse_slope(rec["slopeOnK"]),
                slope_on_fig8=_parse_slope(rec["slopeOn41"]),
                vol_filled_str=rec["volFilled"],
                knot_name=rec["knotName"] or None,
            )
        )
    return rows


_NAME_ROWS = _load_names()
_CENSUS_ROWS = _load_census()


def census_rows() -> list[CensusRow]:
    return list(_CENSUS_ROWS)


def lookup(family: str, n: int) -> KnotTableRow:
    """Rolfsen name of D(2n, -3) (family "D") or D(2n, -2) (family "D'")."""
    for row in _NAME_ROWS:
        if row.family == family and row.n == n:
            return row
    raise UnknownRowError(f"no table entry for family {family!r}, n = {n}")


def identify_family(knot: DoubleTwistKnot) -> Optional[tuple[str, int]]:
    """(family, n) when the knot is literally D(2n, -3) or D(2n, -2)."""
    for a, b in ((knot.m, knot.n), (knot.n, knot.m)):
        if b == -3 and a % 2 == 0 and a != 0:
            return "D", a // 2
        if b == -2 and a % 2 == 0 and a != 0:
            return "D'", a // 2
    return None


def rolfsen_name(knot: DoubleTwistKnot) -> Optional[str]:
    """Rolfsen name of a tabulated D or D' knot, None for any other knot."""
    membership = identify_family(knot)
    return next(
        (row.rolfsen_name for row in _NAME_ROWS if (row.family, row.n) == membership),
        None,
    )


def volume_targets(knot: DoubleTwistKnot, slope: Optional[Slope]) -> Optional[dict]:
    """Census name and volumes of a tabulated knot, None for any other knot.

    The knot's first row names its complement.  Each row reads
    K(slopeOnK) = 4_1(slopeOn41), so a knot's filling sits on the row of its
    slope in the slopeOnK column, and the figure-eight's own fillings in the
    slopeOn41 column, up to sign since 4_1 is amphichiral.  vol_filled is
    None when no slope is given or no row lists it.
    """
    name = rolfsen_name(knot)
    rows = [row for row in _CENSUS_ROWS if name is not None and row.knot_name == name]
    if not rows:
        return None
    if slope is None:
        fillings = []
    elif name == "4_1":
        fillings = [row for row in _CENSUS_ROWS if row.slope_on_fig8 in (slope, -slope)]
    else:
        fillings = [row for row in rows if row.slope_on_knot == slope]
    return {
        "name": rows[0].census_name,
        "vol_complement": rows[0].vol_complement,
        "vol_filled": fillings[0].vol_filled if fillings else None,
    }


def find_all_shared(census_name: str) -> list[CensusRow]:
    """Every census row for the given name (K3_2 has two filling rows)."""
    rows = [r for r in _CENSUS_ROWS if r.census_name == census_name]
    if not rows:
        raise UnknownRowError(f"no census row named {census_name!r}")
    return rows


@dataclass(frozen=True)
class BoundCheck:
    """Outcome of the two volume inequalities for one census row."""

    census_name: str
    passed: bool
    vacuous: bool
    upper_bound: float  # v_oct * tetrahedra
    upper_margin: Optional[float]  # upper_bound - vol_filled
    filling_margin: Optional[float]  # vol_complement - vol_filled

    def describe(self) -> str:
        if self.vacuous:
            return f"{self.census_name}: no shared filling listed (vacuous pass)"
        status = "pass" if self.passed else "FAIL"
        return (
            f"{self.census_name}: {status} "
            f"(upper margin {self.upper_margin:.6f}, "
            f"filling margin {self.filling_margin:.6f})"
        )


def check_volume_bounds(row: CensusRow) -> BoundCheck:
    """Check vol_filled <= v_oct * t and vol_filled < vol_complement.

    Rows without a listed filling (the figure-eight row itself) pass
    vacuously and are flagged as such.
    """
    upper = V_OCT * tetrahedra(row.census_name)
    if row.vol_filled is None:
        return BoundCheck(row.census_name, True, True, upper, None, None)
    upper_margin = upper - row.vol_filled
    filling_margin = row.vol_complement - row.vol_filled
    return BoundCheck(
        row.census_name,
        passed=(upper_margin >= 0 and filling_margin > 0),
        vacuous=False,
        upper_bound=upper,
        upper_margin=upper_margin,
        filling_margin=filling_margin,
    )


def family_memberships(knot_name: str) -> list[KnotTableRow]:
    """All (family, n) table entries identifying the given Rolfsen name."""
    return [row for row in _NAME_ROWS if row.rolfsen_name == knot_name]


def slope_pair_matches(row: CensusRow) -> Optional[bool]:
    """Cross-check a census row's slope pair against the surgery calculus.

    Returns None when the row's knot is not a table D or D' knot or has no
    filling; otherwise True when some family membership reproduces the
    row's (knot slope, figure-eight slope), allowing the figure-eight slope
    to flip sign (the figure-eight knot is amphichiral).
    """
    if not row.has_filling or row.knot_name is None:
        return None
    memberships = family_memberships(row.knot_name)
    if not memberships:
        return None
    for member in memberships:
        try:
            knot_slope, fig8_slope = shared_surgery(member.family, member.n)
        except ExceptionalFillingError:
            continue
        if row.slope_on_knot == knot_slope and row.slope_on_fig8 in (
            fig8_slope,
            -fig8_slope,
        ):
            return True
    return False


__all__ = [
    "V_OCT",
    "KnotTableRow",
    "CensusRow",
    "BoundCheck",
    "UnknownRowError",
    "tetrahedra",
    "census_rows",
    "lookup",
    "identify_family",
    "rolfsen_name",
    "volume_targets",
    "find_all_shared",
    "check_volume_bounds",
    "family_memberships",
    "slope_pair_matches",
    "FAMILY_D",
    "FAMILY_D_PRIME",
]
