"""Growth-rate estimation for Turaev-Viro level sweeps.

The asymptotic quantity of interest is the liminf over odd levels of
(2 pi / r) log TV_r.  At desk scale it is estimated from a sweep of odd
levels by least squares against the model

    logslope(r) = a + b (log r)/r + c / r,

whose subleading terms absorb the polynomial prefactors these invariants
carry; the extrapolated growth rate is the fitted a, and the raw value at
the largest level is kept alongside as a conservative cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .. import census
from ..rationals import Slope
from ..twistknots import DoubleTwistKnot, fraction_of, NotTwoBridgeKnotError
from .turaevviro import TVSample, tv_knot_complement, tv_surgery

#: slack allowed when the complement's extrapolated growth is compared with
#: a filling's (Dehn filling does not increase the growth rate)
MONOTONICITY_TOLERANCE = 0.05


@dataclass(frozen=True)
class GrowthEstimate:
    """Least-squares growth extrapolation from a level sweep."""

    raw_last: float
    extrapolated: float
    coefficients: tuple[float, float, float]  # (a, b, c) of a + b log r/r + c/r
    residual: float

    def to_json(self) -> dict:
        a, b, c = self.coefficients
        return {
            "raw_last": self.raw_last,
            "extrapolated": self.extrapolated,
            "fit": {"a": a, "b": b, "c": c},
            "residual": self.residual,
        }


class InsufficientDataError(ValueError):
    pass


def ltv_estimate(samples: Sequence[TVSample]) -> GrowthEstimate:
    """Fit the growth model to a sweep; needs four distinct odd levels."""
    rs = [s.r for s in samples]
    if len(set(rs)) < 4:
        raise InsufficientDataError("need at least four samples at distinct levels")
    if any(r % 2 == 0 for r in rs):
        raise ValueError("levels must be odd")
    ordered = sorted(samples, key=lambda s: s.r)
    r = np.array([s.r for s in ordered], dtype=float)
    y = np.array([s.logslope for s in ordered])
    design = np.column_stack([np.ones_like(r), np.log(r) / r, 1.0 / r])
    coeffs, *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ coeffs
    residual = float(np.sqrt(np.mean((fitted - y) ** 2)))
    return GrowthEstimate(
        raw_last=float(y[-1]),
        extrapolated=float(coeffs[0]),
        coefficients=(float(coeffs[0]), float(coeffs[1]), float(coeffs[2])),
        residual=residual,
    )


def default_levels(r_min: int = 51, r_max: int = 501, r_step: int = 50) -> list[int]:
    """Odd levels from r_min to r_max; the step must be even to stay odd."""
    if r_min % 2 == 0 or r_min < 5:
        raise ValueError("r_min must be odd and at least 5")
    if r_step % 2 != 0 or r_step <= 0:
        raise ValueError("r_step must be a positive even integer")
    return list(range(r_min, r_max + 1, r_step))


def complement_sweep(knot: DoubleTwistKnot, levels: Sequence[int]) -> list[TVSample]:
    """TV samples of the knot complement, one per distinct level, in
    increasing order of level."""
    return [tv_knot_complement(knot, r) for r in sorted(set(levels))]


def surgery_sweep(
    knot: DoubleTwistKnot, slope: Slope, levels: Sequence[int]
) -> list[TVSample]:
    """TV samples of the filled manifold, one per distinct level, in
    increasing order of level."""
    return [tv_surgery(knot, slope, r) for r in sorted(set(levels))]


@dataclass(frozen=True)
class QHyperbolicityReport:
    """Bundle of sweep evidence for one knot and optional filling slope."""

    knot: str
    slope: Optional[str]
    complement_samples: list[TVSample]
    complement_estimate: GrowthEstimate
    filling_samples: list[TVSample] = field(default_factory=list)
    filling_estimate: Optional[GrowthEstimate] = None
    census_name: Optional[str] = None
    census_vol_complement: Optional[float] = None
    census_vol_filled: Optional[float] = None
    monotonicity_ok: Optional[bool] = None
    monotonicity_margin: Optional[float] = None

    @property
    def q_hyperbolic_evidence(self) -> bool:
        return self.complement_estimate.extrapolated > 0

    def to_json(self) -> dict:
        out = {
            "knot": self.knot,
            "slope": self.slope,
            "complement": {
                "samples": [
                    {"r": s.r, "tv": s.tv, "logslope": s.logslope}
                    for s in self.complement_samples
                ],
                "estimate": self.complement_estimate.to_json(),
            },
            "q_hyperbolic_evidence": self.q_hyperbolic_evidence,
        }
        if self.filling_estimate is not None:
            out["filling"] = {
                "samples": [
                    {
                        "r": s.r,
                        "tv": s.tv,
                        "logslope": s.logslope,
                        "precision": s.precision,
                    }
                    for s in self.filling_samples
                ],
                "estimate": self.filling_estimate.to_json(),
                "monotonicity_ok": self.monotonicity_ok,
                "monotonicity_margin": self.monotonicity_margin,
            }
        if self.census_name is not None:
            out["census"] = {
                "name": self.census_name,
                "vol_complement": self.census_vol_complement,
                "vol_filled": self.census_vol_filled,
            }
        return out


def identify_family(knot: DoubleTwistKnot) -> Optional[tuple[str, int]]:
    """(family, n) when the knot is literally D(2n, -3) or D(2n, -2)."""
    for a, b in ((knot.m, knot.n), (knot.n, knot.m)):
        if b == -3 and a % 2 == 0 and a != 0:
            return "D", a // 2
        if b == -2 and a % 2 == 0 and a != 0:
            return "D'", a // 2
    return None


def q_hyperbolicity_report(
    knot: DoubleTwistKnot,
    slope: Optional[Slope] = None,
    levels: Optional[Sequence[int]] = None,
) -> QHyperbolicityReport:
    """Sweep the complement (and optionally a filling) and compare growth.

    The filling comparison checks the Dehn-filling monotonicity property:
    the complement's extrapolated growth must be at least the filling's
    minus MONOTONICITY_TOLERANCE.  Both sweeps run over the same levels.
    Census volumes are attached when the knot is one of the tabulated twist
    knots.
    """
    try:
        fraction_of(knot)
    except NotTwoBridgeKnotError:
        raise ValueError(f"{knot} is not a hyperbolic double twist knot")
    levels = list(levels) if levels else default_levels(51, 251, 50)
    comp_samples = complement_sweep(knot, levels)
    comp_est = ltv_estimate(comp_samples)
    fill_samples: list[TVSample] = []
    fill_est = None
    mono_ok = None
    mono_margin = None
    if slope is not None:
        fill_samples = surgery_sweep(knot, slope, levels)
        fill_est = ltv_estimate(fill_samples)
        mono_margin = comp_est.extrapolated - fill_est.extrapolated
        mono_ok = mono_margin >= -MONOTONICITY_TOLERANCE
    census_name = None
    vol_comp = None
    vol_fill = None
    membership = identify_family(knot)
    if membership is not None:
        try:
            rolfsen = census.lookup(*membership).rolfsen_name
        except census.UnknownRowError:
            rolfsen = None
        rows = [
            row for row in census.census_rows() if rolfsen and row.knot_name == rolfsen
        ]
        if rows:
            # the first row of the knot names its complement; a filling's
            # volume sits on the row of its slope, which may be a later one
            census_name = rows[0].census_name
            vol_comp = rows[0].vol_complement
            if slope is not None:
                vol_fill = next(
                    (row.vol_filled for row in rows if row.slope_on_knot == slope), None
                )
    return QHyperbolicityReport(
        knot=str(knot),
        slope=None if slope is None else str(slope),
        complement_samples=comp_samples,
        complement_estimate=comp_est,
        filling_samples=fill_samples,
        filling_estimate=fill_est,
        census_name=census_name,
        census_vol_complement=vol_comp,
        census_vol_filled=vol_fill,
        monotonicity_ok=mono_ok,
        monotonicity_margin=mono_margin,
    )


__all__ = [
    "MONOTONICITY_TOLERANCE",
    "GrowthEstimate",
    "InsufficientDataError",
    "ltv_estimate",
    "default_levels",
    "complement_sweep",
    "surgery_sweep",
    "QHyperbolicityReport",
    "identify_family",
    "q_hyperbolicity_report",
]
