"""Growth-rate estimation for Turaev-Viro level sweeps.

The asymptotic quantity of interest is the liminf over odd levels of
(2 pi / r) log TV_r.  At desk scale it is estimated from a sweep of odd
levels by least squares against the model

    logslope(r) = a + b (log r)/r + c / r,

whose subleading terms absorb the polynomial prefactors these invariants
carry; the extrapolated growth rate is the fitted a, and the raw value at
the largest level is kept alongside as a conservative cross-check.

q_hyperbolicity_report is the `qhyp ltv` report itself: a JSON-ready dict
with the complement sweep, an optional filling sweep, both estimates, the
monotonicity verdict and the census volumes.  Each sample in it carries
every TVSample field, so it records how it was computed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .. import census
from ..rationals import Slope
from ..twistknots import DoubleTwistKnot, fraction_of
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
    if r_max < r_min:
        raise ValueError("r_max must be at least r_min")
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


def q_hyperbolicity_report(
    knot: DoubleTwistKnot, slope: Optional[Slope], levels: Sequence[int]
) -> dict:
    """Sweep the complement (and a filling, unless slope is None) level by
    level, so both read the level's one cached Jones vector, and compare
    growth; the JSON report `qhyp ltv` prints.

    The filling comparison checks the Dehn-filling monotonicity property:
    the complement's extrapolated growth must be at least the filling's
    minus MONOTONICITY_TOLERANCE.  Census volumes are attached when the knot
    is one of the tabulated twist knots.
    """
    fraction_of(knot)  # raises on an unknot or a two-component link, naming it
    samples, filling = [], []
    for r in sorted(set(levels)):
        samples.append(tv_knot_complement(knot, r))
        if slope is not None:
            filling.append(tv_surgery(knot, slope, r))
    estimate = ltv_estimate(samples)
    report = {
        "knot": str(knot),
        "slope": None if slope is None else str(slope),
        "complement": {
            "samples": [asdict(s) for s in samples],
            "estimate": estimate.to_json(),
        },
        "q_hyperbolic_evidence": estimate.extrapolated > 0,
    }
    if slope is not None:
        filling_estimate = ltv_estimate(filling)
        margin = estimate.extrapolated - filling_estimate.extrapolated
        report["filling"] = {
            "samples": [asdict(s) for s in filling],
            "estimate": filling_estimate.to_json(),
            "monotonicity_ok": margin >= -MONOTONICITY_TOLERANCE,
            "monotonicity_margin": margin,
        }
    targets = census.volume_targets(knot, slope)
    if targets is not None:
        report["census"] = targets
    return report


__all__ = [
    "MONOTONICITY_TOLERANCE",
    "GrowthEstimate",
    "InsufficientDataError",
    "ltv_estimate",
    "default_levels",
    "complement_sweep",
    "surgery_sweep",
    "q_hyperbolicity_report",
]
