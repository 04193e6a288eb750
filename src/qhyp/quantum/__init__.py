"""Numerical kernel: colored Jones values at roots of unity, Turaev-Viro
invariants of double twist knot complements and of their rational surgeries,
and growth-rate estimation."""

from .roots import RootOfUnityContext
from .jones import colored_jones
from .oracles import colored_jones_kauffman_oracle, colored_jones_rmatrix_oracle
from .turaevviro import tv_knot_complement, tv_surgery, TVSample
from .growth import (
    GrowthEstimate,
    ltv_estimate,
    complement_sweep,
    surgery_sweep,
    q_hyperbolicity_report,
)

__all__ = [
    "RootOfUnityContext",
    "colored_jones",
    "colored_jones_kauffman_oracle",
    "colored_jones_rmatrix_oracle",
    "tv_knot_complement",
    "tv_surgery",
    "TVSample",
    "GrowthEstimate",
    "ltv_estimate",
    "complement_sweep",
    "surgery_sweep",
    "q_hyperbolicity_report",
]
