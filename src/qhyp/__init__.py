"""qhyp: exact and numerical verification toolkit for double twist knot
surgeries and Turaev-Viro growth rates.

The package computes, at desk scale, every checkable piece of the story
connecting double twist knots to the figure-eight knot: exact continued
fraction and surgery-slope identities, Alexander polynomials and fibered
monodromies, colored Jones evaluations at roots of unity backed by three
independent oracles, Turaev-Viro invariants of complements and of rational
surgeries, and growth-rate extrapolations against tabulated hyperbolic
volumes.
"""

from .rationals import (
    ContinuedFraction,
    ExactRational,
    INFINITY,
    Slope,
    alternating_cfe,
    cfe_eval,
    minus_cfe,
)
from .twistknots import (
    DoubleTwistKnot,
    LaurentPolynomial,
    TwoBridgeFraction,
    alexander,
    fiber_genus,
    fibered_cfe,
    fraction_of,
    is_monic,
    mirror,
)
from .surgery import (
    SurgeryComponent,
    SurgeryPresentation,
    blow_down,
    is_exceptional_fig8_slope,
    rolfsen_twist,
    shared_surgery,
)
from .monodromy import (
    TwistWord,
    fibered_monodromy_check,
    homological_stretch,
    monodromy_from_cfe,
    monodromy_word,
    monodromy_word_mirror,
    symplectic_action,
)
from . import census
from .quantum import (
    GrowthEstimate,
    RootOfUnityContext,
    TVSample,
    colored_jones,
    colored_jones_rmatrix_oracle,
    complement_sweep,
    ltv_estimate,
    q_hyperbolicity_report,
    surgery_sweep,
    tv_knot_complement,
    tv_surgery,
)

__version__ = "0.1.0"
