import pytest

from qhyp.census import identify_family
from qhyp.rationals import ExactRational
from qhyp.twistknots import DoubleTwistKnot
from qhyp.quantum.turaevviro import TVSample
from qhyp.quantum.growth import (
    InsufficientDataError,
    complement_sweep,
    default_levels,
    ltv_estimate,
    q_hyperbolicity_report,
    surgery_sweep,
)

FIG8 = DoubleTwistKnot(2, -2)


def _flat(value, levels):
    return [TVSample(r=r, tv=1.0, logslope=value) for r in levels]


def test_constant_samples_fit_exactly():
    est = ltv_estimate(_flat(1.75, (51, 101, 151, 201, 251)))
    assert est.extrapolated == pytest.approx(1.75, abs=1e-12)
    assert est.raw_last == pytest.approx(1.75)
    assert est.residual == pytest.approx(0.0, abs=1e-12)


def test_model_recovery():
    import math

    levels = list(range(51, 302, 50))
    samples = [
        TVSample(r=r, tv=1.0, logslope=2.0 + 3.0 * math.log(r) / r - 5.0 / r)
        for r in levels
    ]
    est = ltv_estimate(samples)
    assert est.extrapolated == pytest.approx(2.0, abs=1e-9)
    assert est.coefficients[1] == pytest.approx(3.0, abs=1e-7)
    assert est.coefficients[2] == pytest.approx(-5.0, abs=1e-6)


def test_insufficient_data():
    with pytest.raises(InsufficientDataError):
        ltv_estimate(_flat(1.0, (51, 101, 151)))
    with pytest.raises(ValueError):
        ltv_estimate(_flat(1.0, (50, 100, 150, 200)))


def test_default_levels_validation():
    assert default_levels(51, 201, 50) == [51, 101, 151, 201]
    with pytest.raises(ValueError):
        default_levels(50, 200, 50)
    with pytest.raises(ValueError):
        default_levels(51, 201, 25)


def test_empty_sweep_is_rejected():
    assert default_levels(51, 51, 50) == [51]
    with pytest.raises(ValueError):
        default_levels(51, 41, 50)


def test_sweeps_are_sorted_and_keyed():
    samples = complement_sweep(FIG8, (31, 11, 21, 41))
    assert [s.r for s in samples] == [11, 21, 31, 41]
    samples = surgery_sweep(FIG8, ExactRational(5), (21, 11, 31, 41))
    assert [s.r for s in samples] == [11, 21, 31, 41]


def test_identify_family():
    assert identify_family(DoubleTwistKnot(4, -3)) == ("D", 2)
    assert identify_family(DoubleTwistKnot(-3, 4)) == ("D", 2)
    assert identify_family(DoubleTwistKnot(6, -2)) == ("D'", 3)
    assert identify_family(DoubleTwistKnot(5, -3)) is None
    assert identify_family(DoubleTwistKnot(3, 5)) is None


def test_report_bundle():
    report = q_hyperbolicity_report(
        DoubleTwistKnot(2, -3),
        slope=ExactRational(5),
        levels=(11, 21, 31, 41),
    )
    assert report["census"]["name"] == "K3_2"
    assert report["census"]["vol_complement"] == pytest.approx(2.828122)
    assert report["census"]["vol_filled"] == pytest.approx(0.981369)
    assert report["filling"]["monotonicity_ok"] is not None
    assert report["knot"] == "D(2, -3)"
    assert len(report["complement"]["samples"]) == 4


def test_report_reads_the_filling_row_of_its_slope():
    # 5_2 has two census rows, K3_2 with slope 5 first and slope 1 second
    report = q_hyperbolicity_report(
        DoubleTwistKnot(-4, -2), ExactRational(1), levels=(11, 21, 31, 41)
    )
    assert report["census"]["name"] == "K3_2"
    assert report["census"]["vol_complement"] == pytest.approx(2.828122)
    assert report["census"]["vol_filled"] == 1.398509


def test_report_rejects_unknots():
    with pytest.raises(ValueError):
        q_hyperbolicity_report(DoubleTwistKnot(0, 5), None, (11, 21, 31, 41))
