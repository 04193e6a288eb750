import csv
import io
from importlib import resources

import pytest

from qhyp import census
from qhyp.rationals import ExactRational
from qhyp.twistknots import DoubleTwistKnot


def _records(name):
    text = resources.files("qhyp.data").joinpath(name).read_text(encoding="utf-8")
    return list(csv.DictReader(io.StringIO(text)))


def test_row_counts():
    assert len(census.census_rows()) == 62
    names = _records("twist_knot_names.csv")
    assert len(names) == 15
    for rec in names:
        assert census.lookup(rec["family"], int(rec["n"])).rolfsen_name == rec["rolfsenName"]


def test_tetrahedra():
    assert census.tetrahedra("K7_45") == 7
    assert census.tetrahedra("K2_1") == 2
    assert census.tetrahedra("K9_296") == 9
    with pytest.raises(ValueError):
        census.tetrahedra("X1_2")


def test_lookup():
    assert census.lookup("D", 1).rolfsen_name == "5_2"
    assert census.lookup("D'", 4).rolfsen_name == "10_1"
    assert census.lookup("D", -2).rolfsen_name == "6_2"
    with pytest.raises(census.UnknownRowError):
        census.lookup("D", 99)


def test_volume_targets():
    fig8 = DoubleTwistKnot(2, -2)
    # 4_1's own fillings sit in the slopeOn41 column, up to sign
    assert census.volume_targets(fig8, ExactRational(5))["vol_filled"] == 0.981369
    assert census.volume_targets(fig8, ExactRational(-7, 2))["vol_filled"] == 1.649610
    assert census.volume_targets(fig8, ExactRational(1))["vol_filled"] is None
    assert census.volume_targets(fig8, None) == {
        "name": "K2_1", "vol_complement": 2.029883, "vol_filled": None
    }
    assert census.volume_targets(DoubleTwistKnot(2, -3), ExactRational(5)) == {
        "name": "K3_2", "vol_complement": 2.828122, "vol_filled": 0.981369
    }
    target = census.volume_targets(DoubleTwistKnot(-4, -2), ExactRational(1))
    assert (target["name"], target["vol_filled"]) == ("K3_2", 1.398509)
    assert census.volume_targets(DoubleTwistKnot(5, -3), ExactRational(1)) is None
    # the first row of a figure-eight slope speaks for every row sharing it
    by_slope = {}
    for row in census.census_rows():
        if row.slope_on_fig8 is not None:
            by_slope.setdefault(abs(row.slope_on_fig8), set()).add(round(row.vol_filled, 6))
    assert all(len(vols) == 1 for vols in by_slope.values())


def test_find_shared():
    row = census.find_all_shared("K5_12")[0]
    assert row.slope_on_knot == ExactRational(3)
    assert row.slope_on_fig8 == ExactRational(3, 2)
    assert row.vol_filled_str == "1.440699"
    assert row.knot_name == "8_20"
    assert len(census.find_all_shared("K3_2")) == 2
    with pytest.raises(census.UnknownRowError):
        census.find_all_shared("K1_1")


def test_no_filling_row():
    row = census.find_all_shared("K2_1")[0]
    assert not row.has_filling
    assert row.vol_filled is None
    check = census.check_volume_bounds(row)
    assert check.passed and check.vacuous


def test_all_bounds():
    for row in census.census_rows():
        check = census.check_volume_bounds(row)
        assert check.passed, check.describe()
        if not check.vacuous:
            assert check.upper_margin > 0
            assert check.filling_margin > 0
        if row.vol_filled is not None:
            assert row.vol_filled < row.vol_complement


def test_example_bound_values():
    row = census.find_all_shared("K5_19")[0]
    assert row.knot_name == "6_2"
    check = census.check_volume_bounds(row)
    assert check.upper_bound == pytest.approx(3.6638 * 5)
    assert check.filling_margin == pytest.approx(4.400833 - 1.649610)
    row9 = [r for r in census.census_rows() if r.census_name == "K9_435"][0]
    assert census.check_volume_bounds(row9).passed


def test_slope_cross_check():
    verdicts = [census.slope_pair_matches(r) for r in census.census_rows()]
    confirmed = [v for v in verdicts if v is not None]
    assert len(confirmed) == 12
    assert all(confirmed)


def test_round_trip_bytes():
    # every row keeps its CSV text verbatim: volumes as printed, slopes as written
    records = _records("census_fillings.csv")
    assert len(records) == len(census.census_rows())
    for rec, row in zip(records, census.census_rows()):
        assert rec == {
            "censusName": row.census_name,
            "volComplement": row.vol_complement_str,
            "slopeOnK": "-" if row.slope_on_knot is None else str(row.slope_on_knot),
            "slopeOn41": "-" if row.slope_on_fig8 is None else str(row.slope_on_fig8),
            "volFilled": row.vol_filled_str,
            "knotName": row.knot_name or "",
        }
