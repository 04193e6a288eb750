import json
from dataclasses import fields

import pytest

from qhyp.cli import main
from qhyp.quantum.turaevviro import TVSample


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cfe(capsys):
    code, out = run_cli(capsys, "cfe", "3,-2")
    assert code == 0
    blob = json.loads(out)
    assert blob["value"] == "2/5"
    code, out = run_cli(capsys, "cfe", "--alternating", "2")
    assert json.loads(out)["entries"] == [2, 2, -2, 2]


def test_negative_values_stay_values(capsys, tmp_path):
    # a leading negative entry is a positional, wherever it stands
    code, out = run_cli(capsys, "cfe", "-2,3")
    assert code == 0
    assert json.loads(out)["entries"] == [-2, 3]
    _, after_dashes = run_cli(capsys, "cfe", "--", "-2,3")
    assert after_dashes == out
    target = tmp_path / "cfe.json"
    assert main(["cfe", "-2,3", "--output", str(target)]) == 0
    assert target.read_text() == out
    with pytest.raises(SystemExit) as err:
        main(["-2,3", "cfe"])  # not a subcommand
    assert err.value.code == 2
    # after an option it is that option's value
    levels = ("--r-min", "11", "--r-max", "17", "--r-step", "2")
    code, out = run_cli(capsys, "tv", "--knot", "-2,2", "--slope", "-7/2", *levels)
    assert code == 0
    _, joined = run_cli(capsys, "tv", "--knot=-2,2", "--slope=-7/2", *levels)
    assert out == joined
    assert len(json.loads(out)) == 4


def test_knot_report(capsys):
    code, out = run_cli(capsys, "knot", "--family", "D", "--n", "-2")
    assert code == 0
    blob = json.loads(out)
    assert blob["rolfsen_name"] == "6_2"
    assert blob["fibered"] is True
    assert blob["fiber_genus"] == 2
    assert blob["monic"] is True


def test_knot_rejects_unknot(capsys):
    code = main(["knot", "--knot", "0,5"])
    assert code == 1


@pytest.mark.parametrize(
    "knot, rejected",
    [("3,3", "D(3, 3) is a two-component link"), ("1,2", "D(1, 2) is the unknot")],
)
def test_ltv_names_what_it_rejects(capsys, knot, rejected):
    code = main(["ltv", "--knot", knot])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"error: {rejected}")


def test_surgery_check(capsys):
    code, out = run_cli(capsys, "surgery-check", "--family", "D'", "--n", "3")
    assert code == 0
    assert "final slope on the twist knot: 1" in out
    assert "figure-eight slope -1/3" in out


def test_jones(capsys):
    code, out = run_cli(capsys, "jones", "--knot", "2,-2", "--color", "2", "--r", "7")
    assert code == 0
    blob = json.loads(out)
    assert blob["abs"] == pytest.approx(0.356896, abs=1e-5)


def test_tv_json_and_determinism(capsys):
    args = ("tv", "--knot", "2,-2", "--r-min", "5", "--r-max", "15", "--r-step", "2")
    code, out1 = run_cli(capsys, *args)
    assert code == 0
    samples = json.loads(out1)
    assert [sample["r"] for sample in samples] == [5, 7, 9, 11, 13, 15]
    names = {f.name for f in fields(TVSample)}
    assert all(set(sample) == names for sample in samples)
    _, out2 = run_cli(capsys, *args)
    assert out1 == out2


def test_ltv_json(capsys):
    code, out = run_cli(
        capsys,
        "ltv", "--knot", "2,-3", "--slope", "5",
        "--r-min", "11", "--r-max", "41", "--r-step", "10",
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["census"]["name"] == "K3_2"
    assert "estimate" in blob["complement"]
    assert "filling" in blob
    # every sample records how it was computed
    names = {f.name for f in fields(TVSample)}
    for sweep in ("complement", "filling"):
        assert len(blob[sweep]["samples"]) == 4
        assert all(set(sample) == names for sample in blob[sweep]["samples"])


def test_monodromy(capsys):
    code, out = run_cli(capsys, "monodromy", "--genus", "2")
    assert code == 0
    assert "cross-check: PASS" in out


def test_census_row(capsys):
    code, out = run_cli(capsys, "census", "--row", "K5_19")
    assert code == 0
    blob = json.loads(out)
    assert blob[0]["knotName"] == "6_2"
    assert blob[0]["tetrahedra"] == 5


def test_census_unknown_row_fails(capsys):
    code = main(["census", "--row", "K99_1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: no census row named 'K99_1'\n"


def test_census_bounds(capsys):
    code, out = run_cli(capsys, "census", "--check-bounds")
    assert code == 0
    assert "62/62 rows pass" in out


def test_census_row_and_bounds_are_a_usage_error(capsys):
    # one census view per call: neither option may drop the other
    with pytest.raises(SystemExit) as err:
        main(["census", "--row", "K5_19", "--check-bounds"])
    assert err.value.code == 2
    assert capsys.readouterr().out == ""


LEVELS = ("--r-min", "11", "--r-max", "17", "--r-step", "2")  # quick if accepted


@pytest.mark.parametrize(
    "argv",
    [
        ("tv", "--knot", "2,-2", "--format", "text") + LEVELS,
        ("ltv", "--knot", "2,-2", "--format", "text") + LEVELS,
        ("ltv", "--knot", "2,-3", "--slope", "5", "--precision", "extended") + LEVELS,
        ("tv", "--knot", "2,-2", "--slope", "5", "--precision", "double") + LEVELS,
        ("jones", "--knot", "2,2", "--color", "23", "--r", "61", "--precision", "extended"),
        ("--threads", "2", "tv", "--knot", "2,-2") + LEVELS,
        ("ltv", "--knot", "2,-2", "--tolerance", "1") + LEVELS,
        ("ltv", "--knot", "2,-2", "--format", "json") + LEVELS,
        ("ltv", "--knot", "2,-2", "--format", "csv") + LEVELS,
        ("tv", "--knot", "2,-2", "--format", "json") + LEVELS,
        ("tv", "--knot", "2,-2", "--format", "csv") + LEVELS,
    ],
)
def test_removed_options_are_usage_errors(argv):
    with pytest.raises(SystemExit) as err:
        main(list(argv))
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("knot",),  # no knot at all
        ("knot", "--family", "D"),  # a family without its n
        ("cfe",),  # no entries and no --alternating
        ("knot", "--knot", "2,-2", "--family", "D", "--n", "1"),  # two knots
        ("cfe", "3,-2", "--alternating", "2"),  # entries and --alternating
        ("cfe", "1,x"),  # an entry that is not an integer
    ],
)
def test_knot_and_cfe_arguments_are_usage_errors(argv):
    with pytest.raises(SystemExit) as err:
        main(list(argv))
    assert err.value.code == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["jones", "--knot", "2,-2"])  # missing required flags
    assert err.value.code == 2


@pytest.mark.parametrize("slope", ["0/0", "1.5", "abc", "3/"])
def test_bad_slope_is_usage_error(slope):
    with pytest.raises(SystemExit) as err:
        main(["tv", "--knot", "2,-2", "--slope", slope])
    assert err.value.code == 2
