import math

import pytest

from qhyp.rationals import ContinuedFraction, alternating_cfe
from qhyp.monodromy import (
    TwistWord,
    char_poly,
    fibered_monodromy_check,
    homological_stretch,
    intersection_form,
    is_symplectic,
    monodromy_from_cfe,
    monodromy_word,
    monodromy_word_mirror,
    symplectic_action,
)


def test_words():
    assert monodromy_word(1).letters == ((1, 1), (2, 1))
    assert monodromy_word_mirror(2).letters == ((1, -1), (2, -1), (3, 1), (4, -1))
    for g in range(1, 9):
        # T[c] T[a1] T[b1]^-1 T[a2] ... T[ag], and its exponent flip
        letters = ((1, 1),) + tuple((i, 1 if i % 2 == 0 else -1) for i in range(2, 2 * g + 1))
        assert monodromy_word(g) == TwistWord(g, letters)
        flipped = tuple((i, -e) for i, e in letters)
        assert monodromy_word_mirror(g) == TwistWord(g, flipped)
    with pytest.raises(ValueError):
        monodromy_word(0)


def test_word_from_cfe():
    for g in range(1, 6):
        assert monodromy_from_cfe(alternating_cfe(g)) == monodromy_word(g)
        negated = ContinuedFraction([-a for a in alternating_cfe(g).entries])
        assert monodromy_from_cfe(negated) == monodromy_word_mirror(g)
    assert monodromy_from_cfe(ContinuedFraction([2, 2])).letters == ((1, 1), (2, 1))
    with pytest.raises(ValueError):
        monodromy_from_cfe(ContinuedFraction([2, 3]))


def test_single_transvection_and_identity():
    g = 1
    empty = TwistWord(g, ())
    assert symplectic_action(empty) == [[1, 0], [0, 1]]
    single = symplectic_action(TwistWord(g, ((2, 1),)))
    # one twist is an elementary transvection: identity plus one off-diagonal
    diff = [
        [single[i][j] - (1 if i == j else 0) for j in range(2)] for i in range(2)
    ]
    assert sum(abs(x) for row in diff for x in row) == 1


def test_genus_one_characteristic_polynomial():
    M = symplectic_action(monodromy_word(1))
    assert char_poly(M) == [1, -3, 1]


def test_symplectic_and_crosscheck():
    for g in range(1, 9):
        M = symplectic_action(monodromy_word(g))
        assert is_symplectic(M, g)
        cp = char_poly(M)
        assert cp == cp[::-1]  # palindromic
        ok, report = fibered_monodromy_check(g)
        assert ok, report


def test_stretch():
    assert math.isclose(
        homological_stretch(monodromy_word(1)), (3 + math.sqrt(5)) / 2, rel_tol=1e-12
    )
    assert homological_stretch(TwistWord(1, ())) == pytest.approx(1.0)
    for g in range(1, 9):
        s = homological_stretch(monodromy_word(g))
        s_mirror = homological_stretch(monodromy_word_mirror(g))
        assert s > 1 and s_mirror > 1
        assert math.isclose(s, s_mirror, rel_tol=1e-9)


def test_intersection_form_shape():
    J = intersection_form(2)
    assert J[0][1] == 1 and J[1][0] == -1 and J[0][2] == 0
    assert all(J[i][j] == -J[j][i] for i in range(4) for j in range(4))
