"""A LinearForm is the (coeff, offset) pair, and a BalancedRatio is built from pairs."""

import dataclasses

import pytest

from factratio.divisibility import S_RATIO
from factratio.forms import BalancedRatio, LinearForm, form


def test_linear_form_is_the_pair():
    assert LinearForm(2, 3) == (2, 3)
    assert LinearForm(4) == (4, 0)
    c, o = form(2, 3)
    assert (c, o) == (2, 3)
    assert form(2, 3)(5) == 13
    assert hash(form(2, 3)) == hash((2, 3))


@pytest.mark.parametrize(
    "pair, text",
    [((2, 3), "2n+3"), ((1, 0), "n"), ((1, -1), "n-1"), ((10, 1), "10n+1"), ((0, 5), "5")],
)
def test_linear_form_str_and_repr(pair, text):
    assert str(form(*pair)) == text
    assert repr(form(*pair)) == f"LinearForm(coeff={pair[0]}, offset={pair[1]})"


def test_negative_coefficient_rejected():
    with pytest.raises(ValueError, match="coeff >= 0, got -1"):
        LinearForm(-1)
    with pytest.raises(ValueError, match="coeff >= 0, got -2"):
        form(2, 3)._replace(coeff=-2)
    with pytest.raises(ValueError, match="coeff >= 0, got -3"):
        LinearForm._make((-3, 0))
    assert form(2, 3)._replace(offset=-1) == (2, -1)


def test_ratio_from_pairs_equals_ratio_from_forms():
    pairs = BalancedRatio([(6, 0), (1, 0)], [(3, 0), (2, 0), (2, 0)], [(0, 3)], [(2, 3)])
    forms = BalancedRatio(
        (form(6), form(1)), (form(3), form(2), form(2)), (form(0, 3),), (form(2, 3),)
    )
    assert pairs == forms and hash(pairs) == hash(forms)
    assert str(pairs) == "(6n)!(n)!(1-q^(3))/(3n)!(2n)!(2n)!(1-q^(2n+3))"
    for side in (pairs.numerator, pairs.denominator, pairs.single_num, pairs.single_den):
        assert type(side) is tuple and all(type(f) is LinearForm for f in side)
    assert (pairs.num_coeffs, pairs.den_coeffs) == ((6, 1), (3, 2, 2))


def test_replace_with_pairs_gives_linear_forms():
    spec = dataclasses.replace(S_RATIO, single_num=((0, 3),), single_den=[(2, 1)])
    assert spec.single_num == (LinearForm(0, 3),) and spec.single_den == (LinearForm(2, 1),)
    assert all(type(f) is LinearForm for f in spec.single_num + spec.single_den)
    assert spec.numerator == S_RATIO.numerator and spec.num_coeffs == S_RATIO.num_coeffs
