"""Truncated power series arithmetic: ring laws, inverses, exp/log, counting."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rationals
from seqasym.errors import BadConstantTerm, NonIntegerCount, ZeroConstantTerm
from seqasym.series import PowerSeries, counting_to_series, series_to_counting

ORDER = 6


def series_strategy(order: int = ORDER, nonzero_constant: bool = False):
    head = rationals().filter(lambda q: q != 0) if nonzero_constant else rationals()
    return st.tuples(
        head, *[rationals() for _ in range(order)]
    ).map(lambda t: PowerSeries(tuple(Fraction(x) for x in t)))


def test_geometric_series():
    geom = PowerSeries.from_ints([1, -1], order=5).inverse()
    assert geom.coefficients == (Fraction(1),) * 6


def test_indexing_and_truncation():
    f = PowerSeries.from_ints([3, 1, 4, 1, 5])
    assert f.order == 4 and f[2] == 4
    g = f.truncate(2)
    assert g.coefficients == (3, 1, 4)
    assert f.truncate(7) is f  # truncation never invents higher coefficients


@given(series_strategy(), series_strategy(), series_strategy())
@settings(max_examples=60)
def test_ring_laws(f, g, h):
    assert (f + g).coefficients == (g + f).coefficients
    assert ((f + g) + h).coefficients == (f + (g + h)).coefficients
    assert (f * g).coefficients == (g * f).coefficients
    assert ((f * g) * h).coefficients == (f * (g * h)).coefficients
    assert (f * (g + h)).coefficients == (f * g + f * h).coefficients


@given(series_strategy(nonzero_constant=True))
@settings(max_examples=60)
def test_inverse_round_trip(f):
    one = PowerSeries.one(f.order)
    assert (f * f.inverse()).coefficients == one.coefficients


@given(series_strategy())
@settings(max_examples=60)
def test_exp_log_round_trips(f):
    u = f - PowerSeries.from_coefficients([f[0]], f.order)  # kill constant term
    assert u.exp().log().coefficients == u.coefficients
    g = PowerSeries.one(f.order) + u
    assert g.log().exp().coefficients == g.coefficients


@given(series_strategy(), st.integers(min_value=0, max_value=5))
@settings(max_examples=40)
def test_pow_is_repeated_multiplication(f, e):
    direct = PowerSeries.one(f.order)
    for _ in range(e):
        direct = direct * f
    assert f.pow(e).coefficients == direct.coefficients


def test_exp_differential_recurrence_matches_factorials():
    z = PowerSeries.from_ints([0, 1], order=6)
    e = z.exp()
    assert [e[n] for n in range(7)] == [Fraction(1, __import__("math").factorial(n)) for n in range(7)]


def test_inverse_needs_unit_constant():
    with pytest.raises(ZeroConstantTerm):
        PowerSeries.from_ints([0, 1]).inverse()


def test_exp_log_constant_term_contracts():
    with pytest.raises(BadConstantTerm):
        PowerSeries.from_ints([1, 1]).exp()
    with pytest.raises(BadConstantTerm):
        PowerSeries.from_ints([2, 1]).log()


def test_tournament_egf_plus_all_ones():
    # reduced tournament values 2^C(n,2)/n! for n = 0..4, plus 1 termwise
    counting = [2 ** (n * (n - 1) // 2) for n in range(5)]
    f = counting_to_series(counting, "labeled", 4) + PowerSeries.from_ints([1] * 5)
    assert f.coefficients == (2, 2, 2, Fraction(7, 3), Fraction(11, 3))


def test_tournament_egf_inverse_prefix():
    counting = [2 ** (n * (n - 1) // 2) for n in range(5)]
    inv = counting_to_series(counting, "labeled", 4).inverse()
    assert inv.coefficients == (1, -1, 0, Fraction(-1, 3), -1)


@given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=8))
@settings(max_examples=60)
def test_counting_round_trip(values):
    values = [1] + values  # a_0 = 1
    order = len(values) - 1
    for labeling in ("labeled", "unlabeled"):
        f = counting_to_series(values, labeling, order)
        assert list(series_to_counting(f, labeling)) == values


def test_series_to_counting_rejects_non_integers():
    f = PowerSeries.from_coefficients([1, Fraction(1, 3)])
    with pytest.raises(NonIntegerCount):
        series_to_counting(f, "unlabeled")
