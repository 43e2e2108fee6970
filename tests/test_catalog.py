"""Catalog counting sequences: closed forms, Burnside counts, custom classes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqasym import catalog
from seqasym.errors import (
    BadConstantTerm,
    NegativeCount,
    PeriodMismatch,
    RangeError,
    UnknownClass,
)


def test_tournaments_closed_form():
    A = catalog.tournaments(1)
    assert A.values(6) == [1, 1, 2, 8, 64, 1024, 32768]
    assert catalog.tournaments(2).value(4) == 3**6


def test_linear_orders_and_permutations():
    assert catalog.linear_orders(2).values(4) == [1, 1, 4, 36, 576]
    assert catalog.permutations(1).labeling == "unlabeled"
    assert catalog.permutations(3).value(3) == 6**3


def test_matchings_pair_indexed():
    A = catalog.matchings(1)
    assert A.values(5) == [1, 1, 3, 15, 105, 945]  # (2n-1)!! on the pair index
    assert catalog.matchings(2).value(3) == 225


def test_matchings_labeled_period_two():
    A = catalog.matchings_labeled()
    assert A.period == 2
    assert [A.value(n) for n in range(7)] == [1, 0, 1, 0, 3, 0, 15]


def test_linear_matchings_values():
    A = catalog.linear_matchings()
    assert A.period == 2 and A.labeling == "labeled"
    assert [A.value(2 * n) for n in range(5)] == [1, 2, 72, 10800, 4233600]
    assert A.value(5) == 0


def test_unlabeled_tournament_burnside_counts():
    A = catalog.unlabeled_tournaments()
    assert A.values(10) == [1, 1, 1, 2, 4, 12, 56, 456, 6880, 191536, 9733056]
    # growth sanity at the audit horizon: the count stays an exact integer
    assert A.value(40) % 10 in range(10)


def test_double_factorial():
    assert [catalog.double_factorial(k) for k in (-1, 1, 3, 5, 7)] == [1, 1, 3, 15, 105]


def test_describe_mentions_labeling_and_period():
    text = catalog.linear_matchings().describe()
    assert "labeled" in text and "period 2" in text


def test_resolve_class_and_unknown():
    A = catalog.resolve_class("tournaments", 2)
    assert A.name == "tournaments(d=2)"
    # classes without a d parameter ignore it
    assert catalog.resolve_class("unlabeled_tournaments", 3).name == "unlabeled_tournaments"
    with pytest.raises(UnknownClass):
        catalog.resolve_class("nosuch")


def test_catalog_classes_membership():
    names = {A.name for A in catalog.catalog_classes()}
    assert "tournaments(d=1)" in names
    assert "unlabeled_tournaments" in names
    assert "constant-1" in names
    # the aperiodic-support labeled matchings stay out: not SEQ-decomposable
    assert not any("matchings_labeled" in n for n in names)


def test_custom_validation():
    ok = catalog.custom([1, 2, 4, 8], "unlabeled")
    assert ok.value(3) == 8
    with pytest.raises(RangeError):
        ok.value(9)  # beyond the supplied prefix
    with pytest.raises(BadConstantTerm):
        catalog.custom([0, 1], "unlabeled")
    with pytest.raises(NegativeCount):
        catalog.custom([1, -1], "unlabeled")
    with pytest.raises(RangeError):
        catalog.custom([1, 1], "half-labeled")
    with pytest.raises(PeriodMismatch):
        catalog.custom([1, 1, 2], "labeled", period=2)  # nonzero off support
    with pytest.raises(PeriodMismatch):
        catalog.custom([1, 0, 0, 0, 3], "labeled", period=2)  # zero on support


@given(
    st.lists(st.integers(min_value=1, max_value=100), min_size=1, max_size=6),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=50)
def test_custom_periodic_round_trip(support_values, p):
    values = [1]
    for v in support_values:
        values.extend([0] * (p - 1) + [v])
    A = catalog.custom(values, "unlabeled", period=p)
    assert [A.value(p * i) for i in range(len(support_values) + 1)] == [1] + support_values


def test_parse_custom_text():
    text = "labeling: labeled\nperiod: 1\n# a comment\n1\n1\n2\n6\n"
    A = catalog.parse_custom_text(text, name="demo")
    assert A.name == "demo" and A.value(3) == 6
    with pytest.raises(RangeError):
        catalog.parse_custom_text("period: 1\n1\n2\n", name="x")  # missing labeling


def test_load_custom_uses_stem(tmp_path):
    f = tmp_path / "mystery.seq"
    f.write_text("labeling: unlabeled\nperiod: 1\n1\n5\n25\n")
    A = catalog.load_custom(str(f))
    assert A.name == "mystery" and A.value(2) == 25


def test_values_cache_is_consistent():
    A = catalog.tournaments(1)
    first = A.value(12)
    assert A.value(12) == first == 2**66
