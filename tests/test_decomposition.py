"""Part-count tables: inversion, recurrences, periodic reindexing, the lift."""

from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqasym import catalog
from seqasym.decomposition import (
    convolve,
    irreducible_series,
    lift_consistency,
    parts_table,
    periodic_reindex,
    verify_halving_identity,
    verify_simple_recurrence,
)
from seqasym.errors import NegativeIrreducibleCount, PeriodMismatch, RangeError
from seqasym.reference_tables import REFERENCE_TABLES
from seqasym.series import PowerSeries, counting_to_series, series_to_counting


def test_convolve_weights():
    ones = [1] * 7
    # e^z · e^z = e^{2z} labeled; 1/(1-z)^2 unlabeled
    assert convolve(ones, ones, labeled=True) == [2**n for n in range(7)]
    assert convolve(ones, ones, labeled=False) == [n + 1 for n in range(7)]
    assert convolve(ones, ones[:3], labeled=False) == [1, 2, 3]


def test_irreducible_tournaments_prefix(tournaments1):
    B = irreducible_series(tournaments1, 6)
    counts = [B[n] * factorial(n) for n in range(7)]
    assert counts == [0, 1, 0, 2, 24, 544, 22320]


@pytest.mark.parametrize(
    "key",
    [k for k in REFERENCE_TABLES if k[2] == "parts"],
    ids=lambda k: f"{k[0]}-d{k[1]}",
)
def test_parts_tables_match_frozen_data(key):
    class_key, d, _ = key
    ref = REFERENCE_TABLES[key]
    A = catalog.resolve_class(class_key, d)
    hi = ref.start_index + len(ref.rows[0]) - 1
    table = parts_table(A, 5, hi)
    for m in range(1, 6):
        for n in range(ref.start_index, hi + 1):
            assert table.entries(n, m) == ref.value(n, m), (class_key, d, n, m)


def test_parts_table_completeness(tournaments1):
    table = parts_table(tournaments1, 9, 9)
    for n in range(1, 10):
        assert table.total(n) == tournaments1.value(n)


def test_parts_table_bounds(tournaments1):
    table = parts_table(tournaments1, 3, 5)
    with pytest.raises(RangeError):
        table.entries(6, 1)
    with pytest.raises(RangeError):
        table.entries(3, 4)


def test_zero_parts_row_is_indicator(tournaments1):
    table = parts_table(tournaments1, 2, 5)
    assert table.entries(0, 0) == 1
    assert all(table.entries(n, 0) == 0 for n in range(1, 6))


def test_raw_even_matchings_not_seq_decomposable():
    # a_{2n} = (2n-1)!! with labels: the candidate first-part count goes
    # negative at size 4, so no sequence decomposition exists.
    A = catalog.matchings_labeled()
    with pytest.raises(NegativeIrreducibleCount) as err:
        parts_table(A, 1, 6)
    assert "b_4" in str(err.value)


@pytest.mark.parametrize(
    "A",
    catalog.catalog_classes(),
    ids=lambda A: A.name,
)
def test_first_part_recurrence_all_catalog(A):
    rep = verify_simple_recurrence(A, 18)
    assert rep.all_equal, rep.mismatches[:3]


@pytest.mark.parametrize(
    "A",
    [c for c in catalog.catalog_classes() if c.labeling == "labeled"],
    ids=lambda A: A.name,
)
def test_halving_identity_labeled_catalog(A):
    rep = verify_halving_identity(A, 18)
    assert rep.all_equal, rep.mismatches[:3]


def test_halving_identity_rejects_unlabeled():
    with pytest.raises(RangeError):
        verify_halving_identity(catalog.permutations(1), 10)


@given(
    st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=7),
    st.sampled_from(["labeled", "unlabeled"]),
)
@settings(max_examples=60, deadline=None)
def test_random_part_counts_reconstructed(b_counts, labeling):
    """SEQ(B) built from arbitrary nonnegative B is recognized exactly."""
    order = len(b_counts)
    B = counting_to_series([0] + b_counts, labeling, order)
    A_series = (PowerSeries.one(order) - B).inverse()
    a_counts = series_to_counting(A_series, labeling)
    A = catalog.custom(list(a_counts), labeling, name="reconstructed")
    table = parts_table(A, 3, order)
    # row m=1 recovers the planted irreducible counts
    assert [table.entries(n, 1) for n in range(1, order + 1)] == b_counts
    # row m=2 equals the counting convolution of B with itself
    two = series_to_counting(B * B, labeling)
    assert [table.entries(n, 2) for n in range(1, order + 1)] == list(two[1:])


def test_periodic_reindex_linear_matchings():
    A = catalog.linear_matchings()
    R = periodic_reindex(A)
    assert R.labeling == "unlabeled" and R.period == 1
    assert [R.value(n) for n in range(4)] == [1, 2, 72, 10800]
    with pytest.raises(PeriodMismatch):
        periodic_reindex(catalog.tournaments(1))


def test_lift_identity_full_grid():
    rep = lift_consistency(8, 5)
    assert rep.all_equal and rep.mismatches == ()


def test_lift_identity_values_explicitly():
    # pairs (permutation, linear order) of size n with m blocks = n! * ip_n^(m)
    pairs = parts_table(catalog.linear_orders(2), 5, 6)
    plain = parts_table(catalog.permutations(1), 5, 6)
    for n in range(1, 7):
        for m in range(1, 6):
            assert pairs.entries(n, m) == factorial(n) * plain.entries(n, m)


def test_simple_recurrence_tracks_binomial_weights(tournaments1):
    # recompute the labeled first-part recurrence by hand for one class
    a = tournaments1.values(8)
    b = [0] * 9
    for n in range(1, 9):
        b[n] = a[n] - sum(comb(n, k) * b[k] * a[n - k] for k in range(1, n))
    table = parts_table(tournaments1, 1, 8)
    assert [table.entries(n, 1) for n in range(1, 9)] == b[1:]
