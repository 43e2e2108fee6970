"""Part-count tables: inversion, recurrences, periodic reindexing, the lift.

The term-by-term first-part loop and the term-by-term convolution, with
``math.comb`` binomials, live here only: they are the references both paths
of ``first_part_counts`` (Horner on a Pascal row, and the direct sum) and the
parts-table rows divided through A are checked against."""

import re
from math import comb, factorial
from typing import Callable, Sequence

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seqasym import catalog, decomposition
from seqasym.asymptotics import cyc_class
from seqasym.decomposition import (
    first_part_counts,
    irreducible_counts,
    irreducible_series,
    lift_consistency,
    part_count,
    parts_table,
    periodic_reindex,
    verify_halving_identity,
    verify_simple_recurrence,
)
from seqasym.errors import NegativeIrreducibleCount, PeriodMismatch, RangeError
from seqasym.reference_tables import REFERENCE_TABLES
from seqasym.series import PowerSeries, counting_to_series, series_to_counting
from seqasym.suites import run_suite


def _first_part_plain(a: Sequence[int], weight: Callable[[int, int], int] | None) -> list[int]:
    """The recurrence of :func:`first_part_counts` term by term, with its
    binomials from ``math.comb``: the reference."""
    x = [0] * len(a)
    for n in range(1, len(a)):
        acc = a[n]
        for k in range(1, n):
            if x[k] and a[n - k]:
                acc -= (weight(n, k) * x[k] if weight else x[k]) * a[n - k]
        x[n] = acc
    return x


def _convolve_plain(f: Sequence[int], g: Sequence[int], labeled: bool) -> list[int]:
    """h_n = sum_k C(n,k) f_k g_{n-k} (no binomial when unlabeled), up to the
    shorter length, term by term: the reference for the parts-table rows."""
    n_max = min(len(f), len(g)) - 1
    return [
        sum((comb(n, k) if labeled else 1) * f[k] * g[n - k] for k in range(n + 1))
        for n in range(n_max + 1)
    ]


def _rows_by_convolution(b: Sequence[int], m_max: int, labeled: bool) -> list[list[int]]:
    """Rows 0..m_max of a parts table as repeated products with b."""
    rows = [[1] + [0] * (len(b) - 1)]
    for _ in range(m_max):
        rows.append(_convolve_plain(rows[-1], b, labeled))
    return rows


def _rooted(n: int, k: int) -> int:
    """The cycle-class weight C(n-1, k-1)."""
    return comb(n - 1, k - 1)


def _cycles(a: Sequence[int]) -> list[int]:
    """c_0 = 0 and c_1..c_n of the cycle class of the labeled class a_0..a_n,
    as ``cyc_class`` computes them: to compare with the plain loop on
    ``_rooted``."""
    return [0] + cyc_class(catalog.custom(a, "labeled")).values(len(a) - 1)[1:]


def test_convolve_weights():
    ones = [1] * 7
    # e^z · e^z = e^{2z} labeled; 1/(1-z)^2 unlabeled
    assert _convolve_plain(ones, ones, labeled=True) == [2**n for n in range(7)]
    assert _convolve_plain(ones, ones, labeled=False) == [n + 1 for n in range(7)]
    assert _convolve_plain(ones, ones[:3], labeled=False) == [1, 2, 3]


@st.composite
def _decomposable_classes(draw):
    """(a, b, labeling, period) for A = SEQ(B) with a drawn b: dense values
    (ratios of a mostly not integers), or one atom c·z^p, as in
    linear_orders(1), whose rows are sparse."""
    labeling = draw(st.sampled_from(["labeled", "unlabeled"]))
    p = draw(st.sampled_from([1, 2]))
    n_max = draw(st.integers(p, 24))
    if draw(st.booleans()):
        support = draw(st.lists(st.integers(0, 40), min_size=n_max, max_size=n_max))
    else:
        support = [draw(st.integers(1, 5))] + [0] * (n_max - 1)
    support[0] = max(support[0], 1)  # a nonzero value on every multiple of p
    b = [0] * (n_max + 1)
    for k in range(p, n_max + 1, p):
        b[k] = support[k // p - 1]
    labeled = labeling == "labeled"
    a = [1]
    for n in range(1, n_max + 1):
        a.append(sum((comb(n, k) if labeled else 1) * b[k] * a[n - k] for k in range(1, n + 1)))
    return a, b, labeling, p


@given(_decomposable_classes(), st.integers(0, 5))
@settings(max_examples=80, deadline=None)
def test_parts_rows_match_repeated_convolution(cls, m_max):
    """Row m+1 is row m minus row m divided by A: the same rows as repeated
    products with b, on labeled and unlabeled classes of period 1 and 2."""
    a, b, labeling, p = cls
    n_max = len(a) - 1
    table = parts_table(catalog.custom(a, labeling, p, name="drawn"), m_max, n_max)
    want = _rows_by_convolution(b, m_max, labeling == "labeled")
    assert [list(table.row(m)) for m in range(m_max + 1)] == want


@pytest.mark.parametrize("A", catalog.catalog_classes(3), ids=lambda A: A.name)
def test_parts_rows_match_repeated_convolution_on_the_catalog(A):
    labeled = A.labeling == "labeled"
    b = _first_part_plain(A.values(40), comb if labeled else None)
    table = parts_table(A, 5, 40)
    assert [list(table.row(m)) for m in range(6)] == _rows_by_convolution(b, 5, labeled)


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
    for m in (1, 5):
        with pytest.raises(NegativeIrreducibleCount) as err:
            parts_table(A, m, 6)
        assert str(err.value) == "matchings_labeled: b_4^(1) = -3 < 0; not sequence-decomposable"


@pytest.mark.parametrize("A", catalog.catalog_classes(3), ids=lambda A: A.name)
def test_part_count_matches_table(A):
    for n in range(31):
        for m in range(6):
            assert part_count(A, m, n) == parts_table(A, m, n).entries(n, m), (n, m)


def test_part_count_rejects_what_the_table_rejects():
    A = catalog.matchings_labeled()
    for m, n in [(1, 4), (1, 6), (2, 6), (3, 8)]:
        with pytest.raises(NegativeIrreducibleCount) as via_table:
            parts_table(A, m, n)
        with pytest.raises(NegativeIrreducibleCount) as via_entry:
            part_count(A, m, n)
        assert str(via_entry.value) == str(via_table.value)
        assert str(via_entry.value).startswith(f"{A.name}: b_4^(1) = ")
    # no parts: nothing to decompose, nothing raised
    assert part_count(A, 0, 6) == parts_table(A, 0, 6).entries(6, 0) == 0
    assert part_count(A, 0, 0) == 1
    with pytest.raises(RangeError):
        part_count(A, -1, 4)


_POWER_OF_TWO = st.integers(min_value=0, max_value=80).map(lambda e: 1 << e)
_OTHER = st.integers(min_value=0, max_value=10**12).filter(lambda v: not v or v & (v - 1))


@given(
    st.lists(st.one_of(_POWER_OF_TWO, _OTHER), min_size=2, max_size=14),
    st.sampled_from(["labeled", "unlabeled"]),
)
@settings(max_examples=80, deadline=None)
def test_shifted_recurrence_on_mixed_values(tail, labeling):
    """Powers of two mixed with other values and zeros: ratios that are
    mostly not integers, so no size takes the Horner form: the dense sizes
    add the products directly, the sparse ones sum their nonzero terms."""
    assume(any(v and not v & (v - 1) for v in tail) and any(v & (v - 1) for v in tail))
    A = catalog.custom([1] + tail, labeling, name="mixed")
    rep = verify_simple_recurrence(A, len(tail))
    assert not rep, rep[:3]
    a = [1] + tail
    assert irreducible_counts(A, len(tail)) == _first_part_plain(
        a, comb if labeling == "labeled" else None
    )
    assert _cycles(a) == _first_part_plain(a, _rooted)


_RATIO = st.one_of(
    st.just(1),
    st.integers(min_value=1, max_value=40).map(lambda e: 1 << e),
    st.integers(min_value=3, max_value=10**4),
)


@given(
    st.lists(_RATIO, min_size=1, max_size=16),
    st.booleans(),
    st.booleans(),
    st.sampled_from(["labeled", "unlabeled"]),
)
@settings(max_examples=80, deadline=None)
def test_horner_matches_plain_loop_and_series(ratios, geometric, trailing_zero, labeling):
    """Integer ratios a_j/a_{j-1} (ones, powers of two, other integers), with
    an optional trailing zero: the Horner form gives the reference values.
    A geometric draw (a_n = r^n, or n!·r^n when labeled) has b = r·z, so
    sizes 2..7 take Horner and sizes 8..16 sum their one nonzero term."""
    if geometric:
        ratios = [ratios[0] * (j if labeling == "labeled" else 1) for j in range(1, 17)]
    a = [1]
    for r in ratios:
        a.append(a[-1] * r)
    if trailing_zero:
        a.append(0)
    n = len(a) - 1
    A = catalog.custom(a, labeling, name="ratios")
    b = irreducible_counts(A, n)
    assert b == _first_part_plain(a, comb if labeling == "labeled" else None)
    assert _cycles(a) == _first_part_plain(a, _rooted)
    assert b == list(series_to_counting(irreducible_series(A, n), labeling))
    if geometric:
        assert b[:17] == [0, ratios[0]] + [0] * 15


@pytest.mark.parametrize("A", catalog.catalog_classes(3), ids=lambda A: A.name)
def test_horner_and_plain_loop_agree_on_the_catalog(A):
    a = A.values(60)
    labeled = A.labeling == "labeled"
    assert first_part_counts(a, labeled=labeled) == _first_part_plain(
        a, comb if labeled else None
    )


@pytest.mark.parametrize(
    "A",
    [c for c in catalog.catalog_classes(3) if c.labeling == "labeled"],
    ids=lambda A: A.name,
)
def test_cycle_weight_matches_plain_loop_on_the_catalog(A):
    """The cycle class, divided through A on the row of C(n, k) at the
    Horner sizes, gives the counts of the C(n-1, k-1) recurrence."""
    a = A.values(60)
    assert _cycles(a) == _first_part_plain(a, _rooted)


@pytest.mark.parametrize(
    "a, weight",
    [
        # n!·c_n with c_n = 1 up to 15, then doubling: b = z through n = 15,
        # so sizes 8..17 are sparse and the dense sizes resume at 18
        ([factorial(n) << max(n - 15, 0) for n in range(41)], comb),
        # the same, with a last value that leaves a ratio non-integer: the
        # dense sizes sum directly instead of in Horner form
        ([factorial(n) << max(n - 15, 0) for n in range(40)] + [1], comb),
        # the cycle class of a_n = c_n: A = e^z through n = 15, so the
        # cycle counts are z there and the dense sizes again resume at 18
        ([1 << max(n - 15, 0) for n in range(41)], _rooted),
    ],
    ids=["horner", "direct", "cycle"],
)
def test_pascal_row_rebuilt_after_sparse_sizes(monkeypatch, a, weight):
    """Dense sizes that follow sparse sizes rebuild the row the sparse sizes
    left behind, and agree with the plain loop."""
    sizes = []
    pascal_row = decomposition._pascal_row

    def counting(m):
        sizes.append(m + 1)
        return pascal_row(m)

    monkeypatch.setattr(decomposition, "_pascal_row", counting)
    got = first_part_counts(a, labeled=True) if weight is comb else _cycles(a)
    assert got == _first_part_plain(a, weight)
    assert sizes == [2, 18]


@pytest.mark.parametrize(
    "A",
    catalog.catalog_classes(),
    ids=lambda A: A.name,
)
def test_first_part_recurrence_all_catalog(A):
    rep = verify_simple_recurrence(A, 18)
    assert not rep, rep[:3]


@pytest.mark.parametrize(
    "A",
    [c for c in catalog.catalog_classes() if c.labeling == "labeled"],
    ids=lambda A: A.name,
)
def test_halving_identity_labeled_catalog(A):
    rep = verify_halving_identity(A, 18)
    assert not rep, rep[:3]


@pytest.mark.parametrize("bad_n", [1, 7, 18])
def test_both_recurrence_checks_catch_a_corrupted_count(monkeypatch, tournaments1, bad_n):
    """One wrong b_n from the integer core shows in both links of the chain:
    against the series inversion, and against the halving identity."""
    honest = decomposition.irreducible_counts

    def corrupted(A, n_max):
        b = honest(A, n_max)
        b[bad_n] += 1
        return b

    monkeypatch.setattr(decomposition, "irreducible_counts", corrupted)
    good = honest(tournaments1, 18)[bad_n]
    assert verify_simple_recurrence(tournaments1, 18) == ((bad_n, good, good + 1),)
    assert verify_halving_identity(tournaments1, 18) == ((bad_n, good + 1, good),)


def test_recurrences_suite_names_each_reference(monkeypatch):
    honest = decomposition.irreducible_counts

    def corrupted(A, n_max):
        b = honest(A, n_max)
        b[5] += 1
        return b

    monkeypatch.setattr(decomposition, "irreducible_counts", corrupted)
    checks = run_suite("recurrences")
    assert checks and all(c.status == "fail" for c in checks)
    for c in checks:
        if c.name.startswith("first-part-recurrence-"):
            assert re.fullmatch(r"n=5 series=\d+ recurrence=\d+", c.detail), c
        else:
            assert re.fullmatch(r"n=5 recurrence=\d+ identity=\d+", c.detail), c


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
    assert rep == ()


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
