"""Expansion coefficients, leading terms, exact partial sums, kernel composition."""

import re
from fractions import Fraction
from math import comb, factorial

import pytest

from seqasym import catalog
from seqasym.asymptotics import (
    CONSTRUCTIONS,
    bender_compose,
    cyc_class,
    cyc_coefficients,
    cyc_part_count,
    evaluate_partial_sum,
    leading_term,
    seq_coefficients,
    set_via_seq_coefficients,
)
from seqasym.decomposition import irreducible_series, parts_table
from seqasym.errors import LeadingTermUndefined, RangeError, UnsupportedF
from seqasym.reference_tables import REFERENCE_TABLES
from seqasym.series import PowerSeries, counting_to_series, series_to_counting

from conftest import construction_refusal


# ---------------------------------------------------------------------------
# sequence-construction coefficient tables
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "key",
    [k for k in REFERENCE_TABLES if k[2] == "coefficients"],
    ids=lambda k: f"{k[0]}-d{k[1]}",
)
def test_coefficient_tables_match_frozen_data(key):
    class_key, d, _ = key
    ref = REFERENCE_TABLES[key]
    A = catalog.resolve_class(class_key, d)
    hi = ref.start_index + len(ref.rows[0]) - 1
    table = seq_coefficients(A, 5, hi)
    for m in range(1, 6):
        for k in range(ref.start_index, hi + 1):
            assert table.entries(k, m) == ref.value(k, m), (class_key, d, k, m)


def test_coefficients_from_part_convolutions(tournaments1):
    """d_{k,m} = m (b_k^(m-1) - 2 b_k^(m) + b_k^(m+1)) on raw counts."""
    table = seq_coefficients(tournaments1, 4, 7)
    B = irreducible_series(tournaments1, 7)
    powers = {j: series_to_counting(B.pow(j), "labeled") for j in range(6)}
    for m in range(1, 5):
        for k in range(8):
            expect = m * (powers[m - 1][k] - 2 * powers[m][k] + powers[m + 1][k])
            assert table.entries(k, m) == expect


def test_coefficient_table_bounds(tournaments1):
    table = seq_coefficients(tournaments1, 3, 5)
    assert table.row(2) == tuple(table.entries(k, 2) for k in range(6))
    with pytest.raises(RangeError):
        table.entries(6, 1)
    with pytest.raises(RangeError):
        table.entries(0, 4)


def test_column_sums_vanish(tournaments1):
    table = seq_coefficients(tournaments1, 9, 8)
    for k in range(1, 9):
        assert sum(table.entries(k, m) for m in range(1, 10)) == 0
    assert sum(table.entries(0, m) for m in range(1, 10)) == 1


def test_sparse_parts_shrink_the_columns():
    # a_n = [n even]: every irreducible part has size 2, so column k is
    # supported on m <= k//2 + 1 only.
    A = catalog.custom([1, 0, 1, 0, 1, 0, 1, 0, 1], "unlabeled", name="even-runs")
    table = seq_coefficients(A, 8, 8)
    for k in range(9):
        cap = k // 2 + 1
        for m in range(cap + 1, 9):
            assert table.entries(k, m) == 0


# ---------------------------------------------------------------------------
# cycle construction
# ---------------------------------------------------------------------------


def test_cycle_coefficients_first_row(tournaments1):
    table = cyc_coefficients(tournaments1, 3, 6)
    B = series_to_counting(irreducible_series(tournaments1, 6), "labeled")
    assert table.entries(0, 1) == 1
    for k in range(1, 7):
        assert table.entries(k, 1) == -B[k]
    assert table.entries(3, 2) == 2


def test_cycle_class_counts(tournaments1):
    cc = cyc_class(tournaments1)
    assert cc.values(6) == [1, 1, 1, 4, 38, 728, 26704]
    assert cc.labeling == "labeled"


@pytest.mark.parametrize(
    "A",
    [c for c in catalog.catalog_classes(3) if c.labeling == "labeled"],
    ids=lambda A: A.name,
)
def test_cycle_class_matches_log_series(A):
    """The integer recurrence agrees with n!·[z^n](-log(1-B)) over Fraction series."""
    n_max = 20
    log_inv = -(PowerSeries.one(n_max) - irreducible_series(A, n_max)).log()
    assert cyc_class(A).values(n_max)[1:] == list(series_to_counting(log_inv, "labeled")[1:])


@pytest.mark.parametrize(
    "A",
    [c for c in catalog.catalog_classes(3) if c.labeling == "labeled"],
    ids=lambda A: A.name,
)
def test_cycle_class_matches_per_size_recurrence(A):
    """The one-pass filler equals c_n = a_n - sum_k C(n-1,k-1) c_k a_{n-k}, per n."""
    a = A.values(60)
    c = [1]
    for n in range(1, 61):
        c.append(a[n] - sum(comb(n - 1, k - 1) * c[k] * a[n - k] for k in range(1, n)))
    assert cyc_class(A).values(60) == c
    # a miss past the filled range refills from the start
    cc = cyc_class(A)
    assert [cc.value(n) for n in (5, 40, 12)] == [c[5], c[40], c[12]]


def test_cycle_class_keeps_the_period():
    cc = cyc_class(catalog.linear_matchings())
    assert cc.period == 2
    assert cc.values(4) == [1, 0, 2, 0, 60]
    assert not any(cc.values(30)[1::2])


def test_cycle_part_counts_sum_to_class(tournaments1):
    assert cyc_part_count(tournaments1, 2, 4) == 8
    cc = cyc_class(tournaments1)
    for n in range(1, 7):
        total = sum(cyc_part_count(tournaments1, m, n) for m in range(1, n + 1))
        assert total == cc.value(n)


def test_cycle_requires_labeled():
    for P in (catalog.permutations(1), catalog.custom([1, 1, 2, 5], "unlabeled", name="u")):
        refusal = re.escape(
            f"--construction cyc: defined for labeled classes only; {P.name} is unlabeled"
        )
        with pytest.raises(RangeError, match=refusal):
            evaluate_partial_sum(P, 1, 10, 1, construction="cyc")
        with pytest.raises(RangeError, match=refusal):
            cyc_coefficients(P, 2, 4)
        with pytest.raises(RangeError, match=refusal):
            cyc_part_count(P, 1, 4)
        with pytest.raises(RangeError, match=refusal):
            cyc_class(P)
    with pytest.raises(RangeError, match="^--m 0: m must be at least 1$"):
        cyc_part_count(catalog.tournaments(1), 0, 4)


# ---------------------------------------------------------------------------
# set construction routed through sequences
# ---------------------------------------------------------------------------


def test_set_coefficients_store_irreducible_counts():
    P = catalog.permutations(1)
    table = set_via_seq_coefficients(P, 1, 5)
    assert [table.entries(k, 1) for k in range(6)] == [1, 1, 1, 3, 13, 71]


def test_set_construction_is_unlabeled_only(tournaments1):
    labeled = re.escape(
        "--construction set: defined for unlabeled classes only; tournaments(d=1) is labeled"
    )
    with pytest.raises(RangeError, match=labeled):
        set_via_seq_coefficients(tournaments1, 1, 4)
    with pytest.raises(RangeError, match=labeled):
        evaluate_partial_sum(tournaments1, 1, 20, 3, construction="set")
    P = catalog.permutations(1)
    with pytest.raises(RangeError, match="^--m 2: the set construction defines only"):
        set_via_seq_coefficients(P, 2, 4)
    with pytest.raises(RangeError, match="^--m 3: the set construction defines only"):
        evaluate_partial_sum(P, 3, 20, 3, construction="set")


BUILDERS = {"seq": seq_coefficients, "cyc": cyc_coefficients, "set": set_via_seq_coefficients}


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("cls", ["tournaments", "permutations"])
@pytest.mark.parametrize("construction", CONSTRUCTIONS)
def test_construction_rules_refuse_by_argument(construction, cls, m):
    """Each coefficient builder and evaluate_partial_sum either admit a
    (construction, class, m) or refuse it naming --construction or --m."""
    A = catalog.resolve_class(cls)
    refusal = construction_refusal(construction, A.labeling, m)
    calls = [
        lambda: BUILDERS[construction](A, m, 4),
        lambda: evaluate_partial_sum(A, m, 20, 3, construction=construction),
    ]
    for call in calls:
        if refusal is None:
            call()
        else:
            with pytest.raises(RangeError) as err:
                call()
            assert str(err.value).startswith(refusal)


def test_unknown_construction_is_refused(tournaments1):
    known = "^--construction mset: unknown construction; known: seq, cyc, set$"
    with pytest.raises(RangeError, match=known):
        evaluate_partial_sum(tournaments1, 1, 20, 3, construction="mset")


def test_set_evaluation_subtracts_and_reports_no_exact():
    P = catalog.permutations(1)
    ev = evaluate_partial_sum(P, 1, 20, 3, construction="set")
    hand = 1 - sum(
        b * Fraction(P.value(20 - k), P.value(20))
        for k, b in [(1, 1), (2, 1), (3, 3)]
    )
    assert ev.partial_sum == hand
    assert ev.exact_probability is None
    assert ev.residual is None and ev.normalized_residual is None
    with pytest.raises(RangeError):
        evaluate_partial_sum(P, 2, 20, 3, construction="set")


# ---------------------------------------------------------------------------
# leading terms
# ---------------------------------------------------------------------------


def test_leading_term_tournaments_two_parts(tournaments1):
    lt = leading_term(tournaments1, 2)
    assert (lt.multiplier, lt.falling_factorial_order, lt.ratio_offset) == (2, 1, 1)
    for n in (6, 10, 14):
        assert lt.term_value(tournaments1, n) == Fraction(4 * n, 2**n)


def test_leading_term_unlabeled_has_no_falling_factorial():
    P = catalog.permutations(1)
    lt = leading_term(P, 3)
    assert lt.falling_factorial_order == 0 and lt.ratio_offset == 2
    assert lt.term_value(P, 30) == Fraction(1, 290)


def test_leading_term_matchings_two_parts():
    M = catalog.matchings(1)
    lt = leading_term(M, 2)
    for n in range(3, 9):
        assert lt.term_value(M, n) == Fraction(2, 2 * n - 1)


def test_leading_term_periodic_uses_actual_size():
    LM = catalog.linear_matchings()
    lt = leading_term(LM, 2)
    assert lt.multiplier == 2
    assert lt.falling_factorial_order == 2 and lt.ratio_offset == 2
    assert lt.term_value(LM, 10) == Fraction(2, 9)
    with pytest.raises(RangeError):
        lt.term_value(LM, 9)


def test_leading_term_undefined_without_size_one_or_period():
    A = catalog.custom([1, 0, 1, 1, 3], "unlabeled", name="gapped")
    with pytest.raises(LeadingTermUndefined):
        leading_term(A, 2)
    with pytest.raises(RangeError):
        leading_term(A, 0)


# ---------------------------------------------------------------------------
# exact partial sums
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cls", ["tournaments", "permutations", "matchings"])
def test_zero_term_expansion_is_one(cls):
    A = getattr(catalog, cls)(1)
    ev = evaluate_partial_sum(A, 1, 8, 0)
    assert ev.partial_sum == 1
    assert ev.terms[0].coefficient == 1 and ev.terms[0].shape == 1


def test_residual_is_an_exact_identity(tournaments1):
    ev = evaluate_partial_sum(tournaments1, 2, 12, 3)
    assert ev.residual == ev.exact_probability - ev.partial_sum
    table = parts_table(tournaments1, 2, 12)
    assert ev.exact_probability == Fraction(
        table.entries(12, 2), tournaments1.value(12)
    )
    # normalization divides by the shape of the first omitted term
    shape = comb(12, 4) * Fraction(tournaments1.value(8), tournaments1.value(12))
    assert ev.normalized_residual == ev.residual / shape


def test_one_part_corridor_at_size_fourteen(tournaments1):
    """The first omitted term brackets the residual with a 10% margin."""
    ev = evaluate_partial_sum(tournaments1, 1, 14, 0)
    first_omitted = -2 * Fraction(14 * tournaments1.value(13), tournaments1.value(14))
    assert first_omitted == Fraction(-28, 8192)
    assert abs(ev.residual) <= Fraction(11, 10) * abs(first_omitted)
    assert ev.residual == Fraction(-257846229464856219931, 75557863725914323419136)


def test_normalized_residual_frozen_permutations():
    P = catalog.permutations(1)
    ev = evaluate_partial_sum(P, 1, 30, 4)
    assert ev.normalized_residual == Fraction(
        -2428486325273825932889051683, 15511210043330985984000000
    )


def test_periodic_expansion_steps_by_period():
    LM = catalog.linear_matchings()
    ev = evaluate_partial_sum(LM, 2, 24, 2)
    assert [t.k for t in ev.terms] == [0, 2, 4]
    assert ev.terms[1].coefficient == 4
    assert ev.terms[1].value == Fraction(2, 23)
    with pytest.raises(RangeError, match="^--n 23: size 23 is not a multiple of the period 2$"):
        evaluate_partial_sum(LM, 2, 23, 2)
    # Unlabeled, a_{2k} = k!: in z^2 this is permutations(d=1), so at n = 20
    # every term, the partial sum and the exact law are those at n = 10.
    halves = catalog.custom(
        [factorial(n // 2) if n % 2 == 0 else 0 for n in range(21)], "unlabeled", period=2
    )
    ev = evaluate_partial_sum(halves, 1, 20, 3)
    same = evaluate_partial_sum(catalog.permutations(1), 1, 10, 3)
    assert [(t.k, t.coefficient) for t in ev.terms] == [(0, 1), (2, -2), (4, -1), (6, -4)]
    assert [t.value for t in ev.terms] == [t.value for t in same.terms]
    assert (ev.exact_probability, ev.normalized_residual) == (
        same.exact_probability,
        same.normalized_residual,
    )
    # The set cell steps by the period too: its terms sit at k = 0, 2, 4, 6.
    ev = evaluate_partial_sum(halves, 1, 20, 3, "set")
    same = evaluate_partial_sum(catalog.permutations(1), 1, 10, 3, "set")
    assert [(t.k, t.coefficient) for t in ev.terms] == [(0, 1), (2, 1), (4, 1), (6, 3)]
    assert [t.value for t in ev.terms] == [t.value for t in same.terms]
    assert ev.partial_sum == same.partial_sum


def test_cycle_expansion_rejects_size_off_the_period():
    LM = catalog.linear_matchings()
    with pytest.raises(RangeError, match="^--n 31: size 31 is not a multiple of the period 2$"):
        evaluate_partial_sum(LM, 1, 31, 3, "cyc")
    pairs = catalog.custom([1, 0, 1, 0, 3, 0, 15], "labeled", period=2)
    with pytest.raises(RangeError, match="^--n 3: size 3 is not a multiple of the period 2$"):
        evaluate_partial_sum(pairs, 1, 3, 1, "cyc")
    assert evaluate_partial_sum(LM, 1, 30, 3, "cyc").n == 30


# ---------------------------------------------------------------------------
# closed kernel composition
# ---------------------------------------------------------------------------


def test_kernel_composition_at_zero():
    Z = PowerSeries.zero(5)
    V, W = bender_compose(Z, "seq", 1)
    assert V == PowerSeries.zero(5) and W == PowerSeries.one(5)
    V, W = bender_compose(Z, "cyc", 1)
    assert V == PowerSeries.zero(5) and W == PowerSeries.one(5)


def test_seq_kernel_reproduces_coefficient_rows(tournaments1):
    U = counting_to_series(tournaments1.values(8), "labeled", 8) - PowerSeries.one(8)
    for m in (1, 2, 3):
        V, W = bender_compose(U, "seq", m)
        w_counts = series_to_counting(W, "labeled")
        table = seq_coefficients(tournaments1, m, 8)
        assert list(w_counts) == [table.entries(k, m) for k in range(9)]
        # V carries the m-part counts themselves
        parts = parts_table(tournaments1, m, 8)
        assert list(series_to_counting(V, "labeled")) == [
            parts.entries(n, m) if n else (1 if m == 0 else 0) for n in range(9)
        ]


def test_cyc_kernel_reproduces_coefficient_rows(tournaments1):
    U = -(PowerSeries.one(8) - irreducible_series(tournaments1, 8)).log()
    for m in (1, 2):
        V, W = bender_compose(U, "cyc", m)
        w_counts = series_to_counting(W, "labeled")
        table = cyc_coefficients(tournaments1, m, 8)
        assert list(w_counts) == [table.entries(k, m) for k in range(9)]


def test_kernel_composition_rejections():
    Z = PowerSeries.zero(4)
    with pytest.raises(UnsupportedF):
        bender_compose(Z, "mset", 1)
    with pytest.raises(UnsupportedF):
        bender_compose(Z, "cyc", 0)
    with pytest.raises(RangeError):
        bender_compose(PowerSeries.one(4), "seq", 1)
