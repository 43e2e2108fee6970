"""Finite-range growth audits: traces, flags and verdicts, against a
Fraction transcription of their definitions."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqasym import catalog
from seqasym.audit import AuditReport, _fraction, audit
from seqasym.catalog import CountingSequence
from seqasym.errors import RangeError

SURVEY_N = 40


def _reduced_values(A, N):
    """The audited sequence u_0..u_N as Fractions: a_{pk}/(pk)! for a labeled
    class of period p, a_{pk} for an unlabeled one."""
    p = A.period
    a = A.values(p * N)
    if A.labeling == "labeled":
        return [Fraction(a[n], factorial(n)) for n in range(0, p * N + 1, p)]
    return [Fraction(x) for x in a[::p]]


def fraction_reference(name, values, N, r_max):
    """The report of ``audit`` on a sequence without zeros, transcribed from
    its definitions in Fraction arithmetic on the reduced values u_0..u_N:
    S_{n,r} summed term by term, and the midpoint test rescanned at every
    size."""
    u = [Fraction(v) for v in values[: N + 1]]
    ratios = tuple(u[n - 1] / u[n] for n in range(1, N + 1))
    conv = {
        r: tuple(
            sum(abs(u[k] * u[n - k]) for k in range(r, n - r + 1)) / u[n - r]
            for n in range(2 * r, N + 1)
        )
        for r in range(1, r_max + 1)
    }

    def violations(n):
        return [
            k
            for k in range(1, n // 2)
            if abs(u[k] * u[n - k]) < abs(u[k + 1] * u[n - k - 1])
        ]

    linear = [n * ratios[n - 1] for n in range(1, N + 1)]
    tail_start = N - N // 4 + 1
    first = next(((n, violations(n)[0]) for n in range(2, N + 1) if violations(n)), None)
    r_start, r_end = ratios[tail_start - 1], ratios[N - 1]
    shrinks = r_end < r_start and 10 * r_end <= 9 * r_start
    bad_tail = sum(1 for n in range(tail_start, N + 1) if violations(n))
    persistent = 2 * bad_tail > N - tail_start + 1
    return AuditReport(
        class_name=name,
        N=N,
        r_max=r_max,
        ratio_trace=ratios,
        convolution_trace=conv,
        ratio_linear_bound=max(linear[tail_start - 1 :]) <= max(linear[: tail_start - 1]),
        ratio_linear_witness=max(linear),
        midpoint_monotone=first is None,
        midpoint_first_violation=first,
        verdict="evidence-consistent" if shrinks and not persistent else "visibly-failing",
    )

EXPECTED_VERDICTS = {
    "tournaments(d=1)": "evidence-consistent",
    "tournaments(d=2)": "evidence-consistent",
    "tournaments(d=3)": "evidence-consistent",
    "linear_orders(d=1)": "visibly-failing",
    "linear_orders(d=2)": "evidence-consistent",
    "linear_orders(d=3)": "evidence-consistent",
    "permutations(d=1)": "evidence-consistent",
    "permutations(d=2)": "evidence-consistent",
    "permutations(d=3)": "evidence-consistent",
    "matchings(d=1)": "evidence-consistent",
    "matchings(d=2)": "evidence-consistent",
    "matchings(d=3)": "evidence-consistent",
    "linear_matchings[/2]": "evidence-consistent",
    "unlabeled_tournaments": "evidence-consistent",
    "constant-1": "visibly-failing",
}


@pytest.mark.parametrize("A", catalog.catalog_classes(), ids=lambda A: A.name)
def test_catalog_survey_verdicts(A):
    rep = audit(A, SURVEY_N)
    assert rep.verdict == EXPECTED_VERDICTS[rep.class_name]


def test_tournament_ratio_trace_closed_form(tournaments1):
    rep = audit(tournaments1, SURVEY_N)
    for n in range(1, SURVEY_N + 1):
        assert rep.ratio(n) == Fraction(n, 2 ** (n - 1))
    # the ratio trace is strictly decreasing from n = 2 on
    assert all(b < a for a, b in zip(rep.ratio_trace[1:], rep.ratio_trace[2:]))
    assert rep.ratio_linear_bound and rep.midpoint_monotone
    assert rep.ratio_linear_witness == max(
        Fraction(n * n, 2 ** (n - 1)) for n in range(1, SURVEY_N + 1)
    )
    with pytest.raises(RangeError):
        rep.ratio(0)


def test_convolution_trace_concentrates_at_the_ends(tournaments1):
    """S_{n,r} is the normalized central convolution; it must stay near 2 u_r.

    Both boundary summands contribute exactly u_r, so S >= 2 u_r always, and
    for a sequence with fast-growing terms the interior adds almost nothing.
    """
    rep = audit(tournaments1, SURVEY_N)
    u = _reduced_values(tournaments1, SURVEY_N)
    for r in (1, 2, 3):
        trace = rep.convolution_trace[r]
        assert len(trace) == SURVEY_N - 2 * r + 1
        for s in trace[-10:]:
            assert 2 * u[r] <= s <= 3 * u[r]


def test_flat_sequence_fails_visibly():
    rep = audit(catalog.constant_ones(), SURVEY_N)
    assert rep.verdict == "visibly-failing"
    assert set(rep.ratio_trace) == {Fraction(1)}
    assert not rep.ratio_linear_bound


def test_even_support_reindexing_changes_the_audited_object():
    # The raw even-index matching counts, reduced by (2i)!, shrink like
    # 1/(2^i i!), so the ratio trace grows linearly and the audit must say so.
    rep = audit(catalog.matchings_labeled(), SURVEY_N)
    assert rep.class_name == "matchings_labeled[/2]"
    assert rep.verdict == "visibly-failing"
    assert rep.ratio(SURVEY_N) == 2 * SURVEY_N
    # The same pairs counted with full linear labels pass.
    assert audit(catalog.linear_matchings(), SURVEY_N).verdict == "evidence-consistent"


def test_zero_inside_range_is_reported():
    rep = audit(catalog.custom([1, 1, 0, 1] + [1] * 47, "unlabeled", name="gappy"), 12)
    assert rep.verdict == "visibly-failing"
    assert rep.notes and "u_2 = 0" in rep.notes[0]
    assert rep.ratio_trace == (Fraction(1),)


def test_audit_domain_errors(tournaments1):
    with pytest.raises(RangeError):
        audit(tournaments1, 9)
    with pytest.raises(RangeError):
        audit(tournaments1, 20, r_max=0)
    with pytest.raises(RangeError, match="defines values up to n=2, asked for 12"):
        audit(catalog.custom([1, 2, 3], "unlabeled", name="short"), 12)


@pytest.mark.parametrize(
    "A, N",
    [pytest.param(A, SURVEY_N, id=A.name) for A in catalog.catalog_classes(3)]
    + [
        pytest.param(catalog.tournaments(d), 120, id=f"tournaments(d={d})-N120")
        for d in (1, 2, 3)
    ]
    + [
        pytest.param(A, 120, id=f"{A.name}-N120")
        for A in (catalog.matchings_labeled(), catalog.linear_matchings())
    ],
)
def test_integer_traces_match_fraction_reference(A, N):
    rep = audit(A, N)
    assert rep == fraction_reference(rep.class_name, _reduced_values(A, N), N, 3)


@pytest.mark.parametrize(
    "A, B, verdict",
    [
        (catalog.permutations(1), catalog.permutations(1), "evidence-consistent"),
        (catalog.tournaments(1), catalog.permutations(1), "evidence-consistent"),
        (catalog.constant_ones(), catalog.constant_ones(), "visibly-failing"),
    ],
    ids=lambda x: getattr(x, "name", x),
)
def test_termwise_products_keep_the_verdict(A, B, verdict):
    """The termwise product of two reduced sequences, audited as an unlabeled
    custom class, keeps the verdict its factors share."""
    product = [x * y for x, y in zip(_reduced_values(A, SURVEY_N), _reduced_values(B, SURVEY_N))]
    assert all(v.denominator == 1 for v in product)
    C = catalog.custom(product, "unlabeled", name=f"{A.name} * {B.name}")
    rep = audit(C, SURVEY_N)
    assert rep.verdict == verdict == audit(A, SURVEY_N).verdict == audit(B, SURVEY_N).verdict
    assert rep == fraction_reference(rep.class_name, product, SURVEY_N, 3)


@st.composite
def _labeled_values(draw):
    """(a_0..a_{pN}, p, N) of a labeled custom class: a_{pk} = (pk)!·u_k with
    drawn integers u_k, or drawn a_{pk} with an odd a_2, so u_2 = a_2/2 is
    not an integer."""
    p = draw(st.sampled_from([1, 2]))
    N = draw(st.integers(10, 16))
    support = draw(st.lists(st.integers(1, 10**6), min_size=N, max_size=N))
    whole = draw(st.booleans())
    if not whole:
        support[2 // p - 1] |= 1
    a = [1]
    for n in range(1, p * N + 1):
        a.append(0 if n % p else support[n // p - 1] * (factorial(n) if whole else 1))
    return a, p, N


@settings(max_examples=60, deadline=None)
@given(_labeled_values(), st.integers(1, 5))
def test_labeled_audit_matches_fraction_reference(drawn, r_max):
    """Labeled classes audited on their own integers, and those whose reduced
    values are integers, give the reference report."""
    a, p, N = drawn
    A = catalog.custom(a, "labeled", p, name="drawn")
    rep = audit(A, N, r_max)
    assert rep == fraction_reference(rep.class_name, _reduced_values(A, N), N, r_max)


@st.composite
def _custom_classes(draw):
    """(A, N, zero) for a labeled or unlabeled class of period 1..3 on drawn
    values a_{pk}, or a_{pk} = (pk)!·u_k with drawn integers u_k (labeled),
    with a zero on the support at k = zero (a_{p·zero} = 0) or none.
    ``custom`` refuses a zero on the support of a periodic class, so the
    class is built as a CountingSequence directly."""
    labeling = draw(st.sampled_from(["labeled", "unlabeled"]))
    p = draw(st.integers(1, 3))
    N = draw(st.integers(10, 16))
    support = draw(st.lists(st.integers(1, 10**6), min_size=N, max_size=N))
    whole = labeling == "labeled" and draw(st.booleans())  # integer reduced values
    zero = draw(st.one_of(st.none(), st.integers(1, N)))
    if zero is not None:
        support[zero - 1] = 0
    a = [1]
    for n in range(1, p * N + 1):
        a.append(0 if n % p else support[n // p - 1] * (factorial(n) if whole else 1))
    return CountingSequence("drawn", labeling, p, lambda n: a[: n + 1]), N, zero


@settings(max_examples=80, deadline=None)
@given(_custom_classes(), st.integers(1, 5))
def test_custom_class_audit_matches_its_reduced_values(drawn, r_max):
    """audit() reads a class of any labeling and period on its own values;
    without a zero it gives the reference report of the reduced values, and
    with one a failing report whose ratio trace stops before the zero."""
    A, N, zero = drawn
    rep = audit(A, N, r_max)
    u = _reduced_values(A, N)
    if zero is None:
        assert rep == fraction_reference(rep.class_name, u, N, r_max)
    else:
        assert rep == AuditReport(
            class_name=rep.class_name,
            N=N,
            r_max=r_max,
            ratio_trace=tuple(u[n - 1] / u[n] for n in range(1, zero)),
            convolution_trace={},
            ratio_linear_bound=False,
            midpoint_monotone=False,
            verdict="visibly-failing",
            notes=(f"u_{zero} = 0: ratios undefined past n={zero - 1}",),
        )


_TWO_ADIC = st.builds(lambda num, e: num << e, st.integers(1, 40), st.integers(0, 300))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(10, 24).flatmap(lambda N: st.lists(_TWO_ADIC, min_size=N, max_size=N)),
    st.integers(1, 5),
)
def test_power_of_two_factors_match_fraction_reference(tail, r_max):
    """Unlabeled values num·2^e, most of their bits a power of two."""
    values = [1] + tail
    N = len(tail)
    A = catalog.custom(values, "unlabeled", name="two-adic")
    assert audit(A, N, r_max) == fraction_reference("two-adic", values, N, r_max)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(st.just(0), st.integers(-(2**200), 2**200)),
    st.integers(-(2**120), 2**120).map(lambda v: 2 * v + 1),
    st.integers(0, 300),
    st.integers(0, 300),
)
def test_fraction_matches_the_normalising_constructor(num, den_odd, num_twos, den_twos):
    """The one-gcd build is a Fraction in lowest terms with a positive
    denominator, for either sign of den_odd and for num = 0."""
    num <<= num_twos
    got = _fraction(num, den_odd, den_twos)
    want = Fraction(num, den_odd << den_twos)
    assert type(got) is Fraction
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert got.denominator > 0
