"""Asymptotic coefficient tables, leading terms, and exact expansion evaluation.

For a sequence-decomposable class A = SEQ(B) whose reduced counting sequence
is gargantuan, the probability that a uniform size-n object has exactly m
parts expands as

    P(m parts) ~ sum_k  d_{k,m} * shape_k(n),
    d_{k,m}    = m * (b_k^(m-1) - 2 b_k^(m) + b_k^(m+1)),

where the term shape is binom(n,k) * a_{n-k}/a_n for labeled classes,
a_{n-k}/a_n for unlabeled ones, and binom(n, pk) * a_{n-pk}/a_n on the
support of a p-periodic labeled class.  The d_{k,m} are integers; everything
in this module is exact rational arithmetic, and "probabilities" are exact
ratios of counting values, so residuals of truncated expansions are exact too.

Two sibling constructions reuse the same part counts:

* cycles: if A_cyc = CYC(B), the coefficients are  b_k^(m-1) - b_k^(m)  and
  the shapes come from the cycle-class counting values (the exponential
  formula gives the class series 1 + log(1/(1 - B)));
* sets via sequences (unlabeled, one part only): P(irreducible) expands as
  1 - sum_{k>=1} d_k * a_{n-k}/a_n  with d_k the sequence-irreducible counts.

The generic composition route (:func:`bender_compose`) computes, for U with
zero constant term and F from the closed kernel families

    seq: F(x) = (x/(1+x))^m          F'(x) = m x^{m-1} / (1+x)^{m+1}
    cyc: F(x) = (1 - e^{-x})^m / m   F'(x) = e^{-x} (1 - e^{-x})^{m-1}

the pair V = F(U), W = F'(U) by pure series algebra.  With U = A - 1 this
gives an independent derivation of the same coefficient tables: the expansion
coefficients are exactly the counting values of W.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable
from fractions import Fraction
from math import comb, factorial

from .catalog import CountingSequence
from .decomposition import first_part_counts, part_count, parts_table
from .errors import LeadingTermUndefined, RangeError, UnsupportedF
from .series import PowerSeries

__all__ = [
    "CONSTRUCTIONS",
    "CoefficientTable",
    "ExpansionReport",
    "ExpansionTerm",
    "LeadingTerm",
    "seq_coefficients",
    "cyc_coefficients",
    "set_via_seq_coefficients",
    "leading_term",
    "evaluate_partial_sum",
    "bender_compose",
    "cyc_class",
    "cyc_part_count",
]


# ---------------------------------------------------------------------------
# construction rules
# ---------------------------------------------------------------------------

CONSTRUCTIONS = ("seq", "cyc", "set")

# the one labeling a construction is defined for; seq takes either
_LABELING = {"cyc": "labeled", "set": "unlabeled"}


def _admit(A: CountingSequence, construction: str, m: int = 1) -> None:
    """Refuse a construction, class or part count outside the construction rules.

    seq applies to any class, cyc to labeled classes only, and set to
    unlabeled classes with the one-part expansion (m = 1) only.
    """
    if construction not in CONSTRUCTIONS:
        raise RangeError(
            f"--construction {construction}: unknown construction;"
            f" known: {', '.join(CONSTRUCTIONS)}"
        )
    if m < 1:
        raise RangeError(f"--m {m}: m must be at least 1")
    labeling = _LABELING.get(construction, A.labeling)
    if A.labeling != labeling:
        raise RangeError(
            f"--construction {construction}: defined for {labeling} classes only;"
            f" {A.name} is {A.labeling}"
        )
    if construction == "set" and m != 1:
        raise RangeError(f"--m {m}: the set construction defines only the one-part expansion")


# ---------------------------------------------------------------------------
# coefficient tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoefficientTable:
    """Integer expansion coefficients entries(k, m), 0 <= k <= k_max."""

    construction: str  # "seq" | "cyc" | "set-via-seq"
    class_name: str
    labeling: str
    period: int
    k_max: int
    m_max: int
    _rows: tuple[tuple[int, ...], ...]  # _rows[m-1][k], m = 1..m_max

    def entries(self, k: int, m: int) -> int:
        if not (0 <= k <= self.k_max and 1 <= m <= self.m_max):
            raise RangeError(
                f"(k={k}, m={m}) outside table bounds k<={self.k_max}, 1<=m<={self.m_max}"
            )
        return self._rows[m - 1][k]

    def row(self, m: int) -> tuple[int, ...]:
        return self._rows[m - 1]


def _coefficients(
    A: CountingSequence,
    construction: str,
    m_max: int,
    k_max: int,
    entry: Callable[[Callable[[int, int], int], int, int], int],
) -> CoefficientTable:
    """The table of entry(b, k, m) for m = 1..m_max, k = 0..k_max, b(k, m) = b_k^(m).

    The construction's rules are checked before any part count is computed;
    seq reads row m_max + 1 of the part counts, cyc and set no row past m_max.
    """
    _admit(A, construction, m_max)
    b = parts_table(A, m_max + (construction == "seq"), k_max).entries
    return CoefficientTable(
        construction="set-via-seq" if construction == "set" else construction,
        class_name=f"cyc({A.name})" if construction == "cyc" else A.name,
        labeling=A.labeling,
        period=A.period,
        k_max=k_max,
        m_max=m_max,
        _rows=tuple(
            tuple(entry(b, k, m) for k in range(k_max + 1)) for m in range(1, m_max + 1)
        ),
    )


def seq_coefficients(A: CountingSequence, m_max: int, k_max: int) -> CoefficientTable:
    """d_{k,m} = m (b_k^(m-1) - 2 b_k^(m) + b_k^(m+1)) for m = 1..m_max."""
    return _coefficients(
        A, "seq", m_max, k_max, lambda b, k, m: m * (b(k, m - 1) - 2 * b(k, m) + b(k, m + 1))
    )


def cyc_coefficients(A: CountingSequence, m_max: int, k_max: int) -> CoefficientTable:
    """Coefficients b_k^(m-1) - b_k^(m) for the cycle construction.

    ``A`` is the sequence-side companion class supplying the part counts; the
    caller asserts that the class under study is CYC of the same part class.
    """
    return _coefficients(A, "cyc", m_max, k_max, lambda b, k, m: b(k, m - 1) - b(k, m))


def set_via_seq_coefficients(A: CountingSequence, m_max: int, k_max: int) -> CoefficientTable:
    """One-part expansion data for the set construction of an unlabeled class.

    entries(k, 1) for k >= 1 are the sequence-irreducible counts of A (the
    evaluation SUBTRACTS them: P ~ 1 - sum d_k a_{n-k}/a_n); entries(0, 1) = 1.
    Multi-part coefficients are not defined for sets: 1 is the only m_max.
    """
    return _coefficients(A, "set", m_max, k_max, lambda b, k, m: b(k, 1) if k else 1)


# ---------------------------------------------------------------------------
# leading terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LeadingTerm:
    """Dominant expansion term: multiplier * (n)_ff_order * a_{n-offset}/a_n."""

    class_name: str
    labeling: str
    period: int
    m: int
    multiplier: Fraction
    falling_factorial_order: int
    ratio_offset: int

    def term_value(self, A: CountingSequence, n: int) -> Fraction:
        """Exact value at actual size n (periodic classes: p must divide n)."""
        if self.period > 1 and n % self.period:
            raise RangeError(f"size {n} not a multiple of the period {self.period}")
        ff = Fraction(1)
        for i in range(self.falling_factorial_order):
            ff *= n - i
        an = A.value(n)
        if an == 0:
            raise RangeError(f"{A.name} has no objects of size {n}")
        return self.multiplier * ff * Fraction(A.value(n - self.ratio_offset), an)


def leading_term(A: CountingSequence, m: int) -> LeadingTerm:
    """Describe the dominant term of the m-part probability expansion.

    Labeled aperiodic:  m * a_1^{m-1} * (n)_{m-1} * a_{n-m+1}/a_n.
    Unlabeled:          m * a_1^{m-1} * a_{n-m+1}/a_n.
    Labeled, period p:  m * (a_p/p!)^{m-1} * (n)_{p(m-1)} * a_{n-p(m-1)}/a_n
                        (n = actual size, a multiple of p).
    """
    if m < 1:
        raise RangeError("m must be a positive integer")
    p = A.period
    if p > 1:
        if A.labeling != "labeled":
            raise RangeError("periodic leading terms are defined for labeled classes")
        ap = A.value(p)
        if ap == 0:
            raise LeadingTermUndefined(f"{A.name}: no object of size {p}")
        return LeadingTerm(
            class_name=A.name,
            labeling=A.labeling,
            period=p,
            m=m,
            multiplier=m * Fraction(ap, factorial(p)) ** (m - 1),
            falling_factorial_order=p * (m - 1),
            ratio_offset=p * (m - 1),
        )
    a1 = A.value(1)
    if a1 == 0:
        raise LeadingTermUndefined(f"{A.name}: no size-1 object and no declared period")
    return LeadingTerm(
        class_name=A.name,
        labeling=A.labeling,
        period=1,
        m=m,
        multiplier=Fraction(m * a1 ** (m - 1)),
        falling_factorial_order=m - 1 if A.labeling == "labeled" else 0,
        ratio_offset=m - 1,
    )


# ---------------------------------------------------------------------------
# exact expansion evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpansionTerm:
    k: int
    coefficient: int
    shape: Fraction
    value: Fraction


@dataclass(frozen=True)
class ExpansionReport:
    class_name: str
    labeling: str
    construction: str
    m: int
    n: int
    terms_used: int
    terms: tuple[ExpansionTerm, ...]
    partial_sum: Fraction
    exact_probability: Fraction | None
    residual: Fraction | None
    normalized_residual: Fraction | None
    note: str = ""


def _term_shape(A: CountingSequence, n: int, k_raw: int) -> Fraction:
    """binom(n, k) a_{n-k}/a_n labeled; a_{n-k}/a_n unlabeled (k_raw = actual index).

    The caller has checked that a_n is nonzero.
    """
    ratio = Fraction(A.value(n - k_raw), A.value(n))
    if A.labeling == "labeled":
        return comb(n, k_raw) * ratio
    return ratio


def evaluate_partial_sum(
    A: CountingSequence,
    m: int,
    n: int,
    r: int,
    construction: str = "seq",
) -> ExpansionReport:
    """Evaluate the truncated expansion exactly and compare to the exact law.

    ``r`` is the number of correction terms: the partial sum runs over
    k = 0..r on the expansion index (multiplied by the period for periodic
    classes).  Each call builds its own coefficient table up to the first
    omitted term.  The exact probability comes from one part-count entry at
    size n — an independent computation — and residual = exact - partial
    holds as an identity of rationals.  The normalized residual divides by
    the shape of the first omitted term; it is None when that shape is 0.

    For the set construction only the one-part expansion exists, the partial
    sum is 1 - sum d_k * shape_k, and no exact reference value is available
    (inverting the multiset construction is out of scope), so the exact,
    residual, and normalized fields are None.

    Raises RangeError outside the construction rules, for r < 0, for n below
    the index of the first omitted term, and when the class whose values give
    the shapes has no object of size n.
    """
    _admit(A, construction, m)
    if r < 0:
        raise RangeError(f"--terms {r}: terms must be nonnegative")
    # the expansion index steps by the period on a labeled periodic class
    p = A.period if construction == "seq" and A.labeling == "labeled" else 1
    if n < p * (r + 1):
        raise RangeError(f"--n {n} is too small for --terms {r}: need --n >= {p * (r + 1)}")
    if A.period > 1 and A.labeling == "labeled" and n % A.period:
        raise RangeError(f"--n {n}: size {n} is not a multiple of the period {A.period}")
    shapes_class = A
    note = ""
    if construction == "seq":
        coefficients = seq_coefficients(A, m, p * (r + 1))
        count = part_count(A, m, n)
    elif construction == "cyc":
        shapes_class = cyc_class(A)
        coefficients = cyc_coefficients(A, m, r + 1)
        count = cyc_part_count(A, m, n)
        note = f"shapes and exact law from the derived cycle class over {A.name}"
    else:
        coefficients = set_via_seq_coefficients(A, m, r + 1)
        count = None
        note = (
            "set construction: partial sum is 1 - sum of irreducible-count terms; "
            "no exact reference law in scope"
        )
    an = shapes_class.value(n)
    if an == 0:
        raise RangeError(f"{shapes_class.name} has no objects of size {n}")
    exact = None if count is None else Fraction(count, an)

    terms = []
    total = Fraction(0)
    for k in range(r + 1):
        k_raw = p * k
        c = coefficients.entries(k_raw, m)
        shape = _term_shape(shapes_class, n, k_raw)
        if construction == "set" and k >= 1:
            value = -c * shape
        else:
            value = c * shape
        terms.append(ExpansionTerm(k=k_raw, coefficient=c, shape=shape, value=value))
        total += value

    if exact is None:
        residual = normalized = None
    else:
        residual = exact - total
        omitted_shape = _term_shape(shapes_class, n, p * (r + 1))
        normalized = residual / omitted_shape if omitted_shape else None
    return ExpansionReport(
        class_name=shapes_class.name,
        labeling=A.labeling,
        construction=construction,
        m=m,
        n=n,
        terms_used=r,
        terms=tuple(terms),
        partial_sum=total,
        exact_probability=exact,
        residual=residual,
        normalized_residual=normalized,
        note=note,
    )


# ---------------------------------------------------------------------------
# derived cycle class
# ---------------------------------------------------------------------------


def cyc_class(A_seq: CountingSequence) -> CountingSequence:
    """Counting sequence of cycles of the parts of ``A_seq``.

    With B the irreducible series of the companion class, the class series is
    C = 1 + log(1/(1-B)) = 1 + log A: one empty object, and c_n objects of
    size n >= 1.  Differentiating, A' = C' A, which is the labeled recurrence

        c_n = a_n - sum_{k=1}^{n-1} C(n-1, k-1) c_k a_{n-k},

    the first-part recurrence with weight C(n-1, k-1), offset 1: c_1..c_N come
    from one :func:`first_part_counts` pass over a_0..a_N.  A cycle of parts
    of sizes divisible by p has a size divisible by p, so the class keeps the
    period of ``A_seq``.
    """
    _admit(A_seq, "cyc")

    def fill(n: int) -> list[int]:
        c = first_part_counts(A_seq.values(n), 1)
        c[0] = 1
        return c

    return CountingSequence(
        name=f"cyc({A_seq.name})",
        labeling="labeled",
        period=A_seq.period,
        _fill=fill,
    )


def cyc_part_count(A_seq: CountingSequence, m: int, n: int) -> int:
    """Number of size-n cycle objects with exactly m parts: n!·[z^n] B^m/m."""
    _admit(A_seq, "cyc", m)
    count, rest = divmod(part_count(A_seq, m, n), m)
    assert rest == 0, f"non-integer {m}-part cycle count at n={n}"
    return count


# ---------------------------------------------------------------------------
# generic composition route
# ---------------------------------------------------------------------------


def _scale(f: PowerSeries, c: Fraction | int) -> PowerSeries:
    c = Fraction(c)
    return PowerSeries(tuple(c * x for x in f.coefficients))


def bender_compose(U: PowerSeries, family: str, m: int) -> tuple[PowerSeries, PowerSeries]:
    """V = F(U) and W = F'(U) for the closed kernel families.

    ``family`` is "seq" or "cyc" (see module docstring for the kernels).
    U must have zero constant term.  Anything else is UnsupportedF: general
    composition is deliberately not offered.
    """
    if U[0] != 0:
        raise RangeError("U must have zero constant term")
    if m < 0:
        raise UnsupportedF("kernel exponent m must be >= 0")
    order = U.order
    one = PowerSeries.one(order)
    if family == "seq":
        one_plus = one + U
        t = U * one_plus.inverse()  # x/(1+x) at U
        V = t.pow(m)
        if m == 0:
            W = PowerSeries.zero(order)
        else:
            W = _scale(t.pow(m - 1) * (one_plus * one_plus).inverse(), m)
        return V, W
    if family == "cyc":
        if m < 1:
            raise UnsupportedF("cycle kernel needs m >= 1")
        e = (-U).exp()
        g = one - e
        V = _scale(g.pow(m), Fraction(1, m))
        W = e * g.pow(m - 1)
        return V, W
    raise UnsupportedF(f"unknown kernel family {family!r}")
