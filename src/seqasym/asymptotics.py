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
from fractions import Fraction
from math import comb, factorial

from .catalog import CountingSequence
from .decomposition import PartsTable, irreducible_counts, parts_table
from .errors import LeadingTermUndefined, RangeError, UnsupportedF
from .series import PowerSeries

__all__ = [
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
    "minimal_part_size",
    "column_sum_bound",
]


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


def seq_coefficients(A: CountingSequence, m_max: int, k_max: int) -> CoefficientTable:
    """d_{k,m} = m (b_k^(m-1) - 2 b_k^(m) + b_k^(m+1)) for m = 1..m_max."""
    parts = parts_table(A, m_max + 1, k_max)
    rows = []
    for m in range(1, m_max + 1):
        rows.append(
            tuple(
                m
                * (
                    parts.entries(k, m - 1)
                    - 2 * parts.entries(k, m)
                    + parts.entries(k, m + 1)
                )
                for k in range(k_max + 1)
            )
        )
    return CoefficientTable(
        construction="seq",
        class_name=A.name,
        labeling=A.labeling,
        period=A.period,
        k_max=k_max,
        m_max=m_max,
        _rows=tuple(rows),
    )


def cyc_coefficients(A: CountingSequence, m_max: int, k_max: int) -> CoefficientTable:
    """Coefficients b_k^(m-1) - b_k^(m) for the cycle construction.

    ``A`` is the sequence-side companion class supplying the part counts; the
    caller asserts that the class under study is CYC of the same part class.
    """
    if A.labeling != "labeled":
        raise RangeError("the cycle construction is defined for labeled classes")
    parts = parts_table(A, m_max, k_max)
    rows = []
    for m in range(1, m_max + 1):
        rows.append(
            tuple(parts.entries(k, m - 1) - parts.entries(k, m) for k in range(k_max + 1))
        )
    return CoefficientTable(
        construction="cyc",
        class_name=f"cyc({A.name})",
        labeling=A.labeling,
        period=A.period,
        k_max=k_max,
        m_max=m_max,
        _rows=tuple(rows),
    )


def set_via_seq_coefficients(A: CountingSequence, k_max: int) -> CoefficientTable:
    """One-part expansion data for the set construction of an unlabeled class.

    entries(k, 1) for k >= 1 are the sequence-irreducible counts of A (the
    evaluation SUBTRACTS them: P ~ 1 - sum d_k a_{n-k}/a_n); entries(0, 1) = 1.
    Multi-part coefficients are not defined for sets here and are not produced.
    """
    if A.labeling != "unlabeled":
        raise RangeError("set-via-seq expansion is defined for unlabeled classes")
    parts = parts_table(A, 1, k_max)
    row = tuple(1 if k == 0 else parts.entries(k, 1) for k in range(k_max + 1))
    return CoefficientTable(
        construction="set-via-seq",
        class_name=A.name,
        labeling=A.labeling,
        period=A.period,
        k_max=k_max,
        m_max=1,
        _rows=(row,),
    )


def minimal_part_size(A: CountingSequence, probe_to: int = 40) -> int:
    """Smallest n >= 1 with a nonzero irreducible count."""
    b = irreducible_counts(A, probe_to)
    for n in range(1, probe_to + 1):
        if b[n] != 0:
            return n
    raise RangeError(f"{A.name}: no irreducible object of size <= {probe_to}")


def column_sum_bound(k: int, mu: int) -> int:
    """Largest m that can contribute a nonzero coefficient in column k."""
    return k // mu + 1


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
    """binom(n, k) a_{n-k}/a_n labeled; a_{n-k}/a_n unlabeled (k_raw = actual index)."""
    an = A.value(n)
    if an == 0:
        raise RangeError(f"{A.name} has no objects of size {n}")
    ratio = Fraction(A.value(n - k_raw), an)
    if A.labeling == "labeled":
        return comb(n, k_raw) * ratio
    return ratio


def evaluate_partial_sum(
    A: CountingSequence,
    m: int,
    n: int,
    r: int,
    construction: str = "seq",
    coefficients: CoefficientTable | None = None,
    parts: PartsTable | None = None,
) -> ExpansionReport:
    """Evaluate the truncated expansion exactly and compare to the exact law.

    ``r`` is the number of correction terms: the partial sum runs over
    k = 0..r on the expansion index (multiplied by the period for periodic
    classes).  The exact probability comes from the part-count table at size
    n — an independent computation — and residual = exact - partial holds as
    an identity of rationals.  The normalized residual divides by the shape
    of the first omitted term.

    For the set construction only the one-part expansion exists, the partial
    sum is 1 - sum d_k * shape_k, and no exact reference value is available
    (inverting the multiset construction is out of scope), so the exact,
    residual, and normalized fields are None.
    """
    if r < 0:
        raise RangeError("r must be >= 0")
    if construction == "seq":
        shapes_class = A
        p = A.period if A.labeling == "labeled" else 1
        if A.period > 1 and A.labeling == "labeled" and n % A.period:
            raise RangeError(f"size {n} is not a multiple of the period {A.period}")
        if coefficients is None:
            coefficients = seq_coefficients(A, m, p * (r + 1))
        if parts is None:
            parts = parts_table(A, m, n)
        exact = Fraction(parts.entries(n, m), A.value(n))
        note = ""
    elif construction == "cyc":
        if A.labeling != "labeled":
            raise RangeError("the cycle construction is defined for labeled classes")
        p = 1
        shapes_class = cyc_class(A)
        if coefficients is None:
            coefficients = cyc_coefficients(A, m, r + 1)
        exact = Fraction(cyc_part_count(A, m, n), shapes_class.value(n))
        note = f"shapes and exact law from the derived cycle class over {A.name}"
    elif construction == "set":
        if m != 1:
            raise RangeError("the set construction defines only the one-part expansion")
        shapes_class = A
        p = 1
        if coefficients is None:
            coefficients = set_via_seq_coefficients(A, r + 1)
        exact = None
        note = (
            "set construction: partial sum is 1 - sum of irreducible-count terms; "
            "no exact reference law in scope"
        )
    else:
        raise RangeError(f"unknown construction {construction!r}")

    terms = []
    total = Fraction(0)
    for k in range(r + 1):
        k_raw = p * k
        if coefficients.k_max < k_raw:
            raise RangeError(f"coefficient table too short for k={k_raw}")
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
        class_name=shapes_class.name if construction == "cyc" else A.name,
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

        c_n = a_n - sum_{k=1}^{n-1} C(n-1, k-1) c_k a_{n-k}.
    """
    if A_seq.labeling != "labeled":
        raise RangeError("the cycle construction is defined for labeled classes")
    c: list[int] = [1]

    def fn(n: int) -> int:
        a = A_seq.values(n)
        for i in range(len(c), n + 1):
            c.append(a[i] - sum(comb(i - 1, k - 1) * c[k] * a[i - k] for k in range(1, i)))
        return c[n]

    return CountingSequence(
        name=f"cyc({A_seq.name})",
        labeling="labeled",
        period=1,
        provenance="derived",
        _fn=fn,
    )


def cyc_part_count(A_seq: CountingSequence, m: int, n: int) -> int:
    """Number of size-n cycle objects with exactly m parts: n!·[z^n] B^m/m."""
    if A_seq.labeling != "labeled":
        raise RangeError("the cycle construction is defined for labeled classes")
    if m < 1:
        raise RangeError("m must be a positive integer")
    count, rest = divmod(parts_table(A_seq, m, n).entries(n, m), m)
    assert rest == 0, f"non-integer {m}-part cycle count at n={n}"
    return count


# ---------------------------------------------------------------------------
# generic composition route
# ---------------------------------------------------------------------------


def _scale(f: PowerSeries, c: Fraction | int) -> PowerSeries:
    c = Fraction(c)
    return PowerSeries(tuple(c * x for x in f.coefficients))


def bender_compose(
    U: PowerSeries, family: str, m: int, n_max: int | None = None
) -> tuple[PowerSeries, PowerSeries]:
    """V = F(U) and W = F'(U) for the closed kernel families.

    ``family`` is "seq" or "cyc" (see module docstring for the kernels).
    U must have zero constant term.  Anything else is UnsupportedF: general
    composition is deliberately not offered.
    """
    if U[0] != 0:
        raise RangeError("U must have zero constant term")
    if m < 0:
        raise UnsupportedF("kernel exponent m must be >= 0")
    if n_max is not None:
        U = U.truncate(n_max)
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
