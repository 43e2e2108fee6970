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

One table, ``_CELLS``, holds the rules of each (construction, labeling) cell.
seq takes either labeling.  cyc (labeled): for A_cyc = CYC(B) the coefficients
are  b_k^(m-1) - b_k^(m), with shapes from the cycle class 1 + log(1/(1 - B)).
set via seq (unlabeled, m = 1):  P(irreducible) ~ 1 - sum_{k>=1} d_k a_{n-k}/a_n
with d_k the sequence-irreducible counts, and no exact law.

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
from .decomposition import cycle_counts, part_count, parts_table
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


# The lambdas look functions up at call time: cyc_* are defined below, and any
# of them may be wrapped.
@dataclass(frozen=True)
class _Cell:
    label: str  # CoefficientTable.construction
    entry: Callable[[Callable[[int, int], int], int, int], int]  # d(b, k, m), b(k, m) = b_k^(m)
    # the exact m-part count at size n, or None
    count: Callable[[CountingSequence, int, int], int] | None = lambda A, m, n: part_count(A, m, n)
    shapes: Callable[[CountingSequence], CountingSequence] = lambda A: A  # class of the shapes
    extra_rows: int = 0  # part-count rows read past m
    one_part_only: bool = False  # only m = 1 is defined
    subtracts: bool = False  # terms k >= 1 enter the partial sum negated
    steps_by_period: bool = False  # the expansion index steps by the class's period
    note: str = ""  # {name}: the class's name


_SEQ = _Cell(
    "seq",
    lambda b, k, m: m * (b(k, m - 1) - 2 * b(k, m) + b(k, m + 1)),
    extra_rows=1,
    steps_by_period=True,
)
_CELLS = {
    ("seq", "labeled"): _SEQ,
    ("seq", "unlabeled"): _SEQ,
    ("cyc", "labeled"): _Cell(
        "cyc",
        lambda b, k, m: b(k, m - 1) - b(k, m),
        count=lambda A, m, n: cyc_part_count(A, m, n),
        shapes=lambda A: cyc_class(A),
        note="shapes and exact law from the derived cycle class over {name}",
    ),
    ("set", "unlabeled"): _Cell(
        "set-via-seq",
        lambda b, k, m: b(k, 1) if k else 1,
        count=None,
        one_part_only=True,
        subtracts=True,
        steps_by_period=True,
        note="set construction: partial sum is 1 - sum of irreducible-count terms; "
        "no exact reference law in scope",
    ),
}
CONSTRUCTIONS = tuple(dict.fromkeys(c for c, _ in _CELLS))


def _admit(A: CountingSequence, construction: str, m: int = 1) -> _Cell:
    """The cell of a construction and class, or RangeError outside ``_CELLS``."""
    if construction not in CONSTRUCTIONS:
        raise RangeError(
            f"--construction {construction}: unknown construction;"
            f" known: {', '.join(CONSTRUCTIONS)}"
        )
    if m < 1:
        raise RangeError(f"--m {m}: m must be at least 1")
    cell = _CELLS.get((construction, A.labeling))
    if cell is None:
        labelings = " or ".join(lab for con, lab in _CELLS if con == construction)
        raise RangeError(
            f"--construction {construction}: defined for {labelings} classes only;"
            f" {A.name} is {A.labeling}"
        )
    if cell.one_part_only and m != 1:
        raise RangeError(
            f"--m {m}: the {construction} construction defines only the one-part expansion"
        )
    return cell


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
    A: CountingSequence, construction: str, m_max: int, k_max: int
) -> CoefficientTable:
    """The cell's entry(b, k, m) for m = 1..m_max, k = 0..k_max, once admitted."""
    cell = _admit(A, construction, m_max)
    b = parts_table(A, m_max + cell.extra_rows, k_max).entries
    return CoefficientTable(
        construction=cell.label,
        class_name=cell.shapes(A).name,
        labeling=A.labeling,
        period=A.period,
        k_max=k_max,
        m_max=m_max,
        _rows=tuple(
            tuple(cell.entry(b, k, m) for k in range(k_max + 1)) for m in range(1, m_max + 1)
        ),
    )


def seq_coefficients(A: CountingSequence, m_max: int, k_max: int) -> CoefficientTable:
    """d_{k,m} = m (b_k^(m-1) - 2 b_k^(m) + b_k^(m+1)) for m = 1..m_max."""
    return _coefficients(A, "seq", m_max, k_max)


def cyc_coefficients(A: CountingSequence, m_max: int, k_max: int) -> CoefficientTable:
    """Coefficients b_k^(m-1) - b_k^(m) for the cycle construction.

    ``A`` is the sequence-side companion class supplying the part counts; the
    caller asserts that the class under study is CYC of the same part class.
    """
    return _coefficients(A, "cyc", m_max, k_max)


def set_via_seq_coefficients(A: CountingSequence, m_max: int, k_max: int) -> CoefficientTable:
    """One-part expansion data for the set construction of an unlabeled class.

    entries(k, 1) for k >= 1 are the sequence-irreducible counts of A (the
    evaluation SUBTRACTS them: P ~ 1 - sum d_k a_{n-k}/a_n); entries(0, 1) = 1.
    Multi-part coefficients are not defined for sets: 1 is the only m_max.
    """
    return _coefficients(A, "set", m_max, k_max)


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
    A: CountingSequence, m: int, n: int, r: int, construction: str = "seq"
) -> ExpansionReport:
    """Evaluate the truncated expansion exactly and compare to the exact law.

    ``r`` is the number of correction terms: the partial sum runs over
    k = 0..r on the expansion index, which steps by the period under seq, for
    either labeling, and under set; under cyc it steps by 1, on a periodic
    class too (a known gap: ROADMAP item 1).  Each call reads its coefficient
    table, up to the first omitted term, off the part-count rows kept on
    ``A``, so calls on one instance divide each size of each row once.  The
    exact law is the cell's m-part count at size n — an independent
    computation — so residual = exact - partial is an identity of rationals.
    The normalized residual divides by the shape of the first omitted term;
    it is None when that shape is 0.  The set cell's partial sum is
    1 - sum d_k * shape_k and it has no exact law (inverting the multiset
    construction is out of scope), so its exact, residual, and normalized
    fields are None.

    Raises RangeError outside the construction rules, for r < 0, for n below
    the index of the first omitted term, and when the class whose values give
    the shapes has no object of size n.
    """
    cell = _admit(A, construction, m)
    if r < 0:
        raise RangeError(f"--terms {r}: terms must be nonnegative")
    p = A.period if cell.steps_by_period else 1
    if n < p * (r + 1):
        raise RangeError(f"--n {n} is too small for --terms {r}: need --n >= {p * (r + 1)}")
    if A.period > 1 and A.labeling == "labeled" and n % A.period:
        raise RangeError(f"--n {n}: size {n} is not a multiple of the period {A.period}")
    shapes_class = cell.shapes(A)
    coefficients = _coefficients(A, construction, m, p * (r + 1))
    an = shapes_class.value(n)
    if an == 0:
        raise RangeError(f"{shapes_class.name} has no objects of size {n}")
    exact = None if cell.count is None else Fraction(cell.count(A, m, n), an)

    terms = []
    for k in range(r + 1):
        k_raw = p * k
        c = coefficients.entries(k_raw, m)
        shape = _term_shape(shapes_class, n, k_raw)
        value = (-c if cell.subtracts and k else c) * shape
        terms.append(ExpansionTerm(k=k_raw, coefficient=c, shape=shape, value=value))
    total = sum((t.value for t in terms), Fraction(0))

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
        note=cell.note.format(name=A.name),
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

    and n·C(n-1, k-1) = k·C(n, k) turns it into a division through A on the
    labeled weight C(n, k), for s_n = n·c_n: c_1..c_N come from one
    :func:`cycle_counts` pass over a_0..a_N.  A cycle of parts of sizes
    divisible by p has a size divisible by p, so the class keeps the period
    of ``A_seq``.
    """
    _admit(A_seq, "cyc")

    def fill(n: int) -> list[int]:
        c = cycle_counts(A_seq.values(n))
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
