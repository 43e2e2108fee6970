"""Inverting A = SEQ(B): irreducible counts and m-part tables.

If every object of a class A decomposes uniquely as a finite sequence of
objects from a subclass B, the generating functions satisfy A = 1/(1 - B),
hence

    B(z) = 1 - 1/A(z),        B^m(z) = generating function of m-part objects.

The counting values of B and its powers are the irreducible part counts
b_n^(m).  Conventions: b_0^(0) = 1, b_n^(0) = 0 for n > 0 (the empty object is
the unique 0-part object), and the m = 1 row is the irreducible counting
sequence itself.

Part counts are computed in exact integer arithmetic on counting values,
with one primitive, :func:`convolve`: the counting sequence of a product of
two generating functions,

    h_n = sum_k C(n,k) f_k g_{n-k}      (labeled; drop the binomial when unlabeled).

The irreducible counts come from splitting off the first part of each object,

    b_n = a_n - sum_{k=1}^{n-1} C(n,k) b_k a_{n-k},

and row m+1 of a parts table is the convolution of row m with b.  A genuine
class B can never have a negative count, so a negative computed entry is a
hard error (NegativeIrreducibleCount): the input was not sequence-decomposable.

Two independent computations cross-check the integer route: the ``Fraction``
series inversion B = 1 - 1/A (:func:`irreducible_series`), and the halving
form, which only convolves over parts of size <= n/2 by exploiting the fact
that at most one part can be larger than n/2:

      b_n = a_n - 2 sum_{k<=n/2} C(n,k) b_k a_{n-k}
                + sum_{p,q<=n/2} n!/(p! q! (n-p-q)!) b_p b_q a_{n-p-q}.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial
from typing import Sequence

from .catalog import CountingSequence
from .errors import BadConstantTerm, NegativeIrreducibleCount, PeriodMismatch, RangeError
from .series import PowerSeries, counting_to_series, series_to_counting

__all__ = [
    "PartsTable",
    "RecurrenceReport",
    "LiftReport",
    "convolve",
    "irreducible_counts",
    "irreducible_series",
    "parts_table",
    "verify_simple_recurrence",
    "verify_halving_identity",
    "periodic_reindex",
    "lift_consistency",
]


# ---------------------------------------------------------------------------
# the integer core
# ---------------------------------------------------------------------------


def convolve(f: Sequence[int], g: Sequence[int], labeled: bool) -> list[int]:
    """h_n = sum_k C(n,k) f_k g_{n-k} (no binomial when unlabeled).

    The counting values of the product of the generating functions of f and
    g, up to the shorter of the two lengths.
    """
    n_max = min(len(f), len(g)) - 1
    out = [0] * (n_max + 1)
    for k in range(n_max + 1):
        fk = f[k]
        if not fk:
            continue
        for j in range(n_max + 1 - k):
            gj = g[j]
            if gj:
                out[k + j] += (comb(k + j, k) * fk if labeled else fk) * gj
    return out


def irreducible_counts(A: CountingSequence, n_max: int) -> list[int]:
    """b_0..b_{n_max} from the first-part recurrence (negative values kept)."""
    a = A.values(n_max)
    if a[0] != 1:
        raise BadConstantTerm(f"{A.name}: a_0 must be 1, got {a[0]}")
    labeled = A.labeling == "labeled"
    b = [0] * (n_max + 1)
    for n in range(1, n_max + 1):
        acc = a[n]
        for k in range(1, n):
            if b[k] and a[n - k]:
                acc -= (comb(n, k) * b[k] if labeled else b[k]) * a[n - k]
        b[n] = acc
    return b


# ---------------------------------------------------------------------------
# parts tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartsTable:
    """Counting values b_n^(m) for 0 <= n <= n_max, 0 <= m <= m_max."""

    class_name: str
    labeling: str
    n_max: int
    m_max: int
    _rows: tuple[tuple[int, ...], ...]  # _rows[m][n]

    def entries(self, n: int, m: int) -> int:
        if not (0 <= n <= self.n_max and 0 <= m <= self.m_max):
            raise RangeError(
                f"(n={n}, m={m}) outside table bounds n<={self.n_max}, m<={self.m_max}"
            )
        return self._rows[m][n]

    def row(self, m: int) -> tuple[int, ...]:
        return self._rows[m]

    def total(self, n: int) -> int:
        """sum over m of entries(n, m); equals a_n when m_max >= n/mu."""
        return sum(self._rows[m][n] for m in range(self.m_max + 1))


def irreducible_series(A: CountingSequence, n_max: int) -> PowerSeries:
    """B(z) = 1 - 1/A(z) in the ring matching A's labeling."""
    series = counting_to_series(A.values(n_max), A.labeling, n_max)
    inv = series.inverse()
    return PowerSeries.one(n_max) - inv


def parts_table(A: CountingSequence, m_max: int, n_max: int) -> PartsTable:
    """All counting values of B^m for m <= m_max, n <= n_max.

    Raises NegativeIrreducibleCount on the first negative entry: the class is
    not a sequence of any genuine subclass.
    """
    b = irreducible_counts(A, n_max)
    labeled = A.labeling == "labeled"
    rows: list[tuple[int, ...]] = []
    counts = [1] + [0] * n_max
    for m in range(m_max + 1):
        for n, v in enumerate(counts):
            if v < 0:
                raise NegativeIrreducibleCount(
                    f"{A.name}: b_{n}^({m}) = {v} < 0; not sequence-decomposable"
                )
        rows.append(tuple(counts))
        if m < m_max:
            counts = convolve(counts, b, labeled)
    return PartsTable(
        class_name=A.name,
        labeling=A.labeling,
        n_max=n_max,
        m_max=m_max,
        _rows=tuple(rows),
    )


# ---------------------------------------------------------------------------
# cross-checking recurrences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecurrenceReport:
    class_name: str
    kind: str
    n_max: int
    all_equal: bool
    mismatches: tuple[tuple[int, int, int], ...]  # (n, via_series, via_recurrence)
    values: tuple[int, ...]  # the series-inversion values b_0..b_{n_max}


def verify_simple_recurrence(A: CountingSequence, n_max: int) -> RecurrenceReport:
    """Compare series inversion against the first-part convolution recurrence."""
    via_series = series_to_counting(irreducible_series(A, n_max), A.labeling)
    b = irreducible_counts(A, n_max)
    mismatches = tuple(
        (n, via_series[n], b[n]) for n in range(1, n_max + 1) if via_series[n] != b[n]
    )
    return RecurrenceReport(
        class_name=A.name,
        kind="first-part convolution",
        n_max=n_max,
        all_equal=not mismatches,
        mismatches=mismatches,
        values=via_series,
    )


def verify_halving_identity(A: CountingSequence, n_max: int) -> RecurrenceReport:
    """Compare series inversion against the half-size convolution identity.

    Labeled classes only; the identity never convolves over parts larger than
    n/2, which is what makes it a genuinely different computation.  It runs
    as a recurrence on its own earlier values, so it shares no intermediate
    result with the series inversion it is compared against.
    """
    if A.labeling != "labeled":
        raise RangeError("the halving identity is stated for labeled classes")
    via_series = series_to_counting(irreducible_series(A, n_max), A.labeling)
    a = A.values(n_max)
    b = [0] * (n_max + 1)
    mismatches = []
    for n in range(1, n_max + 1):
        h = n // 2
        acc = a[n]
        for k in range(1, h + 1):
            acc -= 2 * comb(n, k) * b[k] * a[n - k]
        for p in range(1, h + 1):
            for q in range(1, h + 1):
                if p + q <= n:
                    mult = factorial(n) // (factorial(p) * factorial(q) * factorial(n - p - q))
                    acc += mult * b[p] * b[q] * a[n - p - q]
        b[n] = acc
        if acc != via_series[n]:
            mismatches.append((n, via_series[n], acc))
    return RecurrenceReport(
        class_name=A.name,
        kind="halving identity",
        n_max=n_max,
        all_equal=not mismatches,
        mismatches=tuple(mismatches),
        values=via_series,
    )


# ---------------------------------------------------------------------------
# periodic reindexing and the lift identity
# ---------------------------------------------------------------------------


def periodic_reindex(A: CountingSequence) -> CountingSequence:
    """Compress a period-p sequence onto its support: â(k) = a(pk).

    The result is an unlabeled period-1 sequence: on the compressed index the
    ordinary-generating-function calculus is the one that reproduces the
    part counts of the underlying objects (pair-indexed matchings being the
    canonical example).  The labeled periodic bookkeeping — binomials
    binom(pn, pk) against counts on the raw index — stays available through
    the original sequence itself; both are compared in the test-suite.
    """
    if A.period <= 1:
        raise PeriodMismatch(f"{A.name} has period 1; nothing to reindex")
    p = A.period
    return CountingSequence(
        name=f"{A.name}[/{p}]",
        labeling="unlabeled",
        period=1,
        provenance="derived",
        _fn=lambda k: A.value(p * k),
    )


@dataclass(frozen=True)
class LiftReport:
    n_max: int
    m_max: int
    all_equal: bool
    mismatches: tuple[tuple[int, int, int, int], ...]  # (n, m, lifted, n! * plain)


def lift_consistency(n_max: int, m_max: int) -> LiftReport:
    """Check the lift identity between order-pairs and permutations.

    The class of pairs of linear orders (counting (n!)^2) is the
    relabeling-stable lift of permutations; part counts must satisfy

        parts(linear_orders(2))(n, m) = n! * parts(permutations)(n, m)

    for all n, m.  The two sides are computed from different inputs and
    weights (labeled convolutions with binomials vs unlabeled ones).
    """
    from .catalog import linear_orders, permutations

    lifted = parts_table(linear_orders(2), m_max, n_max)
    plain = parts_table(permutations(1), m_max, n_max)
    mismatches = []
    for n in range(n_max + 1):
        for m in range(m_max + 1):
            lhs = lifted.entries(n, m)
            rhs = factorial(n) * plain.entries(n, m)
            if lhs != rhs:
                mismatches.append((n, m, lhs, rhs))
    return LiftReport(
        n_max=n_max, m_max=m_max, all_equal=not mismatches, mismatches=tuple(mismatches)
    )
