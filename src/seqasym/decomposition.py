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
by one recurrence: division through A.  For a_0 = 1 and a left-hand side f
it gives x_0 = 0 and

    x_n = f_n - sum_{k=1}^{n-1} C(n,k) x_k a_{n-k}      (labeled; drop the binomial when unlabeled),

that is x·A = F - f_0.  With f = a it splits off the first part of each
object, :func:`first_part_counts`:

    b_n = a_n - sum_{k=1}^{n-1} C(n,k) b_k a_{n-k},      B = (A - 1)/A = 1 - 1/A.

The cycle class C = 1 + log A of a labeled A is one more division through
A.  Differentiating gives A' = C'A, whose coefficients are

    c_n = a_n - sum_{k=1}^{n-1} C(n-1,k-1) c_k a_{n-k},

and since n·C(n-1,k-1) = k·C(n,k), s_n = n·c_n is the recurrence with the
labeled weight and f_n = n·a_n.  :func:`cycle_counts` divides it through A
and returns c_n = s_n/n, an exact division, so the weight is always C(n,k)
or 1.

At a dense size n it visits every k in one loop.  The binomials come from
one Pascal row carried from size to size: in that loop each C(n-1,k)
becomes C(n,k) = C(n-1,k) + C(n-1,k-1) in place, one addition of numbers of
at most n bits, so no binomial is formed afresh.  The loop sums in Horner
form when every ratio r_j = a_j/a_{j-1} (j >= 2) is an integer with
a_{j-1} > 0: then a_{n-k} = a_1 r_2 ... r_{n-k}, so with y_k = C(n,k) b_k

    T <- T·r_{n-k+1} + y_k   for k = 1..n-1,      b_n = a_n - a_1·T,

and each big-by-big product C(n,k) b_k a_{n-k} becomes a product of T with
the small ratio (a left shift where r_j is a power of two).  The test is made
on the values and names no class: it holds for tournaments, linear orders,
permutations, matchings and the constant-1 class.  Other inputs (periodic
classes, unlabeled tournaments, most custom files) add the products
y_k a_{n-k} directly.  On tournaments a_{n-k} is a power of two, so Horner
only saves the product with it, and each size n still adds and shifts n
numbers of about n²/2 bits, Θ(n³) bit operations; what the row saves is a
``math.comb`` call and a product with a fresh binomial per (n, k).

A sparse size, where at most n/8 of the x_1..x_{n-1} already computed are
nonzero, sums those terms alone, each with its binomial from ``math.comb``,
since the loop takes n-1 steps however few y_k are nonzero.  It leaves the
row alone, and the next dense size rebuilds it.  Linear orders (d=1) and the
constant-1 class are sparse from n = 8 on (b = z there, one term);
tournaments, permutations and matchings have at most one x_k = 0 and stay
dense.  On factorial-sized values Horner and the sparse sum cost the same
near n/4 nonzero terms, so n/8 leaves Horner the dense side with room to
spare.  The term-by-term loop over every k, the reference both paths are
checked against, lives in the tests.

The rows of a parts table come from the same recurrence.  Since
B = 1 - 1/A,

    B^(m+1) = B^m·B = B^m - B^m/A,

and B^m/A is the recurrence with f = B^m, row m, whose f_0 is 0 for m >= 1.
So :func:`parts_table` builds row 1 as b and each row m+1 >= 2 as row m
minus one more pass of the recurrence, with the ratios of a taken once for
every row: on the Horner and Pascal-row kernel where those ratios are
integers, each term is a product with a small ratio and a binomial instead
of a product of an entry of row m with one of b, two counts of the size of
a_n.  Measured on a 2-vCPU VM, best of 7 runs alternating with a
convolution of row m with b in one process: parts_table(A, 5, 240) took
28 ms instead of 49 ms on permutations, 0.34 s instead of 2.19 s on
tournaments (best of 3), and 63 ms instead of 72 ms on linear matchings (the
direct sum).  At small sizes the pass costs a little more than the product
it replaces: parts_table(A, 5, 30) over the 15 catalog classes of
catalog_classes(3) took 7.9 ms instead of 7.0 ms.  The term-by-term
product of two rows, the reference the rows are checked against, lives in
the tests.

The rows grow per class instance.  They are kept on the
``CountingSequence`` (``_parts``, next to its value cache), with the prefix
a_0..a_N read so far and its ratios, and each row holds the sizes it has
been divided to.  Since x_n reads only x_0..x_{n-1}, :func:`_divide`
resumes a pass from the prefix already computed: row 1 resumes with f = a,
and row m+1 resumes B^m/A, whose prefix is row m minus row m+1.  A request
for (m, n) therefore extends rows 1..m to n and nothing else, and reads a
and its ratios again only past a_N.  :func:`parts_table`, :func:`part_count`
and :func:`irreducible_counts` read these rows, and through them the
coefficient tables and expansions of :mod:`seqasym.asymptotics` and every
suite, so the many tables one command asks of one class divide each size
of each row once: ``table --construction cyc`` asks for one entry per cell.
Each command resolves its own instance, so no rows are shared between
commands.  Every request slices its answer off the rows into a fresh list
or table, and makes the same refusals as a fresh instance.

A single entry b_n^(m) needs only rows m-1 and 1: :func:`part_count` reads
them off the table up to row max(m-1, 1) and returns

    b_n^(m) = sum_k C(n,k) b_k^(m-1) b_{n-k},

one dot product instead of the whole last row.

A genuine class B can never have a negative count, so a negative computed
entry is a hard error (NegativeIrreducibleCount): the input was not
sequence-decomposable.  Row 1 is b itself, and row m is the m-fold product
of b, so one scan of b is the whole check: every later row is nonnegative
once b is, and the first negative entry of any table lies in row 1.  The
scan is made as row 1 grows, and a request up to n refuses when the first
negative b_k has k <= n, before any later row grows.

Two independent computations cross-check the integer route, as a chain:
the ``Fraction`` series inversion B = 1 - 1/A (:func:`irreducible_series`)
against the recurrence, and the recurrence against the halving form, which
only convolves over parts of size <= n/2 by exploiting the fact that at most
one part can be larger than n/2:

      b_n = a_n - 2 sum_{k<=n/2} C(n,k) b_k a_{n-k}
                + sum_{p,q<=n/2} n!/(p! q! (n-p-q)!) b_p b_q a_{n-p-q}.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial
from typing import Iterable, Sequence

from .catalog import CountingSequence, resolve_class
from .errors import BadConstantTerm, NegativeIrreducibleCount, PeriodMismatch, RangeError
from .series import PowerSeries, counting_to_series, series_to_counting

__all__ = [
    "PartsTable",
    "cycle_counts",
    "first_part_counts",
    "irreducible_counts",
    "irreducible_series",
    "part_count",
    "parts_table",
    "verify_simple_recurrence",
    "verify_halving_identity",
    "periodic_reindex",
    "lift_consistency",
]


# ---------------------------------------------------------------------------
# the integer core
# ---------------------------------------------------------------------------


def irreducible_counts(A: CountingSequence, n_max: int) -> list[int]:
    """b_0..b_{n_max} from the first-part recurrence (negative values kept),
    read off row 1 of A's rows (a fresh list)."""
    store = _part_rows(A, n_max)
    store.grow(1, n_max)
    return store.rows[1][: n_max + 1]


def first_part_counts(a: Sequence[int], *, labeled: bool) -> list[int]:
    """x_0 = 0 and x_n = a_n - sum_{k=1}^{n-1} w(n,k) x_k a_{n-k} for n >= 1.

    The weight is w(n,k) = C(n,k) when ``labeled``, else 1.  It is
    :func:`_divide` with the left-hand side f = a.  Dense sizes read the
    binomials off a Pascal row carried from size to size and sum in Horner
    form when the input's ratios are integers; sparse sizes sum over the
    nonzero x_k alone (see the module docstring).  All give the same values
    as the term-by-term loop.
    """
    return _divide(a, labeled, a, *_ratios(a), [0], len(a) - 1)


def cycle_counts(a: Sequence[int]) -> list[int]:
    """c_0 = 0 and c_n = a_n - sum_{k=1}^{n-1} C(n-1,k-1) c_k a_{n-k} for n >= 1,
    the counts of size n >= 1 of the cycle class 1 + log A of a labeled A.

    s_n = n·c_n is :func:`_divide` with the labeled weight and f_n = n·a_n,
    and c_n = s_n/n exactly (see the module docstring).
    """
    s = _divide(a, True, [n * v for n, v in enumerate(a)], *_ratios(a), [0], len(a) - 1)
    return [0] + [s[n] // n for n in range(1, len(s))]


def _ratios(
    a: Sequence[int], ratio: list[int] | None = None, shift: list[int | None] | None = None
) -> tuple[list[int] | None, list[int | None]]:
    """ratio[j] = a_j/a_{j-1} for j >= 2 when all are integers with a_{j-1} > 0
    (else None), and shift[j] = log2 ratio[j] where that is a power of two
    (else None): what the Horner form of :func:`_divide` reads.  Given the
    lists ``ratio, shift`` of a shorter prefix of a, it extends them in place.
    """
    if ratio is None or shift is None:
        ratio, shift = [0, 0], [None, None]
    for j in range(len(ratio), len(a)):
        q, rest = divmod(a[j], a[j - 1]) if a[j - 1] > 0 else (0, 1)
        if rest:
            return None, []
        ratio.append(q)
        shift.append(q.bit_length() - 1 if q > 0 and not q & (q - 1) else None)
    return ratio, shift


def _divide(
    a: Sequence[int],
    labeled: bool,
    f: Sequence[int],
    ratio: list[int] | None,
    shift: list[int | None],
    x: list[int],
    n_max: int,
) -> list[int]:
    """x_0 = 0 and x_n = f_n - sum_{k=1}^{n-1} w(n,k) x_k a_{n-k} for n >= 1,
    with ``ratio, shift = _ratios(a)``: extends ``x``, which holds x_0..x_{s-1}
    (s >= 1, so [0] to start), in place to x_0..x_{n_max} and returns it.

    The weight is w(n,k) = C(n,k) when ``labeled``, else 1.  With a_0 = 1,
    x·A = F - f_0 in the ring of A: f = a gives B = 1 - 1/A, and f = B^m
    (m >= 1, so f_0 = 0) gives B^m/A.  Each x_n reads only x_0..x_{n-1},
    a_0..a_n and f_n, so a pass resumed after x_{s-1} gives the values of
    one pass from x_0.
    """
    # row[k] = C(m,k) for k <= m, where m = len(row) - 1 is the last dense size
    row: list[int] | None = [] if labeled else None
    nonzero = [k for k in range(1, len(x)) if x[k]]  # the k < n with x_k != 0
    for n in range(len(x), n_max + 1):
        if 8 * len(nonzero) <= n:  # n - 1 steps would cost more than the few terms
            x.append(f[n] - _dot(x, a, n, labeled, nonzero))
        else:
            if row is not None and len(row) != n:  # a sparse size or a resumed pass
                row = _pascal_row(n - 1)
            t = 0
            prev = 1  # C(n-1, 0)
            if ratio is not None:  # Horner: t ends as sum_k y_k a_{n-k} / a_1
                for k in range(1, n):
                    j = n - k + 1
                    s = shift[j]
                    t = t * ratio[j] if s is None else t << s
                    if row is not None:  # C(n-1,k) -> C(n,k) by Pascal's rule
                        c = row[k]
                        row[k] = c + prev
                        prev = c
                    if x[k]:
                        t += x[k] if row is None else row[k] * x[k]
                t *= a[1]
            else:  # the direct sum: t ends as sum_k y_k a_{n-k}
                for k in range(1, n):
                    if row is not None:
                        c = row[k]
                        row[k] = c + prev
                        prev = c
                    if x[k]:
                        t += (x[k] if row is None else row[k] * x[k]) * a[n - k]
            if row is not None:
                row.append(1)
            x.append(f[n] - t)
        if x[n]:
            nonzero.append(n)
    return x


def _pascal_row(m: int) -> list[int]:
    """[C(m, k) for k = 0..m]."""
    row = [1]
    for i in range(1, m + 1):
        row.append(row[-1] * (m - i + 1) // i)
    return row


def _dot(
    f: Sequence[int],
    g: Sequence[int],
    n: int,
    labeled: bool,
    ks: Iterable[int],
) -> int:
    """sum_{k in ks} w(n,k) f_k g_{n-k}, with w(n,k) = C(n,k) when ``labeled``,
    else 1.

    A plain loop: with ``sum`` over a generator, the one-term sums of the
    sparse sizes of linear orders took 0.75 ms instead of 0.53 ms at n = 500."""
    acc = 0
    for k in ks:
        acc += (comb(n, k) * f[k] if labeled else f[k]) * g[n - k]
    return acc


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


class _PartRows:
    """The rows b^(1), b^(2), ... of one class, grown on request and kept on
    the class's instance (``CountingSequence._parts``).

    ``a`` is the prefix a_0..a_N read so far (a_0 = 1), with its ratios
    ``ratio, shift = _ratios(a)``; ``rows[m]`` for m >= 1 holds b_0^(m),
    b_1^(m), ... up to the size that row has been divided to, and
    ``rows[0]`` is unused.
    ``negative`` is the first n with b_n < 0 in row 1, or None.  Each row
    grows only past the sizes it already holds (see the module docstring).
    The rows are grown in place, so one instance is for one thread.
    """

    def __init__(self, labeled: bool) -> None:
        self.a: list[int] = []
        self.labeled = labeled
        self.ratio: list[int] | None = [0, 0]
        self.shift: list[int | None] = [None, None]
        self.rows: list[list[int]] = [[], [0]]
        self.negative: int | None = None

    def read(self, a: list[int]) -> None:
        """Take the longer prefix ``a`` of the same class, and its ratios."""
        if self.ratio is not None:
            self.ratio, self.shift = _ratios(a, self.ratio, self.shift)
        self.a = a

    def grow(self, m: int, n: int) -> None:
        """Rows 1..m divided up to size n <= N; a row already there is left as it is.

        Row 1 resumes the division with f = a.  Row j >= 2 resumes the
        division of row j-1 through A, B^(j-1)/A, whose prefix is row j-1
        minus row j, and takes row j-1 minus it past that prefix.
        """
        a, labeled, ratio, shift, rows = self.a, self.labeled, self.ratio, self.shift, self.rows
        b = rows[1]
        if len(b) <= n:
            start = len(b)
            _divide(a, labeled, a, ratio, shift, b, n)
            if self.negative is None:
                self.negative = next((k for k in range(start, n + 1) if b[k] < 0), None)
        for j in range(2, m + 1):
            if j == len(rows):
                rows.append([0])
            row, f = rows[j], rows[j - 1]
            if len(row) <= n:
                start = len(row)
                x = _divide(a, labeled, f, ratio, shift, [v - y for v, y in zip(f, row)], n)
                row.extend([f[k] - x[k] for k in range(start, n + 1)])


def _part_rows(A: CountingSequence, n: int) -> _PartRows:
    """The rows kept on ``A``, with a_0..a_n read: A.values and the ratios are
    taken again only past the prefix already read.  Raises BadConstantTerm
    when a_0 != 1, on every request, since no rows are kept then."""
    store = A._parts
    if store is None or len(store.a) <= n:
        a = A.values(n)
        if a[0] != 1:
            raise BadConstantTerm(f"{A.name}: a_0 must be 1, got {a[0]}")
        if store is None:
            store = A._parts = _PartRows(A.labeling == "labeled")
        store.read(a)
    return store


def parts_table(A: CountingSequence, m_max: int, n_max: int) -> PartsTable:
    """All counting values of B^m for m <= m_max, n <= n_max.

    The rows are read off the rows kept on ``A``, grown first to n_max where
    they stop short of it, so a command that asks for the table of one
    instance many times divides each size of each row once.  Raises
    BadConstantTerm when a_0 != 1 and, when m_max >= 1, raises
    NegativeIrreducibleCount at the first negative irreducible count b_n,
    n <= n_max, before any row past 1 grows: the class is not a sequence of
    any genuine subclass.  Row m is the m-fold product of b, so every later
    row is nonnegative once b is.
    """
    store = _part_rows(A, n_max)
    if m_max >= 1:
        store.grow(1, n_max)
        k = store.negative
        if k is not None and k <= n_max:
            raise NegativeIrreducibleCount(
                f"{A.name}: b_{k}^(1) = {store.rows[1][k]} < 0; not sequence-decomposable"
            )
        store.grow(m_max, n_max)
    return PartsTable(
        class_name=A.name,
        labeling=A.labeling,
        n_max=n_max,
        m_max=m_max,
        _rows=((1,) + (0,) * n_max,)
        + tuple(tuple(store.rows[m][: n_max + 1]) for m in range(1, m_max + 1)),
    )


def part_count(A: CountingSequence, m: int, n: int) -> int:
    """b_n^(m), equal to parts_table(A, m, n).entries(n, m), from one dot product.

    Rows m-1 and 1 are read off parts_table(A, max(m-1, 1), n), which grows
    only those rows of A, and only past the sizes they already hold, and
    refuses a_0 != 1 and a class that is not sequence-decomposable; row m is
    not grown: its entry n is sum_k C(n,k) b_k^(m-1) b_{n-k}, O(n) work.
    """
    if n < 0 or m < 0:
        raise RangeError(f"(n={n}, m={m}) outside table bounds n>=0, m>=0")
    if m == 0:
        return parts_table(A, 0, n).entries(n, 0)
    table = parts_table(A, max(m - 1, 1), n)
    row, b = table.row(m - 1), table.row(1)
    ks = [k for k in range(n + 1) if row[k] and b[n - k]]
    return _dot(row, b, n, A.labeling == "labeled", ks)


# ---------------------------------------------------------------------------
# cross-checking recurrences
# ---------------------------------------------------------------------------


def verify_simple_recurrence(
    A: CountingSequence, n_max: int
) -> tuple[tuple[int, int, int], ...]:
    """Compare series inversion against the first-part convolution recurrence.

    Returns the mismatches (n, via_series, via_recurrence), n = 1..n_max;
    empty when the two computations agree.
    """
    via_series = series_to_counting(irreducible_series(A, n_max), A.labeling)
    b = irreducible_counts(A, n_max)
    return tuple(
        (n, via_series[n], b[n]) for n in range(1, n_max + 1) if via_series[n] != b[n]
    )


def verify_halving_identity(
    A: CountingSequence, n_max: int
) -> tuple[tuple[int, int, int], ...]:
    """Compare the first-part recurrence against the half-size convolution identity.

    Labeled classes only; the identity never convolves over parts larger than
    n/2, which is what makes it a genuinely different computation.  It runs
    as a recurrence on its own earlier values, so it shares no intermediate
    result with :func:`irreducible_counts`, the values it is compared
    against; those are in turn checked against the series inversion by
    :func:`verify_simple_recurrence`.  Returns the mismatches
    (n, via_recurrence, via_identity), n = 1..n_max; empty when the two
    computations agree.
    """
    if A.labeling != "labeled":
        raise RangeError("the halving identity is stated for labeled classes")
    via_recurrence = irreducible_counts(A, n_max)
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
        if acc != via_recurrence[n]:
            mismatches.append((n, via_recurrence[n], acc))
    return tuple(mismatches)


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
        _fill=lambda n: A.values(p * n)[::p],
    )


def lift_consistency(n_max: int, m_max: int) -> tuple[tuple[int, int, int, int], ...]:
    """Check the lift identity between order-pairs and permutations.

    The class of pairs of linear orders (counting (n!)^2) is the
    relabeling-stable lift of permutations; part counts must satisfy

        parts(linear_orders(d=2))(n, m) = n! * parts(permutations(d=1))(n, m)

    for all n, m.  The two sides are computed from different inputs and
    weights (labeled convolutions with binomials vs unlabeled ones).
    Returns the mismatches (n, m, lifted, n! * plain) over 0 <= n <= n_max,
    0 <= m <= m_max; empty when the identity holds on the whole grid.
    """
    lifted = parts_table(resolve_class("linear_orders", 2), m_max, n_max)
    plain = parts_table(resolve_class("permutations", 1), m_max, n_max)
    mismatches = []
    for n in range(n_max + 1):
        for m in range(m_max + 1):
            lhs = lifted.entries(n, m)
            rhs = factorial(n) * plain.entries(n, m)
            if lhs != rhs:
                mismatches.append((n, m, lhs, rhs))
    return tuple(mismatches)
