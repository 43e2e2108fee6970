"""Built-in counting sequences and user-supplied ones.

A :class:`CountingSequence` is a named integer sequence a_0, a_1, a_2, ...
together with the bookkeeping every downstream computation needs:

* ``labeling`` — "labeled" classes live in the exponential-generating-function
  ring (coefficients a_n/n!), "unlabeled" ones in the ordinary ring;
* ``period`` — p > 1 means a_n = 0 whenever p does not divide n (with the
  nonzero support on multiples of p).

The catalog:

========================  =========  ======  =======================================
name                      labeling   period  value(n)
========================  =========  ======  =======================================
tournaments(d)            labeled    1       (d+1)^C(n,2)
linear_orders(d)          labeled    1       (n!)^d
permutations(d)           unlabeled  1       (n!)^d
matchings(d)              unlabeled  1       ((2n-1)!!)^d, indexed by pair count
matchings_labeled()       labeled    2       (n-1)!! on even n — auxiliary raw view
linear_matchings()        labeled    2       n!·(n-1)!! on even n — pairs of linear
                                             orders whose composite is a matching
unlabeled_tournaments()   unlabeled  1       tournaments up to isomorphism
constant_ones()           unlabeled  1       1 (sequences of single atoms)
========================  =========  ======  =======================================

Every class computes its values as a prefix a_0..a_n, in one filler call.
The closed forms above are filled as running products, a_n = a_{n-p}·r_n on
the multiples n of the period p, with a small ratio r_n: (d+1)^(n-1) for
tournaments, n^d for linear orders and permutations, (2n-1)^d for
matchings, n-1 for the raw labeled matchings and n·(n-1)^2 for linear
matchings.

The raw matchings view is deliberately NOT sequence-decomposable (its inversion
produces a negative part count at n=4); it exists so that the reindexing and
lifting machinery can be exercised against it.  ``linear_matchings`` is the
decomposable lift carrying the same combinatorics.

Unlabeled tournament counts use the classical cycle-index summation over
partitions of n into odd parts (Davis 1953; Moon, *Topics on Tournaments*,
1968).  ``unlabeled_tournaments()`` computes a_0..a_N in one integer pass
over the odd cycle lengths, largest first, which merges the partial
partitions that share a size and, for each odd d, the number of cycles
whose length d divides; those decide every later exponent.  The per-n
Fraction formula ``unlabeled_tournament_count`` is kept only as its
independent check.  Because the formula is imported knowledge, the
test-suite also validates it against an exhaustive isomorphism-class
enumeration for n <= 6 before anything downstream may trust it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial, gcd
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator

from .errors import BadConstantTerm, NegativeCount, PeriodMismatch, RangeError, SeqasymError

if TYPE_CHECKING:
    from .decomposition import _PartRows

__all__ = [
    "CountingSequence",
    "tournaments",
    "linear_orders",
    "permutations",
    "matchings",
    "matchings_labeled",
    "linear_matchings",
    "unlabeled_tournaments",
    "constant_ones",
    "custom",
    "load_custom",
    "parse_custom_text",
    "catalog_classes",
    "resolve_class",
    "CATALOG_FACTORIES",
    "double_factorial",
    "unlabeled_tournament_count",
]


@dataclass
class CountingSequence:
    """A counting sequence with cached, pure value computation.

    Every class gets its values from one prefix filler: ``_fill(n)`` returns
    a_0..a_n, and a miss at n caches them all, so the cache always holds a
    prefix.  Instances are immutable by convention: the filler must be pure,
    and the internal cache only ever grows, so concurrent readers are safe.

    A second store, ``_parts``, keeps the part-count rows b^(1), b^(2), ...
    that :mod:`seqasym.decomposition` has divided for this instance, so the
    many tables one command asks of a class divide each size of each row
    once.  It starts empty with every instance, is not copied by
    ``dataclasses.replace``, and takes no part in equality or repr.  Its rows
    are grown in place, so an instance whose part counts are asked for from
    several threads needs a lock around those calls.
    """

    name: str
    labeling: str  # "labeled" | "unlabeled"
    period: int
    _fill: Callable[[int], list[int]] = field(repr=False)
    _cache: dict[int, int] = field(default_factory=dict, repr=False)
    _parts: _PartRows | None = field(default=None, init=False, compare=False, repr=False)

    def value(self, n: int) -> int:
        if n < 0:
            raise RangeError("sequence indices start at 0")
        if n not in self._cache:
            self._cache.update(enumerate(self._fill(n)))
        return self._cache[n]

    def values(self, n_max: int) -> list[int]:
        if n_max >= 0:
            self.value(n_max)  # one filler pass covers every index below
        return [self._cache[n] for n in range(n_max + 1)]


# ---------------------------------------------------------------------------
# closed forms, filled as running products
# ---------------------------------------------------------------------------


def _running_product(factor: Callable[[int], int], period: int = 1) -> Callable[[int], list[int]]:
    """Prefix filler of a_0 = 1 and a_k = a_{k-p}·factor(k) on the multiples k
    of the period p, with a_k = 0 off them.

    >>> _running_product(lambda k: k)(5)
    [1, 1, 2, 6, 24, 120]
    >>> _running_product(lambda k: k - 1, period=2)(6)
    [1, 0, 1, 0, 3, 0, 15]
    """

    def fill(n: int) -> list[int]:
        out = [1] + [0] * n
        for k in range(period, n + 1, period):
            out[k] = out[k - period] * factor(k)
        return out

    return fill


def double_factorial(k: int) -> int:
    """(k)!! for odd k >= -1; (−1)!! = 1 by convention.

    >>> [double_factorial(2 * n - 1) for n in range(5)]
    [1, 1, 3, 15, 105]
    """
    out = 1
    for i in range(1, k + 1, 2):
        out *= i
    return out


def tournaments(d: int = 1) -> CountingSequence:
    """Labeled d-multitournaments: (d+1)^C(n,2) orientations of multiplicities."""
    if d < 1:
        raise RangeError(f"--d {d}: d must be a positive integer")
    return CountingSequence(
        name=f"tournaments(d={d})",
        labeling="labeled",
        period=1,
        _fill=_running_product(lambda k: (d + 1) ** (k - 1)),
    )


def linear_orders(d: int = 1) -> CountingSequence:
    """Labeled d-tuples of linear orders: (n!)^d."""
    if d < 1:
        raise RangeError(f"--d {d}: d must be a positive integer")
    return CountingSequence(
        name=f"linear_orders(d={d})",
        labeling="labeled",
        period=1,
        _fill=_running_product(lambda k: k**d),
    )


def permutations(d: int = 1) -> CountingSequence:
    """d-tuples of permutations, treated as unlabeled objects: (n!)^d."""
    if d < 1:
        raise RangeError(f"--d {d}: d must be a positive integer")
    return CountingSequence(
        name=f"permutations(d={d})",
        labeling="unlabeled",
        period=1,
        _fill=_running_product(lambda k: k**d),
    )


def matchings(d: int = 1) -> CountingSequence:
    """d-tuples of perfect matchings, unlabeled, indexed by the pair count n."""
    if d < 1:
        raise RangeError(f"--d {d}: d must be a positive integer")
    return CountingSequence(
        name=f"matchings(d={d})",
        labeling="unlabeled",
        period=1,
        _fill=_running_product(lambda k: (2 * k - 1) ** d),
    )


def matchings_labeled() -> CountingSequence:
    """Raw labeled perfect matchings: (n−1)!! objects of even size n, period 2.

    This view is kept for the reindexing pipeline; it is not
    sequence-decomposable as a labeled class (see module docstring).
    """
    return CountingSequence(
        name="matchings_labeled",
        labeling="labeled",
        period=2,
        _fill=_running_product(lambda k: k - 1, period=2),
    )


def linear_matchings() -> CountingSequence:
    """Pairs (linear order, linear order) composing to a perfect matching.

    value(2k) = (2k)!·(2k−1)!!, value(odd) = 0.  This is the relabeling-stable
    lift of the matchings class, and the labeled 2-periodic class the
    asymptotic machinery actually applies to.
    """
    return CountingSequence(
        name="linear_matchings",
        labeling="labeled",
        period=2,
        _fill=_running_product(lambda k: k * (k - 1) ** 2, period=2),
    )


def constant_ones() -> CountingSequence:
    """The unlabeled class with exactly one object of each size.

    Its ordinary generating function is 1/(1-z), i.e. sequences of single
    atoms; the irreducible counts are 1 at size 1 and 0 elsewhere.
    """
    return CountingSequence(
        name="constant-1",
        labeling="unlabeled",
        period=1,
        _fill=lambda n: [1] * (n + 1),
    )


# ---------------------------------------------------------------------------
# unlabeled tournaments (cycle-index summation)
# ---------------------------------------------------------------------------


def _unlabeled_tournament_counts(n_max: int) -> list[int]:
    """Unlabeled tournament counts a_0..a_{n_max}, in one merged-state pass.

    The sum of ``unlabeled_tournament_count`` runs over the odd partitions λ
    of every size s <= n_max.  Their parts are chosen one odd length l at a
    time, from the largest l <= n_max down to 1, each m >= 0 times.  Taking m cycles of length l
    divides the weight n_max!/z_λ by l^m·m! and adds
    m·(l−1)/2 + C(m,2)·l + m·Σ_p gcd(l, p) edge orbits, p running over the
    cycles chosen before.  As gcd(l, p) = Σ_{d | gcd(l, p)} φ(d), that last
    sum is Σ_{d|l} φ(d)·c_d, where c_d counts the earlier cycles whose
    length d divides.  So every prefix with the same size and the same c_d
    (odd d < l) gains the same exponents from then on: one state, keyed by
    them, holds the sum of (n_max!/z)·2^q over those prefixes.  The division
    by l·m stays exact term by term, as z of a partition of size <= n_max
    divides n_max!.  Each a_s is the sum of the states of size s divided by
    n_max!, an exact division.

    >>> _unlabeled_tournament_counts(7)
    [1, 1, 1, 2, 4, 12, 56, 456]
    """
    scale = factorial(n_max)
    top = n_max - 1 + n_max % 2  # the largest odd length <= n_max
    # entering the level of length l, c holds c_l, c_{l-2}, ..., c_1
    states = {(0, (0,) * ((top + 1) // 2)): scale}
    for l in range(top, 0, -2):
        # (offset of c_d in c, φ(d)) for the divisors d of l, d = l first
        divisors = [
            ((l - d) // 2, sum(gcd(k, d) == 1 for k in range(1, d + 1)))
            for d in range(l, 0, -2)
            if l % d == 0
        ]
        merged: dict[tuple[int, tuple[int, ...]], int] = {}
        for (size, c), w in states.items():
            tail = c[1:]  # c_l is read for the last time at this level
            merged[size, tail] = merged.get((size, tail), 0) + w
            step = (l - 1) // 2 + sum(phi * c[i] for i, phi in divisors)
            s, x, e, m = size, w, 0, 0
            while s + l <= n_max:
                m += 1
                s += l
                x //= l * m
                e += step
                step += l
                grown = list(tail)
                for i, _ in divisors[1:]:
                    grown[i - 1] += m
                key = (s, tuple(grown))
                merged[key] = merged.get(key, 0) + (x << e)
        states = merged
    total = [0] * (n_max + 1)
    for (size, _), w in states.items():
        total[size] += w
    out = []
    for t in total:
        count, rest = divmod(t, scale)
        assert rest == 0, "cycle-index average must be an integer"
        out.append(count)
    return out


def _odd_partitions(n: int) -> Iterator[dict[int, int]]:
    """Partitions of n into odd parts, as {part: multiplicity} maps."""

    def rec(remaining: int, max_part: int, mults: dict[int, int]) -> Iterator[dict[int, int]]:
        if remaining == 0:
            yield dict(mults)
            return
        p = min(max_part, remaining)
        if p % 2 == 0:
            p -= 1
        while p >= 1:
            for cnt in range(remaining // p, 0, -1):
                mults[p] = cnt
                yield from rec(remaining - cnt * p, p - 2, mults)
                del mults[p]
            p -= 2

    yield from rec(n, n, {})


def unlabeled_tournament_count(n: int) -> int:
    """Number of tournaments on n vertices up to isomorphism.

    Only permutations all of whose cycles have odd length fix any tournament,
    and such a permutation with cycle lengths λ fixes exactly 2^q(λ) of them,
    where q(λ) counts the edge orbits:

        q(λ) = Σ_i (λ_i − 1)/2  +  Σ_{i<j} gcd(λ_i, λ_j).

    Averaging over the symmetric group gives the sum below over partitions of
    n into odd parts (z_λ = Π l^{a_l} a_l! is the usual centralizer size).
    This per-n Fraction sum is the independent check of the one-pass
    ``unlabeled_tournaments()`` values; no computation path calls it.

    >>> [unlabeled_tournament_count(n) for n in range(1, 8)]
    [1, 1, 2, 4, 12, 56, 456]
    """
    if n == 0:
        return 1
    total = Fraction(0)
    for mults in _odd_partitions(n):
        z = 1
        q = 0
        parts = sorted(mults)
        for length, a in mults.items():
            z *= length**a * factorial(a)
            q += a * (length - 1) // 2  # orbits inside a single cycle
            q += comb(a, 2) * length  # between equal-length cycles
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                q += mults[parts[i]] * mults[parts[j]] * gcd(parts[i], parts[j])
        total += Fraction(2**q, z)
    assert total.denominator == 1, "cycle-index average must be an integer"
    return int(total)


def unlabeled_tournaments() -> CountingSequence:
    return CountingSequence(
        name="unlabeled_tournaments",
        labeling="unlabeled",
        period=1,
        _fill=_unlabeled_tournament_counts,
    )


# ---------------------------------------------------------------------------
# user-supplied sequences
# ---------------------------------------------------------------------------


def custom(
    values: list[int] | tuple[int, ...],
    labeling: str,
    period: int = 1,
    name: str = "custom",
) -> CountingSequence:
    """Wrap an explicit value list as a counting sequence.

    The list must start with a_0 = 1, contain only nonnegative integers, and
    respect the declared period (zeros exactly off the multiples of p, with a
    nonzero value on every covered multiple past the first).  Indices beyond
    the list raise RangeError: a finite list cannot define the tail.
    """
    if labeling not in ("labeled", "unlabeled"):
        raise RangeError(f"unknown labeling {labeling!r}")
    if period < 1:
        raise PeriodMismatch("period must be a positive integer")
    vals = [int(v) for v in values]
    if not vals:
        raise BadConstantTerm("empty value list")
    if vals[0] != 1:
        raise BadConstantTerm(f"a_0 must be 1, got {vals[0]}")
    for n, v in enumerate(vals):
        if v < 0:
            raise NegativeCount(f"a_{n} = {v} is negative")
    if period > 1:
        for n, v in enumerate(vals):
            if n % period != 0 and v != 0:
                raise PeriodMismatch(
                    f"declared period {period} but a_{n} = {v} is nonzero off-support"
                )
            if n % period == 0 and n > 0 and v == 0:
                raise PeriodMismatch(
                    f"declared period {period} but a_{n} = 0 on the support"
                )

    def fill(n: int) -> list[int]:
        if n >= len(vals):
            raise RangeError(
                f"custom sequence {name!r} defines values up to n={len(vals) - 1}, asked for {n}"
            )
        return vals[: n + 1]

    return CountingSequence(name=name, labeling=labeling, period=period, _fill=fill)


def parse_custom_text(text: str, name: str = "custom") -> CountingSequence:
    """Parse the custom-sequence file format.

    Header lines ``labeling: labeled|unlabeled`` and ``period: p`` (in any
    order), then one integer per line.  Blank lines and ``#`` comments are
    ignored.
    """
    labeling: str | None = None
    period = 1
    values: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" in line and not line.lstrip("-").isdigit():
            key, _, val = line.partition(":")
            key = key.strip().lower()
            val = val.strip()
            if key == "labeling":
                if val not in ("labeled", "unlabeled"):
                    raise RangeError(f"labeling must be labeled|unlabeled, got {val!r}")
                labeling = val
            elif key == "period":
                try:
                    period = int(val)
                except ValueError as exc:
                    raise RangeError(f"bad period {val!r}") from exc
            else:
                raise RangeError(f"unknown header line {line!r}")
            continue
        try:
            values.append(int(line))
        except ValueError as exc:
            raise RangeError(f"bad integer line {line!r}") from exc
    if labeling is None:
        raise RangeError("missing 'labeling:' header")
    return custom(values, labeling, period, name=name)


def load_custom(path: str | Path) -> CountingSequence:
    """Read a custom class file (UTF-8 text, see :func:`parse_custom_text`).

    Every error in the file names its path: a file that is not UTF-8 raises
    RangeError, and an error of :func:`parse_custom_text` is raised again as
    the same class with the path in front of its message.
    """
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise RangeError(f"custom class file {str(p)!r} is not UTF-8 text: {exc}") from None
    try:
        return parse_custom_text(text, name=p.stem)
    except SeqasymError as exc:
        raise type(exc)(f"custom class file {str(p)!r}: {exc}") from None


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def _without_d(make: Callable[[], CountingSequence]) -> Callable[[int], CountingSequence]:
    """Factory of a class with no d parameter: it exists for d = 1 only."""

    def factory(d: int) -> CountingSequence:
        if d != 1:
            raise RangeError(
                f"--d {d}: {make().name} has no d parameter; only --d 1 is defined"
            )
        return make()

    return factory


#: factories for classes addressable by name; values take the d parameter,
#: and the parameterless classes refuse any d other than 1.
CATALOG_FACTORIES: dict[str, Callable[[int], CountingSequence]] = {
    "tournaments": lambda d: tournaments(d),
    "linear_orders": lambda d: linear_orders(d),
    "permutations": lambda d: permutations(d),
    "matchings": lambda d: matchings(d),
    "matchings_labeled": _without_d(matchings_labeled),
    "linear_matchings": _without_d(linear_matchings),
    "unlabeled_tournaments": _without_d(unlabeled_tournaments),
    "constant-1": _without_d(constant_ones),
}


def resolve_class(name: str, d: int = 1) -> CountingSequence:
    """Look up a catalog class by CLI name.

    A class without a d parameter raises RangeError for any d other than 1.
    """
    from .errors import UnknownClass

    try:
        factory = CATALOG_FACTORIES[name]
    except KeyError:
        raise UnknownClass(
            f"unknown class {name!r}; known: {', '.join(sorted(CATALOG_FACTORIES))}"
        ) from None
    return factory(d)


def catalog_classes(d_max: int = 3) -> list[CountingSequence]:
    """The classes meant by "every catalog class" in cross-cutting checks.

    The raw labeled matchings view is excluded on purpose: it is not
    sequence-decomposable (that is its documented role), so part-count and
    coefficient properties are not defined for it.
    """
    out: list[CountingSequence] = []
    for d in range(1, d_max + 1):
        out.append(tournaments(d))
        out.append(linear_orders(d))
        out.append(permutations(d))
        out.append(matchings(d))
    out.append(linear_matchings())
    out.append(unlabeled_tournaments())
    out.append(constant_ones())
    return out

