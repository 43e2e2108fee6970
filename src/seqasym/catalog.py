"""Built-in counting sequences and user-supplied ones.

A :class:`CountingSequence` is a named integer sequence a_0, a_1, a_2, ...
together with the bookkeeping every downstream computation needs:

* ``labeling`` — "labeled" classes live in the exponential-generating-function
  ring (coefficients a_n/n!), "unlabeled" ones in the ordinary ring;
* ``period`` — p > 1 means a_n = 0 whenever p does not divide n (with the
  nonzero support on multiples of p);
* ``provenance`` — closed-form, user-list, or derived.

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

The raw matchings view is deliberately NOT sequence-decomposable (its inversion
produces a negative part count at n=4); it exists so that the reindexing and
lifting machinery can be exercised against it.  ``linear_matchings`` is the
decomposable lift carrying the same combinatorics.

Unlabeled tournament counts use the classical cycle-index summation over
partitions of n into odd parts; because that formula is imported knowledge, the
test-suite validates it against an exhaustive isomorphism-class enumeration for
n <= 6 before anything downstream may trust it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial, gcd
from pathlib import Path
from typing import Callable, Iterator

from .errors import BadConstantTerm, NegativeCount, PeriodMismatch, RangeError

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

    Instances are immutable by convention: the value function must be pure,
    and the internal cache only ever grows, so concurrent readers are safe.
    """

    name: str
    labeling: str  # "labeled" | "unlabeled"
    period: int
    provenance: str  # "closed-form" | "user-list" | "derived"
    _fn: Callable[[int], int]
    _cache: dict[int, int] = field(default_factory=dict, repr=False)

    def value(self, n: int) -> int:
        if n < 0:
            raise RangeError("sequence indices start at 0")
        got = self._cache.get(n)
        if got is None:
            got = self._fn(n)
            self._cache[n] = got
        return got

    def values(self, n_max: int) -> list[int]:
        return [self.value(n) for n in range(n_max + 1)]

    def describe(self) -> str:
        return f"{self.name} ({self.labeling}, period {self.period})"


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


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
        raise RangeError("d must be a positive integer")
    return CountingSequence(
        name=f"tournaments(d={d})",
        labeling="labeled",
        period=1,
        provenance="closed-form",
        _fn=lambda n: (d + 1) ** comb(n, 2),
    )


def linear_orders(d: int = 1) -> CountingSequence:
    """Labeled d-tuples of linear orders: (n!)^d."""
    if d < 1:
        raise RangeError("d must be a positive integer")
    return CountingSequence(
        name=f"linear_orders(d={d})",
        labeling="labeled",
        period=1,
        provenance="closed-form",
        _fn=lambda n: factorial(n) ** d,
    )


def permutations(d: int = 1) -> CountingSequence:
    """d-tuples of permutations, treated as unlabeled objects: (n!)^d."""
    if d < 1:
        raise RangeError("d must be a positive integer")
    return CountingSequence(
        name=f"permutations(d={d})",
        labeling="unlabeled",
        period=1,
        provenance="closed-form",
        _fn=lambda n: factorial(n) ** d,
    )


def matchings(d: int = 1) -> CountingSequence:
    """d-tuples of perfect matchings, unlabeled, indexed by the pair count n."""
    if d < 1:
        raise RangeError("d must be a positive integer")
    return CountingSequence(
        name=f"matchings(d={d})",
        labeling="unlabeled",
        period=1,
        provenance="closed-form",
        _fn=lambda n: double_factorial(2 * n - 1) ** d,
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
        provenance="closed-form",
        _fn=lambda n: double_factorial(n - 1) if n % 2 == 0 else 0,
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
        provenance="closed-form",
        _fn=lambda n: factorial(n) * double_factorial(n - 1) if n % 2 == 0 else 0,
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
        provenance="closed-form",
        _fn=lambda n: 1,
    )


# ---------------------------------------------------------------------------
# unlabeled tournaments (cycle-index summation)
# ---------------------------------------------------------------------------


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
        provenance="closed-form",
        _fn=unlabeled_tournament_count,
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

    def fn(n: int) -> int:
        if n >= len(vals):
            raise RangeError(
                f"custom sequence {name!r} defines values up to n={len(vals) - 1}, asked for {n}"
            )
        return vals[n]

    return CountingSequence(
        name=name, labeling=labeling, period=period, provenance="user-list", _fn=fn
    )


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
    p = Path(path)
    return parse_custom_text(p.read_text(), name=p.stem)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

#: factories for classes addressable by name; values take the d parameter
#: (ignored by the parameterless ones).
CATALOG_FACTORIES: dict[str, Callable[[int], CountingSequence]] = {
    "tournaments": lambda d: tournaments(d),
    "linear_orders": lambda d: linear_orders(d),
    "permutations": lambda d: permutations(d),
    "matchings": lambda d: matchings(d),
    "matchings_labeled": lambda d: matchings_labeled(),
    "linear_matchings": lambda d: linear_matchings(),
    "unlabeled_tournaments": lambda d: unlabeled_tournaments(),
    "constant-1": lambda d: constant_ones(),
}


def resolve_class(name: str, d: int = 1) -> CountingSequence:
    """Look up a catalog class by CLI name."""
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

