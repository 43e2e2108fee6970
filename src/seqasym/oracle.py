"""Brute-force enumeration oracles: count small objects by number of parts.

Every exact pipeline in this package (series inversion, part tables,
coefficient tables) is cross-checked against direct enumeration of the
objects themselves.  The oracles know nothing about generating functions:

* tournaments(d): all (d+1)^C(n,2) assignments of pair outcomes (the value
  of a pair {i,j}, i<j, is how many of the d games i won); vertex i beats j
  if it won at least one game; parts = strongly connected components of the
  beat digraph, read off each distinct score multiset (games won per
  vertex) by Landau's rule scaled by d: the number of k for which the k
  smallest scores sum to d*C(k,2) (Landau 1953; Moon, Topics on Tournaments,
  1968; proof at ``enumerate_tournament_parts``);
* permutations(d): all (n!)^d tuples; a position k is a breakpoint if every
  member maps {1..k} to itself; parts = common breakpoints, the AND of the
  members' breakpoint bitmasks, taken over d-tuples of distinct masks;
* matchings(d): all ((2n-1)!!)^d tuples of perfect matchings of {1..2n};
  breakpoints are the even prefixes closed under every member;
* unlabeled tournaments: one representative per isomorphism orbit, found by
  ascending scan with orbit marking (the first unvisited code, found by
  ``bytearray.find``, is the minimal member of a fresh orbit, so each orbit
  is expanded once); the relabelings are packed once per n into lanes of
  Python ints, one 16-bit lane (up to 16 pairs) or 32-bit lane (up to 32)
  per relabeling, so the orbit is one XOR of packed ints per set bit of the
  representative, unpacked through ``memoryview.cast``; parts come from the
  representative's scores by the same Landau rule, with d = 1.

Each oracle tallies an exact invariant of its objects (a score multiset, a
breakpoint mask) and turns each distinct value into a part count once; the
tallies are asserted to sum to the number of objects.  Scores are folded
in pair by pair, and a vertex's score joins a histogram once the vertex has
played its last pair, so the keys merge to score histograms.  Breakpoint
masks are tallied by one walk over prefix sets that expands each set once,
carrying a plain dict from mask to multiplicity that each move folds into
the next set's dict.

Each kind is one row of ``_KINDS``: its public entry point, its display
name, the catalog class whose values count its raw objects where that is
not its own (the unlabeled kind scans the codes of tournaments(1)), and its
largest n where it has one (the unlabeled kind's lanes take n <= 8).  Its
reference class is ``catalog.resolve_class(kind, d)``, resolved by
``reference_class`` alone, so the catalog words every refusal of d.
``object_count``, ``oracle_for`` and the one helper every entry point runs
through read the row; the helper checks n and d, applies the budget (in
objects, not walk states; a size whose lower bound 2^(n-1) already exceeds
the budget is refused without counting), then the row's largest n, times
the tally and builds the result.  A new kind is one row, its tally and its
own test, kept off the seven-row ``ORACLE_GRID``.  Tests run Tarjan, the
per-object mask walks and per-object relabeling on every object at small
sizes to check them.

Measured in-process (2-core VM, CPython 3.11.7, best of 7), the plain-dict
walks and packed lanes against the Counter walks and per-relabeling lists
they replace: the permutation grid row (d = 1, n <= 9) 6.7 -> 3.1 ms, the
matching row (d = 1, n <= 6) 2.2 -> 1.2 ms, the unlabeled row (n <= 6)
11.1 -> 5.0 ms; the tournament rows barely move (8.8 -> 8.2 ms at
d = 1, n <= 7).  ``oracle --class unlabeled_tournaments --n 7`` (2^21 codes,
456 orbits) takes 0.98 -> 0.29 s.  The README lists every row.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

from . import catalog
from .errors import BudgetExceeded, RangeError, UnknownClass

__all__ = [
    "OracleResult",
    "object_count",
    "enumerate_tournament_parts",
    "enumerate_permutation_parts",
    "enumerate_matching_parts",
    "enumerate_unlabeled_tournament_parts",
    "oracle_for",
    "reference_class",
    "ORACLE_KINDS",
]


@dataclass(frozen=True)
class OracleResult:
    """Exact part-count distribution from direct enumeration.

    ``elapsed`` is wall-clock seconds and is the one nondeterministic field;
    machine-readable renderings must omit it.
    """

    class_name: str
    n: int
    counts_by_parts: dict[int, int]
    total_enumerated: int
    elapsed: float

    def count(self, m: int) -> int:
        return self.counts_by_parts.get(m, 0)


# ---------------------------------------------------------------------------
# the oracle kinds, and the one helper every enumerator runs through
# ---------------------------------------------------------------------------


class _Kind(NamedTuple):
    """One oracle kind.  Its reference class, whose count and parts table the
    tally must match, is ``catalog.resolve_class(kind, d)`` for every kind."""

    # the public entry point as (n, d, budget); a lambda, so that it looks up
    # the module global at call time and a wrapper bound there later (as the
    # benchmark's tracer binds one) sees every call
    run: Callable[[int, int, int | None], OracleResult]
    name: str  # display name, formatted with d
    # catalog key whose values at d count the raw objects, if not the kind's own
    scans: str | None = None
    n_max: int | None = None  # largest n the tally can take


_KINDS: dict[str, _Kind] = {
    "tournaments": _Kind(
        lambda n, d, budget: enumerate_tournament_parts(n, d, budget), "tournaments(d={d})"
    ),
    "permutations": _Kind(
        lambda n, d, budget: enumerate_permutation_parts(n, d, budget), "permutations(d={d})"
    ),
    "matchings": _Kind(
        lambda n, d, budget: enumerate_matching_parts(n, d, budget), "matchings(d={d})"
    ),
    # scans the codes of tournaments(1); 32-bit lanes hold C(8, 2) = 28 pairs
    "unlabeled_tournaments": _Kind(
        lambda n, d, budget: enumerate_unlabeled_tournament_parts(n, budget),
        "unlabeled tournaments",
        scans="tournaments",
        n_max=8,
    ),
}

ORACLE_KINDS = tuple(_KINDS)

# default enumeration budget of ``seqasym oracle``
DEFAULT_BUDGET = 3_000_000


def _row(kind: str) -> _Kind:
    try:
        return _KINDS[kind]
    except KeyError:
        raise UnknownClass(f"no oracle for {kind!r}") from None


def reference_class(kind: str, d: int = 1) -> catalog.CountingSequence:
    """The class whose count and parts table an oracle kind's tally must match.

    ``catalog.resolve_class`` makes every refusal of d, so the oracle words
    them as ``table`` and ``expansion`` do.
    """
    _row(kind)
    return catalog.resolve_class(kind, d)


def _check(kind: str, n: int, d: int) -> tuple[_Kind, catalog.CountingSequence]:
    """The row and reference class of an oracle kind, after the n >= 1 rule."""
    row = _row(kind)
    if n < 1:
        raise RangeError(f"--n {n}: need n >= 1")
    return row, reference_class(kind, d)


def object_count(kind: str, n: int, d: int = 1) -> int:
    """How many raw objects the oracle would visit (the enumeration budget):
    the count of the reference class, or of the class the kind's row scans."""
    row, A = _check(kind, n, d)
    return (A if row.scans is None else catalog.resolve_class(row.scans, d)).value(n)


def _enumerate(
    kind: str,
    n: int,
    d: int,
    budget: int | None,
    tally: Callable[[], tuple[dict[int, int], int]],
) -> OracleResult:
    """Check n, d, the budget and the row's largest n, then time
    ``tally() -> (counts, total)``.

    Every kind has at least 2^(n-1) objects, so a size past the budget's bit
    length is refused before its exact count, which at n in the thousands
    has millions of digits, is formed or printed.
    """
    row, _ = _check(kind, n, d)
    if budget is not None:
        if n - 1 >= budget.bit_length():
            raise BudgetExceeded(
                f"{kind} n={n} d={d}: at least 2^{n - 1} objects exceed budget {budget}"
            )
        objects = object_count(kind, n, d)
        if objects > budget:
            raise BudgetExceeded(f"{kind} n={n} d={d}: {objects} objects exceed budget {budget}")
    if row.n_max is not None and n > row.n_max:
        raise RangeError(f"--n {n}: the {kind} oracle takes n <= {row.n_max}")
    t0 = time.perf_counter()
    counts, total = tally()
    elapsed = time.perf_counter() - t0
    return OracleResult(
        class_name=row.name.format(d=d),
        n=n,
        counts_by_parts=dict(sorted(counts.items())),
        total_enumerated=total,
        elapsed=elapsed,
    )


# ---------------------------------------------------------------------------
# tournaments
# ---------------------------------------------------------------------------


def _pair_table(n: int) -> tuple[list[tuple[int, int]], dict[tuple[int, int], int]]:
    """The pairs i < j in order, and the index of each pair."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return pairs, {pq: idx for idx, pq in enumerate(pairs)}


def enumerate_tournament_parts(
    n: int, d: int = 1, budget: int | None = None
) -> OracleResult:
    """Part-count distribution over all (d+1)^C(n,2) multi-tournaments.

    Parts are counted by the weighted Landau rule on each distinct score
    multiset.  A set S of k vertices sends no beat-arc out of S exactly when
    it wins no game against the rest, i.e. its scores sum to d*C(k,2); then
    S scores at most d(k-1) each and the rest at least dk, so S is the k
    smallest, and the sizes k of such sets are the part boundaries.
    """

    def tally() -> tuple[dict[int, int], int]:
        pairs, _ = _pair_table(n)
        total = (d + 1) ** len(pairs)
        multisets = _score_tally(n, pairs, d)
        assert sum(multisets.values()) == total, "tally skipped or repeated outcomes"
        counts: dict[int, int] = {}
        for multiset, c in multisets.items():
            parts = _landau_parts(multiset, d)
            counts[parts] = counts.get(parts, 0) + c
        return counts, total

    return _enumerate("tournaments", n, d, budget, tally)


def _score_tally(n: int, pairs: list[tuple[int, int]], d: int) -> dict[tuple[int, ...], int]:
    """Tally of score multisets (ascending tuples) over all (d+1)^len(pairs)
    outcomes of the pairs of an n-vertex multi-tournament.

    Pairs are folded in one at a time; outcome ``v = 0..d`` of ``(i, j)``
    gives i v wins and j the other d-v.  A key holds the score of vertex v in
    digit v of base ``d(n-1)+2`` while v still has pairs to play.  Once v has
    played its last pair its score s is final, so it moves to the histogram
    digit ``n+s``: keys that spread the same finished scores over different
    vertices merge, and the final keys are score histograms.
    """
    base = d * (n - 1) + 2  # a digit holds a score, or how many of n vertices share one
    place = [base**v for v in range(n)]
    histogram = [base ** (n + s) for s in range(base - 1)]
    last_pair = {v: idx for idx, pair in enumerate(pairs) for v in pair}
    tally = {0: 1} if pairs else {histogram[0]: 1}  # n = 1: one vertex, score 0
    for idx, (i, j) in enumerate(pairs):
        steps = [v * place[i] + (d - v) * place[j] for v in range(d + 1)]
        folded: dict[int, int] = {}
        get = folded.get
        for key, c in tally.items():
            for step in steps:
                k = key + step
                folded[k] = get(k, 0) + c
        tally = folded
        for v in (i, j):
            if last_pair[v] == idx:
                tally = _finish_vertex(tally, place[v], base, histogram)
    out: dict[tuple[int, ...], int] = {}
    for key, c in tally.items():
        multiset: list[int] = []
        for s, h in enumerate(histogram):
            multiset += [s] * (key // h % base)
        out[tuple(multiset)] = c
    return out


def _finish_vertex(
    tally: dict[int, int], place: int, base: int, histogram: list[int]
) -> dict[int, int]:
    """Move one vertex's final score from its own digit to the histogram."""
    merged: dict[int, int] = {}
    get = merged.get
    for key, c in tally.items():
        s = key // place % base
        key += histogram[s] - s * place
        merged[key] = get(key, 0) + c
    return merged


def _landau_parts(scores: Iterable[int], d: int) -> int:
    """Strong components of any d-tournament with these scores (games won
    per vertex, in any order).

    Landau's rule, weighted by d: the count of k for which the k smallest
    scores sum to d*C(k,2).  Asserts the scores are a weighted score sequence
    (total d*C(n,2), every sorted prefix of length k at least d*C(k,2)).
    """
    scores = sorted(scores)
    n = len(scores)
    parts = prefix = 0
    for k, s in enumerate(scores, start=1):
        prefix += s
        floor = d * (k * (k - 1) // 2)
        assert prefix >= floor, "not a score sequence"
        parts += prefix == floor
    assert prefix == d * (n * (n - 1) // 2), "not a score sequence"
    return parts


# ---------------------------------------------------------------------------
# permutations and matchings: one walk over prefix sets
# ---------------------------------------------------------------------------


def _closure_tally(moves: Callable[[int], Iterable[int]], rounds: int, step: int) -> dict[int, int]:
    """Tally of breakpoint masks over every object built by ``rounds`` moves.

    A state is the set T of points taken so far, and ``moves(T)`` yields the
    states one move on.  A state equal to the first k*step points sets bit
    k-1 of the mask.  The future of a state depends on T alone, so each set
    is expanded once, carrying the tally of the masks that lead to it in a
    plain dict.
    """
    level = {0: {0: 1}}
    for _ in range(rounds):
        folded: dict[int, dict[int, int]] = {}
        for taken, masks in level.items():
            for t in moves(taken):
                bit = 1 << (t.bit_count() // step - 1) if t & (t + 1) == 0 else 0
                into = folded.get(t)
                if into is None:
                    folded[t] = into = {}
                get = into.get
                for mask, c in masks.items():
                    mask |= bit
                    into[mask] = get(mask, 0) + c
        level = folded
    (tally,) = level.values()
    return tally


def _permutation_masks(n: int) -> dict[int, int]:
    """Masks of the permutations of {1..n}: a move places any unused value."""
    return _closure_tally(lambda t: (t | 1 << v for v in range(n) if not t >> v & 1), n, 1)


def _matching_masks(pairs: int) -> dict[int, int]:
    """Masks of the perfect matchings of {0..2·pairs-1}: a move pairs the
    first free point with any later free point."""

    def moves(t: int) -> Iterable[int]:
        first = ~t & (t + 1)
        return (t | first | 1 << b for b in range(first.bit_length(), 2 * pairs) if not t >> b & 1)

    return _closure_tally(moves, pairs, 2)


def _common_breakpoints(tally: dict[int, int], d: int) -> tuple[dict[int, int], int]:
    """Tally of common-breakpoint counts over all d-tuples of members, and
    the number of d-tuples, from the tally of the members' masks.

    A d-tuple of members has the common breakpoints of its masks, so only
    d-tuples of distinct masks are visited, each weighted by the product of
    their multiplicities.
    """
    counts: dict[int, int] = {}
    for members in itertools.product(tally.items(), repeat=d):
        common, weight = -1, 1
        for mask, c in members:
            common &= mask
            weight *= c
        parts = common.bit_count()
        counts[parts] = counts.get(parts, 0) + weight
    total = sum(tally.values()) ** d
    assert sum(counts.values()) == total, "tuples skipped or repeated"
    return counts, total


def enumerate_permutation_parts(
    n: int, d: int = 1, budget: int | None = None
) -> OracleResult:
    """Part-count distribution over all (n!)^d permutation tuples."""

    def tally() -> tuple[dict[int, int], int]:
        return _common_breakpoints(_permutation_masks(n), d)

    return _enumerate("permutations", n, d, budget, tally)


def enumerate_matching_parts(
    pairs: int, d: int = 1, budget: int | None = None
) -> OracleResult:
    """Part-count distribution over all ((2n-1)!!)^d matching tuples."""

    def tally() -> tuple[dict[int, int], int]:
        return _common_breakpoints(_matching_masks(pairs), d)

    return _enumerate("matchings", pairs, d, budget, tally)


# ---------------------------------------------------------------------------
# unlabeled tournaments
# ---------------------------------------------------------------------------


class _Lanes(NamedTuple):
    """The relabelings of {0..n-1}, packed one lane per relabeling p (in
    ``itertools.permutations`` order) into a Python int: lane p is item p of
    ``memoryview(x.to_bytes(nbytes, "little")).cast(fmt)``."""

    flips: int  # lane p: the bits of code 0 that p inverts
    columns: list[int]  # columns[src], lane p: the bit that pair src lands on
    fmt: str  # "H" (16-bit lanes, up to 16 pairs) or "I" (32-bit, up to 32)
    nbytes: int


def _relabel_columns(n: int) -> _Lanes:
    """The packed relabeling lanes of n vertices.

    Relabeling p sends pair src = (i, j) to the pair {p[i], p[j]}: bit src of
    a code moves to that pair's index, inverted when p[i] > p[j].  So lane p
    of the image of a code is lane p of ``flips`` XOR-ed with lane p of
    ``columns[src]`` for each set bit src, and one XOR of whole ints does
    that for every p at once.
    """
    pairs, pos = _pair_table(n)
    assert len(pairs) <= 32, "lanes hold at most 32 pairs"
    bit = [[0] * n for _ in range(n)]  # bit[a][b]: the bit of pair {a, b}
    for (a, b), idx in pos.items():
        bit[a][b] = bit[b][a] = 1 << idx
    perms = list(itertools.permutations(range(n)))
    fmt, size = ("H", 2) if len(pairs) <= 16 else ("I", 4)
    nbytes = size * len(perms)

    def pack(lanes: Iterable[int]) -> int:
        buf = bytearray(nbytes)
        view = memoryview(buf).cast(fmt)
        for p, lane in enumerate(lanes):
            view[p] = lane
        return int.from_bytes(buf, "little")

    columns = [pack(bit[p[i]][p[j]] for p in perms) for i, j in pairs]
    flips = pack(sum(bit[p[i]][p[j]] for i, j in pairs if p[i] > p[j]) for p in perms)
    return _Lanes(flips, columns, fmt, nbytes)


def _relabelings(code: int, lanes: _Lanes) -> memoryview:
    """The images of a code under every relabeling: one XOR per set bit,
    then the lanes unpacked."""
    packed = lanes.flips
    for src, column in enumerate(lanes.columns):
        if code >> src & 1:
            packed ^= column
    return memoryview(packed.to_bytes(lanes.nbytes, "little")).cast(lanes.fmt)


def enumerate_unlabeled_tournament_parts(
    n: int, budget: int | None = None
) -> OracleResult:
    """Part-count distribution over isomorphism classes of tournaments.

    Scans codes in ascending order; the first unvisited code is the minimal
    member of a fresh orbit and serves as its representative.  Marking the
    whole orbit visited means every orbit is expanded and counted once.  The
    orbit comes from the relabeling lanes of ``_relabel_columns``, and the
    representative's parts from its scores (bit idx of the code is set when
    the first vertex of pair idx wins) by Landau's rule.
    """

    def tally() -> tuple[dict[int, int], int]:
        pairs, _ = _pair_table(n)
        lanes = _relabel_columns(n)
        counts: dict[int, int] = {}
        visited = bytearray(1 << len(pairs))
        code = 0
        while code >= 0:
            orbit = _relabelings(code, lanes)
            for c in orbit:
                visited[c] = 1
            assert min(orbit) == code  # earlier codes of the orbit are visited
            scores = [0] * n
            for idx, (i, j) in enumerate(pairs):
                scores[i if code >> idx & 1 else j] += 1
            parts = _landau_parts(scores, 1)
            counts[parts] = counts.get(parts, 0) + 1
            code = visited.find(0, code + 1)  # -1 once every code is marked
        return counts, sum(counts.values())

    return _enumerate("unlabeled_tournaments", n, 1, budget, tally)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def oracle_for(kind: str, n: int, d: int = 1, budget: int | None = None) -> OracleResult:
    """Run the entry point of an oracle kind, after the refusals of n and d
    (the unlabeled entry point takes no d)."""
    row, _ = _check(kind, n, d)
    return row.run(n, d, budget)
