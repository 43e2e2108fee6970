"""Brute-force enumeration oracles: count small objects by number of parts.

Every exact pipeline in this package (series inversion, part tables,
coefficient tables) is cross-checked against direct enumeration of the
objects themselves.  The oracles know nothing about generating functions:

* tournaments(d): all (d+1)^C(n,2) assignments of pair outcomes (the value
  of a pair {i,j}, i<j, is how many of the d games i won); vertex i beats j
  if it won at least one game; parts = strongly connected components of the
  beat digraph.  For d >= 2 (semicomplete digraphs) these come from Tarjan's
  algorithm, and the condensation is asserted to be a chain when m > 1.  For
  d = 1 the 2^C(n,2) tournaments are walked in reflected Gray-code order,
  one arc flip and two score updates per step, and each distinct score
  vector gets its part count from Landau's score rule: the number of k for
  which the k smallest scores sum to C(k,2) (Landau 1953; Moon, Topics on
  Tournaments, 1968);
* permutations(d): all (n!)^d tuples; a position k is a breakpoint if every
  member maps {1..k} to itself; parts = common breakpoints, computed by
  AND-ing per-member prefix-maximum bitmasks;
* matchings(d): all ((2n-1)!!)^d tuples of perfect matchings of {1..2n};
  breakpoints are the even prefixes closed under every member;
* unlabeled tournaments: one representative per isomorphism orbit, found by
  ascending scan with orbit marking (the first unvisited code is the
  lexicographically minimal member of a fresh orbit); parts come from
  Tarjan's algorithm with the chain assertion, as for d >= 2.

Enumeration order is fixed over a flat index space (an odometer; for d=1
tournaments, index t visits Gray code t ^ (t >> 1), a bijection), so results
are deterministic, and any sharding of the index range merges to the same
counts.  Shards run sequentially; the ``workers`` knob controls only how the
range is split, never the arithmetic.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from dataclasses import dataclass
from math import comb, factorial

from .errors import BudgetExceeded, RangeError, UnknownClass

__all__ = [
    "OracleResult",
    "object_count",
    "default_oracle_size",
    "enumerate_tournament_parts",
    "enumerate_permutation_parts",
    "enumerate_matching_parts",
    "enumerate_unlabeled_tournament_parts",
    "canonical_tournament_code",
    "oracle_for",
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


def _shard_ranges(total: int, workers: int) -> list[tuple[int, int]]:
    if workers < 1:
        raise RangeError("workers must be >= 1")
    workers = min(workers, max(total, 1))
    step, extra = divmod(total, workers)
    ranges, lo = [], 0
    for w in range(workers):
        hi = lo + step + (1 if w < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


# ---------------------------------------------------------------------------
# strong components (iterative Tarjan on bitmask adjacency)
# ---------------------------------------------------------------------------


def _strong_components(n: int, adj: list[int]) -> tuple[int, list[int]]:
    """Component count and per-vertex component id (sinks numbered first)."""
    index = [0] * n
    low = [0] * n
    on_stack = [False] * n
    comp = [-1] * n
    stack: list[int] = []
    counter = 0
    ncomp = 0
    for root in range(n):
        if index[root]:
            continue
        counter += 1
        index[root] = low[root] = counter
        stack.append(root)
        on_stack[root] = True
        frames = [[root, adj[root]]]
        while frames:
            v, rem = frames[-1]
            if rem:
                w = (rem & -rem).bit_length() - 1
                frames[-1][1] = rem & (rem - 1)
                if not index[w]:
                    counter += 1
                    index[w] = low[w] = counter
                    stack.append(w)
                    on_stack[w] = True
                    frames.append([w, adj[w]])
                elif on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                frames.pop()
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp[w] = ncomp
                        if w == v:
                            break
                    ncomp += 1
                if frames and low[v] < low[frames[-1][0]]:
                    low[frames[-1][0]] = low[v]
    return ncomp, comp


def _condensation_is_chain(n: int, adj: list[int], comp: list[int]) -> bool:
    """Cross-component arcs must all point from higher comp id to lower."""
    for u in range(n):
        for w in range(n):
            if u == w or comp[u] == comp[w]:
                continue
            if ((adj[u] >> w) & 1) != (comp[u] > comp[w]):
                return False
    return True


# ---------------------------------------------------------------------------
# object-count formulas and budgets
# ---------------------------------------------------------------------------

ORACLE_KINDS = ("tournaments", "permutations", "matchings", "unlabeled_tournaments")

_DEFAULT_SIZES = {
    ("tournaments", 1): 7,
    ("tournaments", 2): 5,
    ("tournaments", 3): 4,
    ("permutations", 1): 9,
    ("permutations", 2): 6,
    ("permutations", 3): 5,
    ("matchings", 1): 6,
    ("matchings", 2): 4,
    ("unlabeled_tournaments", 1): 6,
}

_FALLBACK_BUDGET = 3_000_000


def object_count(kind: str, n: int, d: int = 1) -> int:
    """How many raw objects the oracle would visit (the enumeration budget)."""
    if kind == "tournaments":
        return (d + 1) ** comb(n, 2)
    if kind == "permutations":
        return factorial(n) ** d
    if kind == "matchings":
        m2 = 2 * n
        return (factorial(m2) // (2**n * factorial(n))) ** d
    if kind == "unlabeled_tournaments":
        return 2 ** comb(n, 2)
    raise UnknownClass(f"no oracle for {kind!r}")


def default_oracle_size(kind: str, d: int = 1) -> int:
    """Largest size enumerated by default (fixed table, else a count budget)."""
    try:
        return _DEFAULT_SIZES[(kind, d)]
    except KeyError:
        n = 1
        while object_count(kind, n + 1, d) <= _FALLBACK_BUDGET:
            n += 1
        return n


def _check_budget(kind: str, n: int, d: int, budget: int | None) -> None:
    if budget is not None and object_count(kind, n, d) > budget:
        raise BudgetExceeded(
            f"{kind} n={n} d={d}: {object_count(kind, n, d)} objects exceed budget {budget}"
        )


# ---------------------------------------------------------------------------
# tournaments
# ---------------------------------------------------------------------------


def enumerate_tournament_parts(
    n: int, d: int = 1, workers: int = 1, budget: int | None = None
) -> OracleResult:
    """Part-count distribution over all (d+1)^C(n,2) multi-tournaments."""
    if n < 1 or d < 1:
        raise RangeError("need n >= 1 and d >= 1")
    _check_budget("tournaments", n, d, budget)
    t0 = time.perf_counter()
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    P = len(pairs)
    base = d + 1
    total = base**P
    counts: Counter[int] = Counter()
    if d == 1:
        tally: Counter[int] = Counter()
        for lo, hi in _shard_ranges(total, workers):
            shard = _score_walk(n, pairs, lo, hi)
            assert sum(shard.values()) == hi - lo, "shard skipped or repeated codes"
            tally.update(shard)
        for key, c in tally.items():
            counts[_landau_parts(n, key)] += c
    else:
        for lo, hi in _shard_ranges(total, workers):
            counts.update(_tournament_shard(n, d, pairs, base, lo, hi))
    elapsed = time.perf_counter() - t0
    return OracleResult(
        class_name=f"tournaments(d={d})",
        n=n,
        counts_by_parts=dict(sorted(counts.items())),
        total_enumerated=total,
        elapsed=elapsed,
    )


def _tournament_shard(
    n: int, d: int, pairs: list[tuple[int, int]], base: int, lo: int, hi: int
) -> Counter:
    P = len(pairs)
    digits = [0] * P
    x = lo
    for idx in range(P):
        x, digits[idx] = divmod(x, base)
    counts: Counter[int] = Counter()
    for _ in range(lo, hi):
        adj = [0] * n
        for idx in range(P):
            v = digits[idx]
            i, j = pairs[idx]
            if v:
                adj[i] |= 1 << j
            if v < d:
                adj[j] |= 1 << i
        m, comp = _strong_components(n, adj)
        if m > 1:
            assert _condensation_is_chain(n, adj, comp), "parts not linearly ordered"
        counts[m] += 1
        for idx in range(P):  # odometer increment
            digits[idx] += 1
            if digits[idx] < base:
                break
            digits[idx] = 0
    return counts


def _score_walk(n: int, pairs: list[tuple[int, int]], lo: int, hi: int) -> dict[int, int]:
    """Tally of score-vector keys over the tournaments with Gray codes
    ``t ^ (t >> 1)`` for ``lo <= t < hi``.

    Bit ``idx`` of a code set means ``pairs[idx] = (i, j)`` has i beating j.
    The key of a score vector is ``sum(score[v] * n**v)``; step t flips arc
    ``ctz(t)``, which moves the key by ``+-(n**i - n**j)``.
    """
    powers = [n**v for v in range(n)]
    delta = [powers[i] - powers[j] for i, j in pairs]
    code = lo ^ (lo >> 1)
    key = sum(
        powers[i] if (code >> idx) & 1 else powers[j] for idx, (i, j) in enumerate(pairs)
    )
    tally = {key: 1} if hi > lo else {}
    get = tally.get
    for t in range(lo + 1, hi):
        low = t & -t
        # the flipped bit of t ^ (t >> 1) is now the complement of t's next bit
        if t & (low << 1):
            key -= delta[low.bit_length() - 1]
        else:
            key += delta[low.bit_length() - 1]
        tally[key] = get(key, 0) + 1
    return tally


def _landau_parts(n: int, key: int) -> int:
    """Strong components of any tournament with this score-vector key.

    Landau's rule: the count of k for which the k smallest scores sum to
    C(k,2).  Asserts the vector is a score sequence (total C(n,2), every
    sorted prefix of length k at least C(k,2)).
    """
    scores = []
    for _ in range(n):
        key, s = divmod(key, n)
        scores.append(s)
    scores.sort()
    parts = prefix = 0
    for k, s in enumerate(scores, start=1):
        prefix += s
        floor = k * (k - 1) // 2
        assert prefix >= floor, "not a score sequence"
        parts += prefix == floor
    assert prefix == n * (n - 1) // 2, "not a score sequence"
    return parts


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------


def _prefix_max_masks(n: int) -> list[int]:
    """Bit k-1 set iff {1..k} is stable, for each permutation of {1..n}."""
    masks = []
    for p in itertools.permutations(range(1, n + 1)):
        mx = 0
        mask = 0
        for pos, val in enumerate(p, start=1):
            if val > mx:
                mx = val
            if mx == pos:
                mask |= 1 << (pos - 1)
        masks.append(mask)
    return masks


def enumerate_permutation_parts(
    n: int, d: int = 1, workers: int = 1, budget: int | None = None
) -> OracleResult:
    """Part-count distribution over all (n!)^d permutation tuples."""
    if n < 1 or d < 1:
        raise RangeError("need n >= 1 and d >= 1")
    _check_budget("permutations", n, d, budget)
    t0 = time.perf_counter()
    masks = _prefix_max_masks(n)
    radix = len(masks)
    total = radix**d
    counts: Counter[int] = Counter()
    for lo, hi in _shard_ranges(total, workers):
        counts.update(_tuple_mask_shard(masks, radix, d, lo, hi))
    elapsed = time.perf_counter() - t0
    return OracleResult(
        class_name=f"permutations(d={d})",
        n=n,
        counts_by_parts=dict(sorted(counts.items())),
        total_enumerated=total,
        elapsed=elapsed,
    )


def _tuple_mask_shard(masks: list[int], radix: int, d: int, lo: int, hi: int) -> Counter:
    counts: Counter[int] = Counter()
    if d == 1:
        for flat in range(lo, hi):
            counts[masks[flat].bit_count()] += 1
        return counts
    for flat in range(lo, hi):
        x = flat
        acc = -1
        for _ in range(d):
            x, r = divmod(x, radix)
            acc &= masks[r]
        counts[acc.bit_count()] += 1
    return counts


# ---------------------------------------------------------------------------
# matchings
# ---------------------------------------------------------------------------


def _matching_prefix_masks(pairs: int) -> list[int]:
    """Even-prefix closure masks for all perfect matchings of {0..2·pairs-1}."""
    m2 = 2 * pairs
    masks = []
    partner = [-1] * m2

    def rec(free: list[int]) -> None:
        if not free:
            mx = -1
            mask = 0
            for pos in range(m2):
                if partner[pos] > mx:
                    mx = partner[pos]
                if pos % 2 == 1 and mx <= pos:
                    mask |= 1 << (pos // 2)
            masks.append(mask)
            return
        a = free[0]
        rest = free[1:]
        for i, b in enumerate(rest):
            partner[a], partner[b] = b, a
            rec(rest[:i] + rest[i + 1 :])
        partner[a] = -1

    rec(list(range(m2)))
    return masks


def enumerate_matching_parts(
    pairs: int, d: int = 1, workers: int = 1, budget: int | None = None
) -> OracleResult:
    """Part-count distribution over all ((2n-1)!!)^d matching tuples."""
    if pairs < 1 or d < 1:
        raise RangeError("need pairs >= 1 and d >= 1")
    _check_budget("matchings", pairs, d, budget)
    t0 = time.perf_counter()
    masks = _matching_prefix_masks(pairs)
    radix = len(masks)
    total = radix**d
    counts: Counter[int] = Counter()
    for lo, hi in _shard_ranges(total, workers):
        counts.update(_tuple_mask_shard(masks, radix, d, lo, hi))
    elapsed = time.perf_counter() - t0
    return OracleResult(
        class_name=f"matchings(d={d})",
        n=pairs,
        counts_by_parts=dict(sorted(counts.items())),
        total_enumerated=total,
        elapsed=elapsed,
    )


# ---------------------------------------------------------------------------
# unlabeled tournaments
# ---------------------------------------------------------------------------


def _pair_table(n: int) -> tuple[list[tuple[int, int]], dict[tuple[int, int], int]]:
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return pairs, {pq: idx for idx, pq in enumerate(pairs)}


def _relabel_actions(n: int) -> list[list[tuple[int, int]]]:
    """For each permutation: per pair index, (target index, flip bit)."""
    pairs, pos = _pair_table(n)
    actions = []
    for perm in itertools.permutations(range(n)):
        row = []
        for i, j in pairs:
            a, b = perm[i], perm[j]
            if a < b:
                row.append((pos[(a, b)], 0))
            else:
                row.append((pos[(b, a)], 1))
        actions.append(row)
    return actions


def _apply_action(code: int, row: list[tuple[int, int]]) -> int:
    out = 0
    for src, (tgt, flip) in enumerate(row):
        if ((code >> src) & 1) ^ flip:
            out |= 1 << tgt
    return out


def _code_adjacency(code: int, n: int, pairs: list[tuple[int, int]]) -> list[int]:
    adj = [0] * n
    for idx, (i, j) in enumerate(pairs):
        if (code >> idx) & 1:
            adj[i] |= 1 << j
        else:
            adj[j] |= 1 << i
    return adj


def canonical_tournament_code(code: int, n: int) -> int:
    """Lexicographically minimal relabeling of a tournament code."""
    return min(_apply_action(code, row) for row in _relabel_actions(n))


def enumerate_unlabeled_tournament_parts(
    n: int, workers: int = 1, budget: int | None = None
) -> OracleResult:
    """Part-count distribution over isomorphism classes of tournaments.

    Scans codes in ascending order; the first unvisited code is the minimal
    member of a fresh orbit and serves as its representative.  Sharded runs
    count an orbit only in the shard that owns its global minimum.
    """
    if n < 1:
        raise RangeError("need n >= 1")
    _check_budget("unlabeled_tournaments", n, 1, budget)
    t0 = time.perf_counter()
    pairs, _ = _pair_table(n)
    actions = _relabel_actions(n)
    total_codes = 1 << len(pairs)
    counts: Counter[int] = Counter()
    orbits = 0
    for lo, hi in _shard_ranges(total_codes, workers):
        visited = bytearray(hi - lo)
        for code in range(lo, hi):
            if visited[code - lo]:
                continue
            orbit = {_apply_action(code, row) for row in actions}
            for c in orbit:
                if lo <= c < hi:
                    visited[c - lo] = 1
            if min(orbit) < lo:
                continue  # counted by an earlier shard
            adj = _code_adjacency(code, n, pairs)
            m, comp = _strong_components(n, adj)
            if m > 1:
                assert _condensation_is_chain(n, adj, comp)
            counts[m] += 1
            orbits += 1
    elapsed = time.perf_counter() - t0
    return OracleResult(
        class_name="unlabeled tournaments",
        n=n,
        counts_by_parts=dict(sorted(counts.items())),
        total_enumerated=orbits,
        elapsed=elapsed,
    )


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def oracle_for(
    kind: str, n: int, d: int = 1, workers: int = 1, budget: int | None = None
) -> OracleResult:
    """Run the enumerator for a catalog class key."""
    if kind == "tournaments":
        return enumerate_tournament_parts(n, d, workers, budget)
    if kind == "permutations":
        return enumerate_permutation_parts(n, d, workers, budget)
    if kind == "matchings":
        return enumerate_matching_parts(n, d, workers, budget)
    if kind == "unlabeled_tournaments":
        if d != 1:
            raise RangeError("unlabeled tournaments exist only for d=1")
        return enumerate_unlabeled_tournament_parts(n, workers, budget)
    raise UnknownClass(f"no oracle for {kind!r}")
