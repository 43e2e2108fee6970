"""Brute-force enumerators: frozen small cases, budgets, canonicalization,
the weighted Landau rule against Tarjan, the score-multiset tally against
every outcome, the packed relabeling lanes against per-object relabeling
and the entry-by-entry loop, the prefix-set walk against the per-object
breakpoint masks, grouped breakpoint tallies.

Tarjan's algorithm with the chain check on the condensation, the
per-object mask generators, per-object relabeling, the entry-by-entry
relabeling columns and the canonical tournament code live here only: they
are the references the oracles are checked against."""

import dataclasses
import itertools
from collections import Counter
from functools import reduce
from operator import and_

import pytest

from seqasym import catalog, oracle
from seqasym.decomposition import parts_table
from seqasym.errors import BudgetExceeded, RangeError, SeqasymError, UnknownClass
from seqasym.oracle import (
    ORACLE_KINDS,
    _common_breakpoints,
    _landau_parts,
    _matching_masks,
    _pair_table,
    _permutation_masks,
    _relabel_columns,
    _relabelings,
    _score_tally,
    enumerate_tournament_parts,
    enumerate_unlabeled_tournament_parts,
    object_count,
    oracle_for,
)
from seqasym.suites import oracle_mismatch

# ---------------------------------------------------------------------------
# reference: strong components (iterative Tarjan on bitmask adjacency)
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
# reference: breakpoint masks and relabelings object by object, and
# canonical codes
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


def canonical_tournament_code(code: int, n: int) -> int:
    """Lexicographically minimal relabeling of a tournament code."""
    return min(_apply_action(code, row) for row in _relabel_actions(n))


# Hand-checkable part tallies, frozen from direct enumeration.
FROZEN = {
    ("tournaments", 3, 1): {1: 2, 3: 6},
    ("tournaments", 4, 2): {1: 543, 2: 126, 3: 36, 4: 24},
    ("tournaments", 3, 3): {1: 46, 2: 12, 3: 6},
    ("permutations", 3, 1): {1: 3, 2: 2, 3: 1},
    ("permutations", 2, 2): {1: 3, 2: 1},
    ("permutations", 3, 3): {1: 201, 2: 14, 3: 1},
    ("matchings", 2, 1): {1: 2, 2: 1},
    ("matchings", 3, 2): {1: 208, 2: 16, 3: 1},
    ("unlabeled_tournaments", 3, 1): {1: 1, 3: 1},
    ("unlabeled_tournaments", 5, 1): {1: 6, 2: 2, 3: 3, 5: 1},
}


@pytest.mark.parametrize(
    "kind,n,d", sorted(FROZEN), ids=lambda v: str(v).replace(" ", "")
)
def test_frozen_small_enumerations(kind, n, d):
    res = oracle_for(kind, n, d=d)
    assert res.counts_by_parts == FROZEN[(kind, n, d)]
    assert sum(res.counts_by_parts.values()) == res.total_enumerated
    if kind != "unlabeled_tournaments":
        assert res.total_enumerated == object_count(kind, n, d)


@pytest.mark.parametrize(
    "kind,factory,d,n_hi",
    [
        ("tournaments", catalog.tournaments, 1, 5),
        ("tournaments", catalog.tournaments, 2, 4),
        ("permutations", catalog.permutations, 1, 6),
        ("permutations", catalog.permutations, 2, 4),
        ("matchings", catalog.matchings, 1, 5),
        ("matchings", catalog.matchings, 2, 3),
        # past the oracle grid; the prefix-set walk keeps these sizes cheap
        ("permutations", catalog.permutations, 1, 12),
        ("matchings", catalog.matchings, 1, 9),
        ("permutations", catalog.permutations, 2, 8),
        # past the oracle grid; the score-multiset tally keeps these sizes cheap
        ("tournaments", catalog.tournaments, 1, 8),
        ("tournaments", catalog.tournaments, 2, 6),
        ("tournaments", catalog.tournaments, 3, 5),
    ],
    ids=lambda v: v if isinstance(v, str) else "",
)
def test_enumeration_matches_counting_tables(kind, factory, d, n_hi):
    A = factory(d)
    table = parts_table(A, n_hi, n_hi)
    for n in range(1, n_hi + 1):
        res = oracle_for(kind, n, d=d)
        for m in range(1, n + 1):
            assert res.count(m) == table.entries(n, m), (kind, d, n, m)
        assert res.total_enumerated == A.value(n)


def test_unlabeled_enumeration_matches_counting_table():
    A = catalog.unlabeled_tournaments()
    table = parts_table(A, 6, 6)
    for n in range(1, 7):
        res = enumerate_unlabeled_tournament_parts(n)
        for m in range(1, n + 1):
            assert res.count(m) == table.entries(n, m)
        assert res.total_enumerated == A.value(n)


def test_unlabeled_enumeration_at_seven_vertices():
    """Past the oracle grid: all 2^21 codes in 456 orbits, on 32-bit lanes,
    against Burnside's count and the parts table in every m."""
    res = enumerate_unlabeled_tournament_parts(7)
    assert res.total_enumerated == catalog.unlabeled_tournament_count(7) == 456
    table = parts_table(catalog.unlabeled_tournaments(), 7, 7)
    assert [res.count(m) for m in range(1, 8)] == [table.entries(7, m) for m in range(1, 8)]
    assert sum(res.counts_by_parts.values()) == 456


def test_unlabeled_shards_expand_each_orbit_once(monkeypatch):
    """One ascending walk expands each orbit exactly once, at its minimum."""
    expanded = []
    relabelings = oracle._relabelings

    def counting(code, lanes):
        images = relabelings(code, lanes)
        expanded.append((code, set(images)))
        return images

    monkeypatch.setattr(oracle, "_relabelings", counting)
    res = enumerate_unlabeled_tournament_parts(5)
    assert res.total_enumerated == 12
    assert len(expanded) == 12  # one expansion by the 5! relabelings per orbit
    assert all(code == min(orbit) for code, orbit in expanded)
    orbits = [orbit for _, orbit in expanded]
    assert sum(map(len, orbits)) == len(set().union(*orbits)) == 2**10


def _relabel_columns_loop(n):
    """The relabeling columns built entry by entry: the reference."""
    pairs, pos = _pair_table(n)
    flips = []
    columns = [[] for _ in pairs]
    for perm in itertools.permutations(range(n)):
        flip = 0
        for column, (i, j) in zip(columns, pairs):
            a, b = perm[i], perm[j]
            bit = 1 << pos[(min(a, b), max(a, b))]
            column.append(bit)
            if a > b:
                flip |= bit
        flips.append(flip)
    return flips, columns


def _unpack(packed, lanes):
    """The lanes of one packed int, in permutation order."""
    return memoryview(packed.to_bytes(lanes.nbytes, "little")).cast(lanes.fmt).tolist()


@pytest.mark.parametrize("n", range(1, 7))
def test_relabeling_columns_match_the_entrywise_loop(n):
    lanes = _relabel_columns(n)
    assert lanes.fmt == "H"  # 16-bit lanes up to 16 pairs
    flips, columns = _relabel_columns_loop(n)
    assert _unpack(lanes.flips, lanes) == flips
    assert [_unpack(column, lanes) for column in lanes.columns] == columns


@pytest.mark.parametrize("n", range(1, 6))
def test_relabeling_columns_match_every_relabeling(n):
    """Packed-lane images against per-object relabeling, for every code and
    every permutation, in the same permutation order."""
    lanes = _relabel_columns(n)
    actions = _relabel_actions(n)
    for code in range(2 ** len(lanes.columns)):
        images = _relabelings(code, lanes).tolist()
        assert images == [_apply_action(code, row) for row in actions]


def test_relabeling_lanes_of_32_bits_match_every_relabeling():
    """At n = 7 (21 pairs) the lanes are 32 bits wide: a few dozen codes,
    spread over all 2^21, against per-object relabeling by all 5040
    permutations."""
    lanes = _relabel_columns(7)
    assert lanes.fmt == "I" and len(lanes.columns) == 21
    actions = _relabel_actions(7)
    for code in [0, 2**21 - 1, *range(1, 2**21, 2**21 // 30 + 1)]:
        images = _relabelings(code, lanes).tolist()
        assert images == [_apply_action(code, row) for row in actions], code


def test_landau_rule_on_known_tournaments():
    for n in range(1, 8):
        assert _landau_parts(range(n), 1) == n  # transitive
        assert _landau_parts(reversed(range(n)), 1) == n  # in any order
    assert _landau_parts([2] * 5, 1) == 1  # regular on 5 vertices
    with pytest.raises(AssertionError):
        _landau_parts([0, 0, 3, 3], 1)  # two vertices of score 0
    with pytest.raises(AssertionError):
        _landau_parts([2, 2, 2], 1)  # six wins in three games
    for n in range(1, 7):
        # d=2 transitive: vertex v wins both games against every lower vertex
        assert _landau_parts([2 * v for v in range(n)], 2) == n
        # every pair split 1-1: each vertex beats every other, one part
        assert _landau_parts([n - 1] * n, 2) == 1
    with pytest.raises(AssertionError):
        _landau_parts([0, 0, 6], 2)  # two vertices of score 0


@pytest.mark.parametrize(
    "n,d",
    [
        pytest.param(n, d, id=str(n) if d == 1 else f"{n}-d{d}")
        for d, n_max in ((1, 6), (2, 5), (3, 4))
        for n in range(1, n_max + 1)
    ],
)
def test_landau_rule_matches_tarjan_on_every_tournament(n, d):
    """Weighted score rule against Tarjan and the chain assertion, outcome by
    outcome, and the score tally against the score multisets read off every
    outcome."""
    pairs, _ = _pair_table(n)
    direct = Counter()
    for outcome in itertools.product(range(d + 1), repeat=len(pairs)):
        adj = [0] * n
        scores = [0] * n
        for (i, j), v in zip(pairs, outcome):
            scores[i] += v
            scores[j] += d - v
            if v:
                adj[i] |= 1 << j
            if v < d:
                adj[j] |= 1 << i
        m, comp = _strong_components(n, adj)
        assert _landau_parts(scores, d) == m, (n, d, outcome)
        if m > 1:
            assert _condensation_is_chain(n, adj, comp), (n, d, outcome)
        direct[tuple(sorted(scores))] += 1
    assert _score_tally(n, pairs, d) == direct


@pytest.mark.parametrize(
    "masks_of,n,d",
    [(_prefix_max_masks, n, d) for d in (2, 3) for n in range(1, 6)]
    + [(_matching_prefix_masks, n, 3) for n in range(1, 4)],
    ids=lambda v: v.__name__.strip("_") if callable(v) else str(v),
)
def test_grouped_breakpoints_match_every_tuple(masks_of, n, d):
    """Distinct-mask d-tuples weighted by multiplicity against one AND per
    raw d-tuple of members."""
    masks = masks_of(n)
    naive = Counter(
        reduce(and_, members).bit_count() for members in itertools.product(masks, repeat=d)
    )
    assert _common_breakpoints(Counter(masks), d) == (naive, len(masks) ** d)


@pytest.mark.parametrize(
    "walk,per_object,n",
    [(_permutation_masks, _prefix_max_masks, n) for n in range(1, 10)]
    + [(_matching_masks, _matching_prefix_masks, n) for n in range(1, 7)],
    ids=lambda v: v.__name__.strip("_") if callable(v) else str(v),
)
def test_prefix_set_walk_matches_every_object(walk, per_object, n):
    """The walk's mask tally against one mask per object, at every size of
    the permutation and matching rows of the oracle grid."""
    assert walk(n) == Counter(per_object(n))


def test_object_counts():
    assert object_count("tournaments", 4, 1) == 64
    assert object_count("tournaments", 4, 2) == 729
    assert object_count("permutations", 3, 2) == 36
    assert object_count("matchings", 3, 1) == 15
    assert object_count("matchings", 3, 2) == 225
    assert object_count("unlabeled_tournaments", 4, 1) == 64


@pytest.mark.parametrize("kind,n,d", [("tournaments", 3, 0), ("permutations", 3, -1)])
def test_object_count_refuses_d_below_one(kind, n, d):
    with pytest.raises(RangeError, match=f"^--d {d}: d must be a positive integer$"):
        object_count(kind, n, d)


@pytest.mark.parametrize("kind", ORACLE_KINDS)
@pytest.mark.parametrize("n", [0, -1])
def test_object_count_refuses_n_below_one(kind, n):
    with pytest.raises(RangeError, match=f"^--n {n}: need n >= 1$"):
        object_count(kind, n)


def _refusal(call, *args):
    """The error type and message a call refuses its arguments with, or None."""
    try:
        call(*args)
    except SeqasymError as e:
        return type(e), str(e)
    return None


@pytest.mark.parametrize("kind", ORACLE_KINDS)
def test_object_count_is_at_least_two_to_the_n_minus_one(kind):
    """The lower bound the budget check refuses by before counting, at every
    d the kind takes."""
    for d in range(1, 4):
        if _refusal(oracle.reference_class, kind, d) is None:
            for n in range(1, 13):
                assert object_count(kind, n, d) >= 2 ** (n - 1), (n, d)


def test_budget_refusal_past_the_lower_bound_counts_nothing(monkeypatch):
    calls = []
    monkeypatch.setattr(oracle, "object_count", lambda *args: calls.append(args))
    with pytest.raises(BudgetExceeded, match=r"at least 2\^999999 objects exceed budget 10$"):
        enumerate_tournament_parts(10**6, budget=10)
    assert calls == []


def test_budget_refuses_oversized_runs():
    with pytest.raises(BudgetExceeded):
        enumerate_tournament_parts(6, budget=1000)
    with pytest.raises(BudgetExceeded):
        oracle_for("permutations", 8, budget=10_000)
    # within budget is fine
    assert enumerate_tournament_parts(3, budget=8).total_enumerated == 8


def test_budget_refusal_counts_the_objects_once(monkeypatch):
    calls = []
    count = oracle.object_count
    monkeypatch.setattr(oracle, "object_count", lambda *args: calls.append(args) or count(*args))
    with pytest.raises(BudgetExceeded, match="32768 objects exceed budget 1000"):
        enumerate_tournament_parts(6, budget=1000)
    assert calls == [("tournaments", 6, 1)]
    enumerate_tournament_parts(3)  # no budget, no count
    assert len(calls) == 1


def test_oracle_dispatch_domain_errors():
    with pytest.raises(UnknownClass):
        oracle_for("widgets", 3)
    with pytest.raises(RangeError, match="^--d 2: unlabeled_tournaments has no d parameter"):
        oracle_for("unlabeled_tournaments", 3, d=2)
    with pytest.raises(RangeError, match="^--n 0: "):
        enumerate_tournament_parts(0)
    with pytest.raises(RangeError, match="^--d 0: "):
        oracle_for("matchings", 2, d=0)
    # the budget count and the run refuse the same arguments alike, every kind
    for kind in ORACLE_KINDS:
        takes_d = _refusal(oracle.reference_class, kind, 2) is None
        cases = [(0, 1, "--n 0: "), (3, 0, "--d 0: "), (3, 2, "--d 2: "), (0, 2, "--n 0: ")]
        for n, d, named in cases:
            refusal = _refusal(object_count, kind, n, d)
            assert refusal == _refusal(oracle_for, kind, n, d), (kind, n, d)
            if (n, d) == (3, 2) and takes_d:
                assert refusal is None, kind
            else:
                assert refusal[1].startswith(named), (kind, n, d, refusal)
    assert _refusal(object_count, "unlabeled_tournaments", 4, 2) == (
        RangeError,
        "--d 2: unlabeled_tournaments has no d parameter; only --d 1 is defined",
    )


def test_oracle_mismatch_names_the_first_disagreement():
    A = catalog.tournaments(1)
    table = parts_table(A, 4, 4)
    res = oracle_for("tournaments", 4)
    assert res.counts_by_parts == {1: 24, 2: 16, 4: 24}
    assert oracle_mismatch(res, A, table) is None
    short = dataclasses.replace(res, total_enumerated=63)
    assert oracle_mismatch(short, A, table) == "n=4 total=63 expected=64"
    moved = dataclasses.replace(res, counts_by_parts={1: 24, 2: 17, 4: 23})
    assert oracle_mismatch(moved, A, table) == "n=4 m=2 enumerated=17 series=16"


def test_canonical_codes_count_isomorphism_classes():
    A = catalog.unlabeled_tournaments()
    for n in range(1, 6):
        codes = 2 ** (n * (n - 1) // 2)
        canon = {canonical_tournament_code(c, n) for c in range(codes)}
        assert len(canon) == A.value(n)


def test_canonical_code_is_idempotent_and_in_orbit():
    n = 4
    for code in range(64):
        rep = canonical_tournament_code(code, n)
        assert canonical_tournament_code(rep, n) == rep
        assert rep <= code


def test_two_layer_superposition_cross_check():
    """Superposing two plain tournaments realizes the two-copy arc model.

    Every ordered pair (T1, T2) on 4 vertices yields the union digraph with
    an arc wherever either copy has one; its strong-part tally below was
    frozen from this very double loop and must stay stable.  The same
    distribution collapses onto the d=2 enumeration after weighting
    mixed-orientation pairs by 2, so totals agree: 4096 = sum over the 729
    codes of 2^(number of doubly-covered pairs).
    """
    n = 4
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    tally = Counter()
    for c1 in range(2 ** len(pairs)):
        for c2 in range(2 ** len(pairs)):
            adj = [0] * n
            for idx, (i, j) in enumerate(pairs):
                for c in (c1, c2):
                    if (c >> idx) & 1:
                        adj[i] |= 1 << j
                    else:
                        adj[j] |= 1 << i
            ncomp, _ = _strong_components(n, adj)
            tally[ncomp] += 1
    assert dict(tally) == {1: 3608, 2: 392, 3: 72, 4: 24}
    assert sum(tally.values()) == object_count("tournaments", n, 1) ** 2
