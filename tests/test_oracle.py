"""Brute-force enumerators: frozen small cases, budgets, canonicalization,
Landau's score rule against Tarjan."""

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from seqasym import catalog, oracle
from seqasym.decomposition import parts_table
from seqasym.errors import BudgetExceeded, RangeError, UnknownClass
from seqasym.oracle import (
    _code_adjacency,
    _condensation_is_chain,
    _landau_parts,
    _pair_table,
    _score_walk,
    _strong_components,
    canonical_tournament_code,
    enumerate_tournament_parts,
    enumerate_unlabeled_tournament_parts,
    object_count,
    oracle_for,
)

# Hand-checkable part tallies, frozen from direct enumeration.
FROZEN = {
    ("tournaments", 3, 1): {1: 2, 3: 6},
    ("tournaments", 4, 2): {1: 543, 2: 126, 3: 36, 4: 24},
    ("permutations", 3, 1): {1: 3, 2: 2, 3: 1},
    ("permutations", 2, 2): {1: 3, 2: 1},
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


def test_unlabeled_shards_expand_each_orbit_once(monkeypatch):
    """One ascending walk expands each orbit exactly once, at its minimum."""
    calls = Counter()
    apply_action = oracle._apply_action

    def counting(code, row):
        calls["n"] += 1
        return apply_action(code, row)

    monkeypatch.setattr(oracle, "_apply_action", counting)
    res = enumerate_unlabeled_tournament_parts(5)
    assert res.total_enumerated == 12
    assert calls["n"] == 12 * 120  # one expansion by the 5! relabelings per orbit


def _score_key(scores):
    n = len(scores)
    return sum(s * n**v for v, s in enumerate(scores))


def test_landau_rule_on_known_tournaments():
    for n in range(1, 8):
        assert _landau_parts(n, _score_key(list(range(n)))) == n  # transitive
    assert _landau_parts(5, _score_key([2] * 5)) == 1  # regular on 5 vertices
    with pytest.raises(AssertionError):
        _landau_parts(4, _score_key([0, 0, 3, 3]))  # two vertices of score 0
    with pytest.raises(AssertionError):
        _landau_parts(3, _score_key([2, 2, 2]))  # six wins in three games


@pytest.mark.parametrize("n", range(1, 7))
def test_landau_rule_matches_tarjan_on_every_tournament(n):
    """Score rule against Tarjan and the chain assertion, code by code, and
    the Gray-code walk against the score vectors read off every code."""
    pairs, _ = _pair_table(n)
    direct = Counter()
    for code in range(1 << len(pairs)):
        adj = _code_adjacency(code, n, pairs)
        key = _score_key([row.bit_count() for row in adj])
        m, comp = _strong_components(n, adj)
        assert _landau_parts(n, key) == m, (n, code)
        if m > 1:
            assert _condensation_is_chain(n, adj, comp), (n, code)
        direct[key] += 1
    assert _score_walk(n, pairs) == direct


def test_object_counts():
    assert object_count("tournaments", 4, 1) == 64
    assert object_count("tournaments", 4, 2) == 729
    assert object_count("permutations", 3, 2) == 36
    assert object_count("matchings", 3, 1) == 15
    assert object_count("matchings", 3, 2) == 225
    assert object_count("unlabeled_tournaments", 4, 1) == 64


def test_budget_refuses_oversized_runs():
    with pytest.raises(BudgetExceeded):
        enumerate_tournament_parts(6, budget=1000)
    with pytest.raises(BudgetExceeded):
        oracle_for("permutations", 8, budget=10_000)
    # within budget is fine
    assert enumerate_tournament_parts(3, budget=8).total_enumerated == 8


def test_oracle_dispatch_domain_errors():
    with pytest.raises(UnknownClass):
        oracle_for("widgets", 3)
    with pytest.raises(RangeError):
        oracle_for("unlabeled_tournaments", 3, d=2)
    with pytest.raises(RangeError):
        enumerate_tournament_parts(0)


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


def test_crosscheck_script_honours_zero_budget(capsys):
    path = Path(__file__).resolve().parents[1] / "scripts" / "oracle_crosscheck.py"
    spec = importlib.util.spec_from_file_location("oracle_crosscheck", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--budget", "0"]) == 0
    out = capsys.readouterr().out
    assert out.count("skipped") == len(script.ORACLE_GRID)
