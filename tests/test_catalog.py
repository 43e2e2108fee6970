"""Catalog counting sequences: closed forms, Burnside counts, custom classes."""

import importlib
import pkgutil
from fractions import Fraction
from itertools import permutations
from math import comb, factorial, gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seqasym
from seqasym import catalog
from seqasym.audit import audit
from seqasym.decomposition import periodic_reindex
from seqasym.errors import (
    BadConstantTerm,
    NegativeCount,
    NonIntegerCount,
    PeriodMismatch,
    RangeError,
    UnknownClass,
)


def test_tournaments_closed_form():
    A = catalog.resolve_class("tournaments", 1)
    assert A.values(6) == [1, 1, 2, 8, 64, 1024, 32768]
    assert catalog.resolve_class("tournaments", 2).value(4) == 3**6


def test_linear_orders_and_permutations():
    assert catalog.resolve_class("linear_orders", 2).values(4) == [1, 1, 4, 36, 576]
    assert catalog.resolve_class("permutations", 1).labeling == "unlabeled"
    assert catalog.resolve_class("permutations", 3).value(3) == 6**3


def test_matchings_pair_indexed():
    A = catalog.resolve_class("matchings", 1)
    assert A.values(5) == [1, 1, 3, 15, 105, 945]  # (2n-1)!! on the pair index
    assert catalog.resolve_class("matchings", 2).value(3) == 225


def test_matchings_labeled_period_two():
    A = catalog.resolve_class("matchings_labeled")
    assert A.period == 2
    assert [A.value(n) for n in range(7)] == [1, 0, 1, 0, 3, 0, 15]


def test_linear_matchings_values():
    A = catalog.resolve_class("linear_matchings")
    assert A.period == 2 and A.labeling == "labeled"
    assert [A.value(2 * n) for n in range(5)] == [1, 2, 72, 10800, 4233600]
    assert A.value(5) == 0


def test_unlabeled_tournament_burnside_counts():
    A = catalog.resolve_class("unlabeled_tournaments")
    assert A.values(10) == [1, 1, 1, 2, 4, 12, 56, 456, 6880, 191536, 9733056]
    # growth sanity at the audit horizon: the count stays an exact integer
    assert A.value(40) % 10 in range(10)


# OEIS A000568: tournaments on n nodes up to isomorphism, n = 0..15.
A000568 = [
    1, 1, 1, 2, 4, 12, 56, 456, 6880, 191536, 9733056, 903753248, 154108311168,
    48542114686912, 28401423719122304, 31021002160355166848,
]


def test_unlabeled_tournament_batch_matches_oeis():
    assert catalog.resolve_class("unlabeled_tournaments").values(15) == A000568


def test_unlabeled_tournament_batch_matches_per_n_formula():
    got = catalog.resolve_class("unlabeled_tournaments").values(30)
    assert got == [catalog.unlabeled_tournament_count(n) for n in range(31)]


def _odd_partition_walk(n_max):
    """Unlabeled tournament counts by one tree node per odd partition: the
    reference for the merged-state filler.

    Parts are chosen in decreasing order.  A node carries q(λ) and the
    weight n_max!/z_λ, and adds (n_max!/z_λ)·2^q(λ) into total[s].  One more
    cycle of length l, the a-th of that length, divides the weight by l·a
    and adds (l−1)/2 + (a−1)·l + Σ_p a_p·gcd(l, p) edge orbits, the sum
    running over the cycles chosen before.
    """
    scale = factorial(n_max)
    total = [0] * (n_max + 1)
    chosen = []  # (cycle length, multiplicity)

    def grow(size, top, w, q):
        total[size] += w << q
        for part in range(top - 1 + top % 2, 0, -2):
            step = (part - 1) // 2 + sum(a * gcd(part, p) for p, a in chosen)
            s, x, e, a = size, w, q, 0
            while s + part <= n_max:
                a += 1
                s += part
                x //= part * a
                e += step
                step += part
                if part == 1:  # no smaller odd part: the node is a leaf
                    total[s] += x << e
                else:
                    chosen.append((part, a))
                    grow(s, min(part - 2, n_max - s), x, e)
                    chosen.pop()

    grow(0, n_max, scale, 0)
    assert all(t % scale == 0 for t in total)
    return [t // scale for t in total]


@pytest.mark.parametrize("n_max", [*range(13), 60])
def test_unlabeled_filler_matches_the_partition_walk(n_max):
    assert catalog._unlabeled_tournament_counts(n_max) == _odd_partition_walk(n_max)


def test_unlabeled_filler_matches_per_n_formula_past_40():
    got = catalog.resolve_class("unlabeled_tournaments").values(60)
    for n in (41, 50, 60):
        assert catalog.unlabeled_tournament_count(n) == got[n]


@pytest.mark.parametrize(
    "order", list(permutations(["value40", "values10", "values50"])), ids="-".join
)
def test_unlabeled_tournament_cache_ignores_call_order(order):
    want = catalog.resolve_class("unlabeled_tournaments").values(50)
    A = catalog.resolve_class("unlabeled_tournaments")
    for call in order:
        if call == "value40":
            assert A.value(40) == want[40]
        else:
            n_max = int(call[len("values"):])
            assert A.values(n_max) == want[: n_max + 1]
    assert A.values(50) == want
    with pytest.raises(RangeError):
        A.value(-1)


def test_audit_runs_the_unlabeled_filler_once(monkeypatch):
    calls = []
    fill = catalog._unlabeled_tournament_counts
    monkeypatch.setattr(
        catalog, "_unlabeled_tournament_counts", lambda n: calls.append(n) or fill(n)
    )
    audit(catalog.resolve_class("unlabeled_tournaments"), 60)
    assert calls == [60]


def test_double_factorial():
    assert [catalog.double_factorial(k) for k in (-1, 1, 3, 5, 7)] == [1, 1, 3, 15, 105]


@pytest.mark.parametrize(
    "module",
    ["seqasym"] + [f"seqasym.{m.name}" for m in pkgutil.iter_modules(seqasym.__path__)],
)
def test_every_export_is_defined(module):
    """A name removed from a module cannot linger in its ``__all__``."""
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


def test_resolve_class_and_unknown():
    A = catalog.resolve_class("tournaments", 2)
    assert A.name == "tournaments(d=2)"
    # classes without a d parameter exist for d = 1 only
    assert catalog.resolve_class("unlabeled_tournaments", 1).name == "unlabeled_tournaments"
    with pytest.raises(RangeError, match="--d 3"):
        catalog.resolve_class("unlabeled_tournaments", 3)
    with pytest.raises(UnknownClass):
        catalog.resolve_class("nosuch")


def test_catalog_classes_order():
    """The sweep's job list and the check order of the sumrule and recurrences
    suites follow this order."""
    assert [A.name for A in catalog.catalog_classes(3)] == [
        "tournaments(d=1)",
        "linear_orders(d=1)",
        "permutations(d=1)",
        "matchings(d=1)",
        "tournaments(d=2)",
        "linear_orders(d=2)",
        "permutations(d=2)",
        "matchings(d=2)",
        "tournaments(d=3)",
        "linear_orders(d=3)",
        "permutations(d=3)",
        "matchings(d=3)",
        "linear_matchings",
        "unlabeled_tournaments",
        "constant-1",
    ]


TAKES_D = {"tournaments", "linear_orders", "permutations", "matchings"}


@pytest.mark.parametrize("name", sorted(catalog._CLASSES))
def test_d_rule(name):
    assert catalog.resolve_class(name).name == (f"{name}(d=1)" if name in TAKES_D else name)
    if name in TAKES_D:
        assert catalog.resolve_class(name, 2).name == f"{name}(d=2)"
        zero = "--d 0: d must be a positive integer"
    else:
        with pytest.raises(RangeError) as exc:
            catalog.resolve_class(name, 2)
        assert str(exc.value) == f"--d 2: {name} has no d parameter; only --d 1 is defined"
        zero = f"--d 0: {name} has no d parameter; only --d 1 is defined"
    with pytest.raises(RangeError) as exc:
        catalog.resolve_class(name, 0)
    assert str(exc.value) == zero


def test_catalog_classes_membership():
    names = {A.name for A in catalog.catalog_classes()}
    assert "tournaments(d=1)" in names
    assert "unlabeled_tournaments" in names
    assert "constant-1" in names
    # the aperiodic-support labeled matchings stay out: not SEQ-decomposable
    assert not any("matchings_labeled" in n for n in names)


def test_custom_validation():
    ok = catalog.custom([1, 2, 4, 8], "unlabeled")
    assert ok.value(3) == 8
    with pytest.raises(RangeError):
        ok.value(9)  # beyond the supplied prefix
    with pytest.raises(BadConstantTerm):
        catalog.custom([0, 1], "unlabeled")
    with pytest.raises(NegativeCount):
        catalog.custom([1, -1], "unlabeled")
    with pytest.raises(RangeError):
        catalog.custom([1, 1], "half-labeled")
    with pytest.raises(PeriodMismatch):
        catalog.custom([1, 1, 2], "labeled", period=2)  # nonzero off support
    with pytest.raises(PeriodMismatch):
        catalog.custom([1, 0, 0, 0, 3], "labeled", period=2)  # zero on support


@pytest.mark.parametrize(
    "values, message",
    [
        ([1, 2.7, 5], "a_1 = 2.7 is not an integer"),
        ([1, 1, Fraction(7, 2)], "a_2 = Fraction(7, 2) is not an integer"),
        ([1, 2.0], "a_1 = 2.0 is not an integer"),
    ],
    ids=["float", "fraction", "integral-float"],
)
def test_custom_refuses_non_integers(values, message):
    """A value that is not an integer is refused, never rounded."""
    with pytest.raises(NonIntegerCount) as exc:
        catalog.custom(values, "unlabeled")
    assert str(exc.value) == message


@given(
    st.lists(st.integers(min_value=1, max_value=100), min_size=1, max_size=6),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=50)
def test_custom_periodic_round_trip(support_values, p):
    values = [1]
    for v in support_values:
        values.extend([0] * (p - 1) + [v])
    A = catalog.custom(values, "unlabeled", period=p)
    assert [A.value(p * i) for i in range(len(support_values) + 1)] == [1] + support_values


def test_parse_custom_text():
    text = "labeling: labeled\nperiod: 1\n# a comment\n1\n1\n2\n6\n"
    A = catalog.parse_custom_text(text, name="demo")
    assert A.name == "demo" and A.value(3) == 6
    with pytest.raises(RangeError):
        catalog.parse_custom_text("period: 1\n1\n2\n", name="x")  # missing labeling


def test_load_custom_uses_stem(tmp_path):
    f = tmp_path / "mystery.seq"
    f.write_text("labeling: unlabeled\nperiod: 1\n1\n5\n25\n")
    A = catalog.load_custom(str(f))
    assert A.name == "mystery" and A.value(2) == 25


def test_values_cache_is_consistent():
    A = catalog.resolve_class("tournaments", 1)
    first = A.value(12)
    assert A.value(12) == first == 2**66


# ---------------------------------------------------------------------------
# prefix fillers against the per-index closed forms
# ---------------------------------------------------------------------------


def _odd_product(k):
    """k!! for odd k >= -1, as a plain product."""
    return prod(range(1, k + 1, 2))


CATALAN = [1, 1, 2, 5, 14, 42, 132, 429]

# value(n) of each class, one index at a time: the references the running
# products and the other prefix fillers must agree with
CLOSED_FORMS = {
    **{f"tournaments(d={d})": (lambda n, d=d: (d + 1) ** comb(n, 2)) for d in (1, 2, 3)},
    **{f"linear_orders(d={d})": (lambda n, d=d: factorial(n) ** d) for d in (1, 2, 3)},
    **{f"permutations(d={d})": (lambda n, d=d: factorial(n) ** d) for d in (1, 2, 3)},
    **{f"matchings(d={d})": (lambda n, d=d: _odd_product(2 * n - 1) ** d) for d in (1, 2, 3)},
    "matchings_labeled": lambda n: 0 if n % 2 else _odd_product(n - 1),
    "linear_matchings": lambda n: 0 if n % 2 else factorial(n) * _odd_product(n - 1),
    "linear_matchings[/2]": lambda k: factorial(2 * k) * _odd_product(2 * k - 1),
    "unlabeled_tournaments": catalog.unlabeled_tournament_count,
    "constant-1": lambda n: 1,
    "catalan": lambda n: CATALAN[n],
}


def _fresh_classes():
    return [
        *catalog.catalog_classes(3),
        catalog.resolve_class("matchings_labeled"),
        catalog.custom(CATALAN, "unlabeled", name="catalan"),
        periodic_reindex(catalog.resolve_class("linear_matchings")),
    ]


def test_closed_forms_cover_the_classes():
    assert sorted(A.name for A in _fresh_classes()) == sorted(CLOSED_FORMS)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_prefix_fillers_match_the_closed_forms_in_any_call_order(data):
    calls = st.lists(st.tuples(st.booleans(), st.integers(0, 18)), min_size=1, max_size=5)
    for A in _fresh_classes():
        ref = CLOSED_FORMS[A.name]
        for batch, n in data.draw(calls, label=A.name):
            if A.name == "catalan" and n >= len(CATALAN):
                with pytest.raises(RangeError, match=f"up to n=7, asked for {n}$"):
                    A.values(n) if batch else A.value(n)
            elif batch:
                assert A.values(n) == [ref(k) for k in range(n + 1)]
            else:
                assert A.value(n) == ref(n)
