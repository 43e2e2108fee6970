"""The part-count rows kept on each class instance.

A resumed division must give the values of one pass; any sequence of
requests on one instance must give the answers, and the refusals, of a
fresh instance; and a command that asks for one class's rows many times
divides each size of each row once."""

from collections import Counter
from math import factorial

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from seqasym import catalog, cli, decomposition
from seqasym.asymptotics import cyc_part_count, seq_coefficients
from seqasym.catalog import CountingSequence
from seqasym.decomposition import _divide, _ratios, irreducible_counts, part_count, parts_table
from seqasym.errors import SeqasymError

# (id, values a_0..a_30, labeled); the id ends with the path of the dense sizes
_DIVISIONS = [
    ("tournaments-horner", catalog.tournaments(1).values(30), True),
    ("permutations-horner", catalog.permutations(1).values(30), False),
    ("linear_orders-sparse", catalog.linear_orders(1).values(30), True),
    ("constant-1-sparse", catalog.constant_ones().values(30), False),
    ("linear_matchings-direct", catalog.linear_matchings().values(30), True),
    ("unlabeled_tournaments-direct", catalog.unlabeled_tournaments().values(30), False),
    # b = z through n = 15, so sizes 8..17 are sparse and 18.. dense again
    ("sparse-then-horner", [factorial(n) << max(n - 15, 0) for n in range(31)], True),
    ("sparse-then-direct", [factorial(n) << max(n - 15, 0) for n in range(30)] + [1], True),
]


@pytest.mark.parametrize("path, a, labeled", _DIVISIONS, ids=[d[0] for d in _DIVISIONS])
def test_divide_resumed_at_every_split_matches_one_pass(path, a, labeled):
    """Row 1 (f = a) and B/A (f = row 1), stopped after every size and resumed."""
    ratio, shift = _ratios(a)
    assert (ratio is None) == path.endswith("direct")
    n = len(a) - 1
    b = _divide(a, labeled, a, ratio, shift, [0], n)
    for f in (a, b):
        whole = _divide(a, labeled, f, ratio, shift, [0], n)
        for s in range(n + 1):
            head = _divide(a, labeled, f, ratio, shift, [0], s)
            assert head == whole[: s + 1]
            assert _divide(a, labeled, f, ratio, shift, head, n) == whole, s


def _bad_constant_term() -> CountingSequence:
    return CountingSequence(
        name="two-empty", labeling="labeled", period=1, _fill=lambda n: [2] + [1] * n
    )


_NAMED = {
    "tournaments": lambda: catalog.tournaments(1),
    "permutations": lambda: catalog.permutations(1),
    "linear_orders": lambda: catalog.linear_orders(1),
    "linear_matchings": catalog.linear_matchings,
    "unlabeled_tournaments": catalog.unlabeled_tournaments,
    "matchings_labeled": catalog.matchings_labeled,
    "bad-constant-term": _bad_constant_term,
}


@st.composite
def _classes(draw):
    """A factory of fresh instances of one class: catalog classes of either
    labeling and period, the raw labeled matchings that refuse, a class with
    a_0 = 2, or a custom list of either labeling and period 1 or 2 (most of
    them not decomposable), which refuses sizes past its end."""
    if draw(st.booleans()):
        return _NAMED[draw(st.sampled_from(sorted(_NAMED)))]
    labeling = draw(st.sampled_from(["labeled", "unlabeled"]))
    p = draw(st.sampled_from([1, 2]))
    support = draw(st.lists(st.integers(1, 60), min_size=1, max_size=9))
    a = [1] + [0] * (p * len(support))
    for i, v in enumerate(support, 1):
        a[p * i] = v
    return lambda: catalog.custom(a, labeling, p, name="drawn")


def _irreducible_counts(A, m, n):
    return irreducible_counts(A, n)


_REQUESTS = {
    "parts_table": parts_table,
    "part_count": part_count,
    "irreducible_counts": _irreducible_counts,
    "cyc_part_count": cyc_part_count,
    "seq_coefficients": seq_coefficients,
}


def _answer(request, A, m, n):
    try:
        return _REQUESTS[request](A, m, n)
    except SeqasymError as exc:
        return type(exc).__name__, str(exc)


@given(
    _classes(),
    st.lists(
        st.tuples(st.sampled_from(sorted(_REQUESTS)), st.integers(0, 4), st.integers(0, 20)),
        min_size=1,
        max_size=10,
    ),
)
@settings(max_examples=150, deadline=None)
def test_interleaved_requests_answer_as_a_fresh_instance(make, requests):
    """Requests on one instance, at sizes that rise, fall and repeat, give
    what the same request gives on a fresh instance, refusals included; a
    returned list mutated by the caller changes no later answer."""
    A = make()
    for request, m, n in requests + requests[:1]:
        got = _answer(request, A, m, n)
        assert got == _answer(request, make(), m, n), (request, m, n)
        if isinstance(got, list):
            got[:] = [-1] * (len(got) + 1)
    if A.name == "matchings_labeled":  # b_4 = -3: every request with m >= 1 past 4
        for request in ("parts_table", "part_count", "seq_coefficients"):
            assert _answer(request, A, 1, 6)[0] == "NegativeIrreducibleCount"


def test_cyc_table_divides_each_row_size_once(monkeypatch):
    """One cyc_part_count per cell grows rows 1 and 2 one size at a time; no
    (row, size) goes through the division twice."""
    divided = Counter()

    def counting(a, labeled, f, ratio, shift, x, n_max):
        row = "row 1" if f is a else id(f)  # f is row m when the pass gives B^m/A
        divided.update((row, n) for n in range(len(x), n_max + 1))
        return _divide(a, labeled, f, ratio, shift, x, n_max)

    monkeypatch.setattr(decomposition, "_divide", counting)
    args = ["table", "--class", "tournaments", "--construction", "cyc"]
    res = CliRunner().invoke(cli.main, args + ["--m", "1..3", "--n", "1..80", "--format", "csv"])
    assert res.exit_code == 0, res.output
    assert max(divided.values()) == 1
    assert len(divided) == 2 * 80
