"""The JSON writer: byte-identical to the whole-document form, bounded memory;
exact integers of the form o·2^e written through decimal, as str() writes them."""

import contextlib
import dataclasses
import gc
import io
import sys
import tracemalloc
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from seqasym import catalog, cli, render
from seqasym.asymptotics import evaluate_partial_sum
from seqasym.audit import audit
from seqasym.render import JSON_BLOCK, frac_str, write_json

from conftest import reference_json, str_text


@pytest.fixture(autouse=True)
def _long_int_strings():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(limit)


def written(config, result) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        write_json(config, result)
    return out.getvalue()


class _CountingSink:
    """A stdout that keeps only the number of characters and writes."""

    def __init__(self):
        self.chars = self.writes = 0

    def write(self, text):
        self.chars += len(text)
        self.writes += bool(text)  # click probes a stream with empty writes
        return len(text)

    def flush(self):
        pass


# Integers past CPython's default 4300-digit str() limit: 7^5100 has 4311 digits.
huge_ints = st.builds(
    lambda sign, e, r: sign * (7**e + r),
    st.sampled_from([-1, 1]),
    st.integers(5100, 5200),
    st.integers(0, 10**6),
)
# ±o·2^e with a small odd o: the values the decimal route writes, and some
# just outside it (odd parts of up to 70 bits, e from below the 2000-bit gate).
pow2_ints = st.builds(
    lambda sign, o, e: sign * (2 * o + 1) << e,
    st.sampled_from([-1, 1]),
    st.integers(0, 2**69 - 1),
    st.integers(1900, 40000),
)
pow2_fractions = st.one_of(
    st.builds(Fraction, pow2_ints, st.integers(1, 10**6)),
    st.builds(Fraction, st.integers(-(10**6), 10**6), pow2_ints),
    st.builds(Fraction, pow2_ints, pow2_ints),
)
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    huge_ints,
    pow2_ints,
    st.fractions(),  # negative ones among them
    st.integers(-(10**30), 10**30).map(Fraction),
    pow2_fractions,
    st.text(max_size=8),
)
keys = st.one_of(st.integers(-20, 200), st.text(max_size=4))
docs = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(keys, inner, max_size=5),
    ),
    max_leaves=30,
)
# More than one block: at least 20 numbers of 4300 digits or more.
long_docs = st.dictionaries(
    keys, st.lists(huge_ints, min_size=20, max_size=24), min_size=1, max_size=2
)


@settings(max_examples=60, deadline=None)
@given(config=st.dictionaries(keys, docs, max_size=4), result=st.one_of(docs, long_docs))
def test_writer_matches_whole_document(config, result):
    assert written(config, result) == reference_json(config, result)


def test_int_keys_sort_as_text():
    text = written({}, {2: "a", 10: "b", "x": Fraction(-3, 4)})
    assert text.index('"10"') < text.index('"2"') < text.index('"x"')
    assert '"-3/4"' in text


def test_long_document_is_written_in_blocks():
    result = [7**5100] * 40  # about 172,000 characters
    out = _CountingSink()
    with contextlib.redirect_stdout(out):
        write_json({}, result)
    # every write but the last holds at least one block
    assert 1 < out.writes <= out.chars // JSON_BLOCK + 1
    assert out.chars == len(reference_json({}, result))


def test_unknown_types_are_refused():
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        written({}, {1, 2})


@pytest.mark.parametrize("x", [0.5, float("nan"), float("inf")])
def test_float_leaves_are_refused(x):
    """A document carries exact values only: a float is an error, not text."""
    with pytest.raises(TypeError, match="^Object of type float is not JSON serializable$"):
        written({}, {"result": [1, Fraction(1, 2), x]})


def test_writer_memory_is_a_fraction_of_the_document(monkeypatch):
    # The tournaments audit at N = 240: 951 trace fractions, about 2.0 MB of JSON.
    calls = []
    monkeypatch.setattr(cli, "write_json", lambda config, result: calls.append((config, result)))
    res = CliRunner().invoke(
        cli.main, ["audit", "--class", "tournaments", "--N", "240", "--format", "json"]
    )
    assert res.exit_code == 0 and len(calls) == 1
    sink = _CountingSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            write_json(*calls[0])
            peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert sink.chars > 1_900_000
    assert peak < sink.chars / 4, (peak, sink.chars)


def test_writer_frees_each_block_when_it_returns():
    """No reference cycle keeps a written document's text alive until the
    cycle collector next runs: a recursive closure would."""
    written({}, {"a": [Fraction(1, 3)] * 3})  # click's first echo sets up its stream state
    gc.collect()
    gc.disable()
    try:
        written({"k": 1}, {"a": [Fraction(1, 3)] * 3, "b": {"c": None}})
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# The decimal route for ±o·2^e
# ---------------------------------------------------------------------------


@pytest.fixture
def no_power(monkeypatch):
    """Start with no power of two kept, as a new document does."""
    monkeypatch.setattr(render, "_last_pow2", None)


def routed(v: int) -> bool:
    """Whether writing v alone, from no kept power, takes the decimal route."""
    render._last_pow2 = None
    assert render._int_str(v) == str(v)
    return render._last_pow2 is not None


@pytest.mark.parametrize(
    "v, route",
    [
        (3 << 1998, False),  # 2000 bits
        (3 << 1999, True),  # 2001 bits
        (1 << 2000, True),  # o = 1
        ((2**64 - 1) << 3000, True),  # a 64-bit odd part
        ((2**64 + 1) << 3000, False),  # a 65-bit odd part
        (3**1300, False),  # e = 0, 2061 bits
        (-(3 << 1999), True),
        (-(3 << 1998), False),
        (-((2**64 - 1) << 3000), True),
        (-((2**64 + 1) << 3000), False),
    ],
)
def test_route_gate(no_power, v, route):
    assert routed(v) is route


@pytest.mark.parametrize(
    "steps",
    [
        [2001, 2002, 2100, 6000, 10095],  # each rise less than 4096
        [2001, 2001, 2001],  # the same power again
        [40000, 30000, 20001, 3000],  # falling
        [2001, 6097, 20000, 24096, 28193],  # rises of 4096 and more
        [5000, 9095, 3000, 7096, 7095, 11191, 2500],  # mixed
    ],
    ids=["rise", "repeat", "fall", "jump", "mixed"],
)
@pytest.mark.parametrize("odd", [1, 3, 2**64 - 1])
def test_exponent_sequences_in_one_document(no_power, steps, odd):
    values = [(-1) ** i * odd << e for i, e in enumerate(steps)]
    fractions = [Fraction(7 + 2 * i, odd << e) for i, e in enumerate(steps)]
    assert [frac_str(v) for v in values] == [str(v) for v in values]
    assert [frac_str(x) for x in fractions] == [str_text(x) for x in fractions]
    doc = {"ints": values, "fractions": fractions}
    assert written({}, doc) == reference_json({}, doc)


def _fractions(x):
    """Every Fraction in a report, its nested containers and dataclasses."""
    if isinstance(x, Fraction):
        yield x
    elif dataclasses.is_dataclass(x):
        for f in dataclasses.fields(x):
            yield from _fractions(getattr(x, f.name))
    elif isinstance(x, dict):
        for v in x.values():
            yield from _fractions(v)
    elif isinstance(x, (list, tuple)):
        for v in x:
            yield from _fractions(v)


@pytest.mark.parametrize(
    "report",
    [
        lambda: audit(catalog.resolve_class("tournaments", 1), 240),
        lambda: audit(catalog.resolve_class("tournaments", 3), 120),
        lambda: evaluate_partial_sum(catalog.resolve_class("tournaments", 1), 2, 240, 4),
    ],
    ids=["audit-tournaments1-N240", "audit-tournaments3-N120", "partial-sum-tournaments1-n240"],
)
def test_report_fractions_render_as_str(no_power, report):
    xs = list(_fractions(report()))
    on_route = 0
    for x in xs:
        assert frac_str(x) == str_text(x)
        d = x.denominator
        o = d >> ((d & -d).bit_length() - 1)
        on_route += d.bit_length() > 2000 and o.bit_length() <= 64
    assert on_route > 0, len(xs)


def test_no_power_outlives_a_document(no_power):
    written({}, [Fraction(1, 3 << 5000), 3 << 9000])
    assert render._last_pow2 is None


def test_no_power_outlives_a_refused_document(no_power):
    with pytest.raises(TypeError, match="float"):
        written({}, {"result": [Fraction(1, 3 << 5000), 0.5]})
    assert render._last_pow2 is None


class _PowerSpy:
    """The exact context, recording the exponent of every power it makes."""

    def __init__(self, exact):
        self.exact = exact
        self.exponents = []

    def power(self, base, e):
        self.exponents.append(e)
        return self.exact.power(base, e)

    def multiply(self, a, b):
        return self.exact.multiply(a, b)


def test_powers_step_from_the_last_one(no_power, monkeypatch):
    spy = _PowerSpy(render._EXACT)
    steps = [2001, 2002, 2100, 6000, 10095, 3000, 7096, 11192]
    monkeypatch.setattr(render, "_EXACT", spy)
    texts = [frac_str(Fraction(1, 3 << e)) for e in steps]
    monkeypatch.undo()
    assert texts == [f"1/{3 << e}" for e in steps]
    # rises of less than 4096 step; a fall or a rise of 4096 makes 2^e afresh
    assert spy.exponents == [2001, 1, 98, 3900, 4095, 3000, 7096, 11192]


def test_limit_error_is_str_error_on_both_routes(no_power):
    """Library callers keep the interpreter's int_max_str_digits limit: past
    it, each route raises the ValueError str() raises, and up to it, both
    write the value."""
    e = max(e for e in range(14200, 14300) if len(str(1 << e)) == 4300)
    at_limit = [1 << e, -(1 << e), 7**5088]  # 4300 digits
    past = [1 << e + 4, -(3 << 15000), 7**5100, -(7**5100)]  # 4301 digits and more
    assert [routed(v) for v in at_limit + past] == [True, True, False, True, True, False, False]
    sys.set_int_max_str_digits(4300)
    for v in at_limit:
        assert frac_str(v) == str(v)
        assert frac_str(Fraction(1, abs(v))) == f"1/{abs(v)}"
    for v in past:
        with pytest.raises(ValueError) as by_str:
            str(v)
        for x in (v, Fraction(1, abs(v)), Fraction(v, 3)):
            with pytest.raises(ValueError) as by_render:
                frac_str(x)
            assert str(by_render.value) == str(by_str.value)
