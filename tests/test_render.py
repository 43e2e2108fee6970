"""The JSON writer: byte-identical to the whole-document form, bounded memory."""

import contextlib
import gc
import io
import sys
import tracemalloc
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from seqasym import cli
from seqasym.render import JSON_BLOCK, write_json

from conftest import reference_json


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
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    huge_ints,
    st.fractions(),  # negative ones among them
    st.integers(-(10**30), 10**30).map(Fraction),
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
