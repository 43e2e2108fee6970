"""Command-line surface: rendering, exit codes, determinism, error tokens."""

import csv
import dataclasses
import hashlib
import json
import re
from fractions import Fraction
from math import factorial
from types import SimpleNamespace

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqasym import cli, suites
from seqasym.asymptotics import CONSTRUCTIONS
from seqasym.catalog import _CLASSES, resolve_class
from seqasym.cli import main, parse_range
from seqasym.decomposition import parts_table
from seqasym.errors import BudgetExceeded, RangeError
from seqasym.oracle import ORACLE_KINDS, object_count
from seqasym.render import write_json
from seqasym.suites import MEMBER_SUITES, ORACLE_GRID, SUITE_NAMES, Check, run_suite

from conftest import _jsonable, construction_refusal, reference_json, run_python


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def test_parse_range_forms():
    assert parse_range("1..5") == (1, 5)
    assert parse_range("7") == (7, 7)
    for bad in ("5..1", "a..b", "", "1..2..3"):
        with pytest.raises(RangeError):
            parse_range(bad)


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def test_table_markdown_coefficients(runner):
    res = invoke(
        runner, "table", "--class", "tournaments", "--kind", "coefficients",
        "--k", "0..6", "--m", "1..3",
    )
    assert res.exit_code == 0
    assert "| m\\k |" in res.stdout
    assert "-848" in res.stdout and "-38032" in res.stdout


def test_table_csv_is_plain_and_exact(runner):
    res = invoke(
        runner, "table", "--class", "tournaments", "--kind", "coefficients",
        "--k", "0..4", "--m", "1..2", "--format", "csv",
    )
    lines = res.stdout.splitlines()
    assert lines[0] == "m\\k,0,1,2,3,4"
    assert lines[1] == "1,1,-2,2,-4,-32"
    assert lines[2] == "2,0,2,-8,16,-16"


def test_table_parts_json_schema(runner):
    res = invoke(
        runner, "table", "--class", "permutations", "--n", "1..5",
        "--m", "1..3", "--format", "json",
    )
    doc = json.loads(res.stdout)
    assert doc["schema_version"] == "1"
    assert doc["config"]["command"] == "table"
    grid = doc["result"]["rows"]
    assert grid[0]["m"] == 1
    assert grid[0]["values"] == [1, 1, 3, 13, 71]


def test_table_cycle_parts(runner):
    res = invoke(
        runner, "table", "--class", "tournaments", "--construction", "cyc",
        "--n", "1..4", "--m", "1..2", "--format", "csv",
    )
    lines = res.stdout.splitlines()
    assert lines[1] == "1,1,0,2,24"
    assert lines[2].startswith("2,") and lines[2].endswith(",8")


def test_table_set_construction_limits(runner):
    ok = invoke(
        runner, "table", "--class", "permutations", "--construction", "set",
        "--kind", "coefficients", "--m", "1", "--k", "0..5", "--format", "csv",
    )
    assert ok.exit_code == 0
    assert ok.stdout.splitlines()[1] == "1,1,1,1,3,13,71"
    parts = invoke(
        runner, "table", "--class", "permutations", "--construction", "set",
        "--m", "1", "--n", "1..5",
    )
    assert parts.exit_code == 2
    wide = invoke(
        runner, "table", "--class", "permutations", "--construction", "set",
        "--kind", "coefficients", "--m", "1..2", "--k", "0..5",
    )
    assert wide.exit_code == 2


def test_table_set_rejects_many_parts_before_computing():
    # Computing set coefficients up to k = 3000 takes minutes: the check must come first.
    cmd = (
        "from seqasym.cli import main; main(['table', '--class', 'permutations', "
        "'--construction', 'set', '--kind', 'coefficients', '--m', '1..2', "
        "'--k', '0..3000'])"
    )
    res = run_python("-c", cmd, timeout=30)
    assert res.returncode == 2
    assert "--m" in res.stderr


def test_table_custom_file(runner, tmp_path):
    f = tmp_path / "evens.seq"
    f.write_text("labeling: unlabeled\nperiod: 2\n1\n0\n1\n0\n1\n0\n1\n0\n1\n")
    res = invoke(runner, "table", "--custom", str(f), "--m", "1..2", "--n", "1..4")
    assert res.exit_code == 0
    assert "|   1 | 0 | 1 | 0 | 0 |" in res.stdout
    assert "|   2 | 0 | 0 | 0 | 1 |" in res.stdout
    named = invoke(runner, "table", "--custom", str(f), "--m", "1..2", "--n", "1..4",
                   "--format", "json")
    assert json.loads(named.stdout)["result"]["class"] == "evens"


def test_table_custom_file_with_huge_count(runner, tmp_path):
    digits = "1234567890" * 500 + "1"  # 5001 digits, past the default str limit
    f = tmp_path / "huge.seq"
    f.write_text(f"labeling: unlabeled\n1\n{digits}\n")
    res = invoke(runner, "table", "--custom", str(f), "--m", "1", "--n", "1",
                 "--format", "json")
    assert res.exit_code == 0
    assert digits in res.stdout


@pytest.mark.parametrize(
    "command",
    [["table", "--n", "1..4"], ["expansion", "--n", "6", "--terms", "1"], ["audit", "--N", "10"]],
    ids=lambda c: c[0],
)
@pytest.mark.parametrize(
    "extra, named",
    [
        (["--class", "permutations"], "--class permutations: "),
        (["--class", "permutations", "--d", "3"], "--class permutations: "),
        (["--d", "3"], "--d 3: "),
    ],
    ids=["class", "class-and-d", "d"],
)
def test_custom_refuses_class_and_d(runner, tmp_path, command, extra, named):
    """--custom names the whole class: a --class or --d beside it is refused."""
    f = tmp_path / "ones.seq"
    f.write_text("labeling: unlabeled\n" + "1\n" * 12)
    res = invoke(runner, command[0], "--custom", str(f), *extra, *command[1:])
    assert res.exit_code == 2
    assert res.stderr.startswith(f"RangeError: {named}"), res.stderr
    assert res.stdout == ""
    alone = invoke(runner, command[0], "--custom", str(f), "--d", "1", *command[1:])
    assert alone.exit_code == 0, alone.stderr


@pytest.mark.parametrize(
    "command",
    [["table", "--n", "0..3"], ["expansion", "--n", "6", "--terms", "1"], ["audit", "--N", "10"]],
    ids=lambda c: c[0],
)
def test_custom_file_that_is_not_utf8_is_a_usage_error(runner, tmp_path, command):
    f = tmp_path / "bad.txt"
    f.write_bytes(b"labeling: unlabeled\n1\n\xff\n")
    res = invoke(runner, command[0], "--custom", str(f), *command[1:])
    assert res.exit_code == 2
    assert res.stderr.startswith(f"RangeError: custom class file {str(f)!r} is not UTF-8"), (
        res.stderr
    )
    assert res.stdout == ""


@pytest.mark.parametrize("fmt", ["md", "csv", "json"])
def test_custom_file_may_start_with_a_byte_order_mark(runner, tmp_path, fmt):
    text = "labeling: unlabeled\nperiod: 2\n1\n0\n1\n0\n1\n0\n1\n0\n1\n"
    plain, marked = tmp_path / "evens.seq", tmp_path / "bom" / "evens.seq"
    plain.write_text(text, encoding="utf-8")
    marked.parent.mkdir()
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    where = ["--m", "1..2", "--n", "0..6", "--format", fmt]
    res = invoke(runner, "table", "--custom", str(marked), *where)
    assert res.exit_code == 0, res.stderr
    assert res.stdout == invoke(runner, "table", "--custom", str(plain), *where).stdout


@pytest.mark.parametrize(
    "command",
    [["table", "--n", "0..3"], ["expansion", "--n", "6", "--terms", "1"], ["audit", "--N", "10"]],
    ids=lambda c: c[0],
)
@pytest.mark.parametrize(
    "text, error",
    [
        ("period: 1\n1\n1\n", "RangeError: missing 'labeling:' header"),
        ("labeling: unlabeled\n1\nfive\n", "RangeError: bad integer line 'five'"),
        ("labeling: unlabeled\nsize: 3\n1\n", "RangeError: unknown header line 'size: 3'"),
        ("labeling: unlabeled\nperiod: two\n1\n", "RangeError: bad period 'two'"),
        ("labeling: unlabeled\n2\n1\n", "BadConstantTerm: a_0 must be 1, got 2"),
        (
            "labeling: labeled\n# a comment\nlabeling: unlabeled\n1\n",
            "RangeError: line 3: repeated header 'labeling: unlabeled'",
        ),
        (
            "period: 1\nlabeling: unlabeled\nPeriod: 2\n1\n",
            "RangeError: line 3: repeated header 'Period: 2'",
        ),
        (
            "labeling: unlabeled\nperiod: 0\n1\n",
            "PeriodMismatch: period must be a positive integer",
        ),
        ("labeling: unlabeled\n# no values\n", "BadConstantTerm: empty value list"),
        ("labeling: both\n1\n", "RangeError: labeling must be labeled|unlabeled, got 'both'"),
    ],
    ids=[
        "labeling", "integer", "header", "period", "a0", "labeling-twice", "period-twice",
        "period-zero", "no-values", "labeling-value",
    ],
)
def test_custom_file_errors_name_the_file(runner, tmp_path, command, text, error):
    f = tmp_path / "broken.seq"
    f.write_text(text)
    res = invoke(runner, command[0], "--custom", str(f), *command[1:])
    assert res.exit_code == 2
    token, message = error.split(": ", 1)
    assert res.stderr == f"{token}: custom class file {str(f)!r}: {message}\n"
    assert res.stdout == "" and "Traceback" not in res.output


@pytest.mark.parametrize(
    "kind, stray, named",
    [
        ("parts", ["--k", "0..3"], "--k 0..3: --kind parts takes --n"),
        ("coefficients", ["--n", "0..3"], "--n 0..3: --kind coefficients takes --k"),
    ],
)
def test_table_refuses_the_other_kinds_column_flag(runner, kind, stray, named):
    res = invoke(runner, "table", "--class", "tournaments", "--kind", kind, "--m", "1..3",
                 *stray, "--n" if kind == "parts" else "--k", "1..3")
    assert res.exit_code == 2
    assert res.stderr == f"RangeError: {named}\n"
    assert res.stdout == ""


def test_table_needs_some_class(runner):
    res = invoke(runner, "table")
    assert res.exit_code == 2
    assert "RangeError" in res.output


# ---------------------------------------------------------------------------
# expansion
# ---------------------------------------------------------------------------


def test_expansion_zero_terms_is_one(runner):
    res = invoke(
        runner, "expansion", "--class", "matchings", "--n", "9", "--terms", "0",
    )
    assert res.exit_code == 0
    assert "partial sum = 1 = 1 (approx)" in res.stdout


def test_expansion_rejects_m_ranges(runner):
    res = invoke(
        runner, "expansion", "--class", "matchings", "--n", "9", "--m", "1..3",
    )
    assert res.exit_code == 2
    assert "RangeError" in res.output


def test_expansion_rejects_zero_parts(runner):
    res = invoke(runner, "expansion", "--class", "tournaments", "--n", "10", "--m", "0")
    assert res.exit_code == 2
    assert res.output.startswith("RangeError: --m 0: m must be at least 1")
    assert "table bounds" not in res.output


def test_expansion_rejects_size_below_terms(runner):
    res = invoke(runner, "expansion", "--class", "tournaments", "--n", "3", "--terms", "5")
    assert res.exit_code == 2
    assert "--n 3 is too small for --terms 5: need --n >= 6" in res.output
    assert "indices start at 0" not in res.output
    res = invoke(runner, "expansion", "--class", "tournaments", "--n", "3", "--terms", "-1")
    assert res.exit_code == 2
    assert res.output.startswith("RangeError: --terms -1: terms must be nonnegative")
    # a 2-periodic labeled class steps the expansion index by its period
    res = invoke(runner, "expansion", "--class", "linear_matchings", "--n", "8", "--terms", "4")
    assert res.exit_code == 2
    assert "need --n >= 10" in res.output


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("cls", ["tournaments", "permutations"])
@pytest.mark.parametrize("construction", CONSTRUCTIONS)
def test_construction_rules_set_the_exit_code(runner, construction, cls, m):
    where = ["--class", cls, "--construction", construction, "--m", str(m)]
    table = invoke(runner, "table", *where, "--kind", "coefficients", "--k", "0..4")
    expansion = invoke(runner, "expansion", *where, "--n", "20", "--terms", "3")
    refusal = construction_refusal(construction, resolve_class(cls).labeling, m)
    for res in (table, expansion):
        if refusal is None:
            assert res.exit_code == 0, res.stderr
        else:
            assert res.exit_code == 2
            assert res.stderr.startswith(f"RangeError: {refusal}"), res.stderr
            assert res.stdout == ""


def test_cycle_expansion_rejects_size_off_the_period(runner, tmp_path):
    f = tmp_path / "pairs.seq"
    f.write_text("labeling: labeled\nperiod: 2\n1\n0\n1\n0\n3\n0\n15\n")
    for where in (["--class", "linear_matchings", "--n", "31"], ["--custom", str(f), "--n", "3"]):
        res = invoke(runner, "expansion", *where, "--construction", "cyc", "--m", "1",
                     "--terms", "1")
        assert res.exit_code == 2
        n = where[-1]
        assert res.stderr.startswith(
            f"RangeError: --n {n}: size {n} is not a multiple of the period 2"
        )
        assert "Traceback" not in res.output


ALTERNATING = object()  # stands for the path of _alternating_file's class


def _alternating_file(tmp_path, header=""):
    """Unlabeled class with a_n = 1 at even n and no object at odd n."""
    f = tmp_path / "alternating.seq"
    f.write_text(f"labeling: unlabeled\n{header}1\n0\n1\n0\n1\n0\n1\n0\n1\n")
    return str(f)


@pytest.mark.parametrize("header", ["", "period: 2\n"])
def test_expansion_rejects_size_without_objects(runner, tmp_path, header):
    f = _alternating_file(tmp_path, header)
    res = invoke(runner, "expansion", "--custom", f, "--n", "5", "--terms", "1")
    assert res.exit_code == 2
    assert res.stderr == "RangeError: alternating has no objects of size 5\n"
    assert "Traceback" not in res.output


@pytest.mark.parametrize("fmt", ["md", "csv", "json"])
def test_expansion_with_zero_next_shape(runner, tmp_path, fmt):
    # at n=6, r=2 the first omitted shape is a_3/a_6 = 0
    f = _alternating_file(tmp_path)
    res = invoke(runner, "expansion", "--custom", f, "--n", "6", "--terms", "2",
                 "--format", fmt)
    assert res.exit_code == 0
    assert "Traceback" not in res.output
    if fmt == "md":
        assert "residual / next shape = undefined (next shape is 0)" in res.stdout
    elif fmt == "csv":
        assert res.stdout.splitlines()[-1] == "normalized_residual,,,"
    else:
        assert json.loads(res.stdout)["result"]["normalized_residual"] is None


def _json_result(res):
    assert res.exit_code == 0, res.stderr
    return json.loads(res.stdout)["result"]


def _halves_file(tmp_path):
    """Unlabeled period-2 class with a_{2k} = k!: permutations(d=1) in z^2."""
    f = tmp_path / "halves.seq"
    values = [factorial(n // 2) if n % 2 == 0 else 0 for n in range(121)]
    f.write_text("labeling: unlabeled\nperiod: 2\n" + "".join(f"{v}\n" for v in values))
    return ["--custom", str(f)]


RESIDUAL_SIZES = (20, 30, 40, 50, 60)  # in units of the period


@pytest.mark.parametrize("r", range(5))
@pytest.mark.parametrize("where", ["permutations", "linear_matchings", "halves"])
def test_expansion_residual_heads_to_the_next_coefficient(runner, tmp_path, where, r):
    """The normalized residual of ``expansion --terms r`` closes in on the
    coefficient ``table --kind coefficients`` prints at k = p(r+1), strictly
    as n grows: the index steps by the period p, labeled or unlabeled."""
    cls = _halves_file(tmp_path) if where == "halves" else ["--class", where]
    p = 1 if where == "permutations" else 2
    k = p * (r + 1)
    table = _json_result(
        invoke(runner, "table", *cls, "--kind", "coefficients", "--k", f"0..{k}", "--m", "1",
               "--format", "json")
    )
    target = table["rows"][0]["values"][k]
    assert target < 0
    residuals = [
        Fraction(_json_result(
            invoke(runner, "expansion", *cls, "--n", str(p * n), "--terms", str(r),
                   "--format", "json")
        )["normalized_residual"])
        for n in RESIDUAL_SIZES
    ]
    gaps = [nr - target for nr in residuals]
    assert all(0 > a > b for b, a in zip(gaps, gaps[1:])), gaps
    if r == 1 and where != "linear_matchings":
        assert [f"{float(nr):+.4f}" for nr in residuals] == [
            "-1.3300", "-1.1760", "-1.1215", "-1.0930", "-1.0754"
        ]


def test_expansion_json_carries_exact_rationals(runner):
    res = invoke(
        runner, "expansion", "--class", "tournaments", "--n", "20",
        "--terms", "3", "--format", "json",
    )
    doc = json.loads(res.stdout)
    r = doc["result"]
    assert r["m"] == 1 and r["n"] == 20
    assert r["terms"][1]["value"] == "-5/65536"
    assert r["partial_sum"] == "1125814010609379/1125899906842624"
    assert "elapsed" not in json.dumps(doc)


FOOTER_CALLS = {
    "seq": ["--class", "permutations", "--n", "30", "--terms", "4"],
    "cyc": ["--class", "tournaments", "--construction", "cyc", "--n", "20", "--terms", "3"],
    "set": ["--class", "permutations", "--construction", "set", "--n", "20", "--terms", "3"],
    "zero-next-shape": ["--custom", ALTERNATING, "--n", "6", "--terms", "2"],
}
EXACT_TAIL = ("partial_sum", "exact_probability", "residual", "normalized_residual")


@pytest.mark.parametrize("where", FOOTER_CALLS)
def test_expansion_csv_has_footer_rows(runner, tmp_path, where):
    """After the term rows, the csv has one ``key,,,value`` row per field of
    the exact tail, in its order: each the JSON result's field, an empty cell
    for None.  Without an exact law (set) the tail is partial_sum alone."""
    args = [_alternating_file(tmp_path) if a is ALTERNATING else a for a in FOOTER_CALLS[where]]
    res = invoke(runner, "expansion", *args, "--format", "csv")
    assert res.exit_code == 0, res.stderr
    result = _json_result(invoke(runner, "expansion", *args, "--format", "json"))
    keys = EXACT_TAIL[:1] if where == "set" else EXACT_TAIL
    assert (result["exact_probability"] is None) == (where == "set")
    footers = res.stdout.splitlines()[1 + len(result["terms"]):]
    assert footers == [
        f"{key},,,{'' if result[key] is None else result[key]}" for key in keys
    ]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_reference_tables_pass(runner):
    res = invoke(runner, "verify", "--suite", "appendix")
    assert res.exit_code == 0
    assert "16 ok, 0 failed" in res.stdout


def test_verify_folded_coefficients_pass(runner):
    res = invoke(runner, "verify", "--suite", "wright")
    assert res.exit_code == 0
    assert "1 ok, 0 failed, 0 skipped" in res.stdout


def test_verify_residual_order_reports_honest_failures(runner):
    res = invoke(runner, "verify", "--suite", "residual-order")
    assert res.exit_code == 1
    failed = {
        line.split()[1] for line in res.stdout.splitlines() if line.startswith("FAIL")
    }
    assert failed == {
        "residual-order-permutations-m1-r1",
        "residual-order-permutations-m1-r2",
        "residual-order-permutations-m1-r3",
        "residual-order-permutations-m1-r4",
        "residual-order-permutations-m2-r2",
        "residual-order-permutations-m2-r3",
        "residual-order-permutations-m2-r4",
    }
    assert "suite residual-order: 11 ok, 7 failed, 0 skipped" in res.stdout


def _appendix_entry_off_by_one(monkeypatch):
    key = ("tournaments", 1, "parts")
    ref = suites.REFERENCE_TABLES[key]
    rows = ((ref.rows[0][0] + 1, *ref.rows[0][1:]), *ref.rows[1:])
    monkeypatch.setitem(suites.REFERENCE_TABLES, key, dataclasses.replace(ref, rows=rows))


def _one_permutation_too_many_at_two(monkeypatch):
    row = _CLASSES["permutations"]
    monkeypatch.setitem(
        _CLASSES, "permutations", row._replace(factor=lambda d, k: k**d + (k == 2))
    )


@pytest.mark.parametrize(
    "suite, break_reference, first_failure",
    [
        (
            "appendix",
            _appendix_entry_off_by_one,
            Check("table-1-tournaments-d1-parts", "fail", "index=1 m=1 expected=2 actual=1"),
        ),
        (
            # the columns of a parts table sum to a_k, not to 0
            "sumrule",
            lambda mp: mp.setattr(suites, "seq_coefficients", parts_table),
            Check("sumrule-tournaments(d=1)", "fail", "k=1 column sum 1"),
        ),
        (
            # the plain side counts 3 permutations of size 2
            "lift",
            _one_permutation_too_many_at_two,
            Check("lift-linear_orders2-vs-permutations-n8-m5", "fail", "n=2 m=1 lift=2 scaled=4"),
        ),
        (
            "wright",
            lambda mp: mp.setattr(suites, "WRIGHT_FOLDED", (0,) * 4),
            Check("wright-folded-coefficients", "fail", "(-4, 16, -256, -32768) != (0, 0, 0, 0)"),
        ),
        (
            "comtet",
            lambda mp: mp.setattr(suites, "COMTET_NUMERATORS", (0,) * 10),
            Check(
                "comtet-numerators",
                "fail",
                "(2, 1, 4, 19, 110, 745, 5752, 49775, 476994, 5016069)"
                " != (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)",
            ),
        ),
        (
            # one size twice: the deviation is close but does not shrink
            "residual-order",
            lambda mp: mp.setattr(suites, "_RESIDUAL_GRID", (("tournaments", 1, 0, (40, 40)),)),
            Check(
                "residual-order-tournaments-m1-r0",
                "fail",
                "deviation not monotone: nr at n=40 off target -2 by 0.00%",
            ),
        ),
    ],
    ids=lambda v: v if isinstance(v, str) else "",
)
def test_verify_reports_a_broken_reference(
    runner, monkeypatch, suite, break_reference, first_failure
):
    """Each suite's fail branch, forced by breaking what it compares against:
    the check names the disagreement, and ``verify`` exits 1."""
    break_reference(monkeypatch)
    assert [c for c in run_suite(suite) if c.status == "fail"][0] == first_failure
    res = invoke(runner, "verify", "--suite", suite)
    assert res.exit_code == 1
    assert f"FAIL {first_failure.name} — {first_failure.detail}" in res.stdout.splitlines()


def test_verify_oracle_budget_skips_everything(runner):
    res = invoke(runner, "verify", "--suite", "oracle", "--budget", "1000")
    assert res.exit_code == 0
    assert "0 failed, 7 skipped" in res.stdout
    assert res.stdout.count("skip") >= 7


@pytest.mark.parametrize("suite", ["oracle", "appendix"])
def test_verify_rejects_nonpositive_workers(runner, suite):
    res = invoke(runner, "verify", "--suite", suite, "--workers", "0", "--budget", "10")
    assert res.exit_code == 2
    assert "--workers" in res.output


def test_verify_json_format(runner):
    res = invoke(runner, "verify", "--suite", "comtet", "--format", "json")
    doc = json.loads(res.stdout)
    checks = doc["result"]["checks"]
    assert all(c["status"] == "ok" for c in checks)
    assert checks[0]["name"] == "comtet-numerators"
    # byte-deterministic stdout; stage time goes to stderr only
    again = invoke(runner, "verify", "--suite", "comtet", "--format", "json")
    assert again.stdout == res.stdout
    assert "elapsed:" in res.stderr and "elapsed" not in res.stdout
    # one timing line per suite run, then the total
    lines = res.stderr.splitlines()
    assert re.fullmatch(r"elapsed comtet: \d+\.\d{3}s", lines[0])
    assert re.fullmatch(r"elapsed: \d+\.\d{3}s", lines[-1])
    assert len(lines) == 2


def test_verify_all_times_every_member_suite(runner, monkeypatch):
    monkeypatch.setattr(
        "seqasym.cli.run_suite", lambda name, budget: [Check(f"{name}-check", "ok")]
    )
    res = invoke(runner, "verify", "--suite", "all")
    assert res.exit_code == 0
    timed = [line.split(":")[0] for line in res.stderr.splitlines()]
    assert timed == [f"elapsed {name}" for name in MEMBER_SUITES] + ["elapsed"]
    assert res.stdout.splitlines()[:-1] == [f"ok   {name}-check" for name in MEMBER_SUITES]


@settings(max_examples=12, deadline=None)
@given(
    suite=st.sampled_from(SUITE_NAMES),
    budget=st.none() | st.integers(min_value=0, max_value=3_000_000),
)
@example(suite="residual-order", budget=None)  # criterion 8's failing checks
@example(suite="oracle", budget=362_880)  # 9! permutations run at the budget; two rows skip
def test_verify_exit_code_follows_failures(suite, budget):
    """Every suite and budget ends without an uncaught exception, exits 1
    exactly when a check fails, and the oracle suite skips the grid rows
    whose objects exceed the budget."""
    args = ["verify", "--suite", suite, "--format", "json"]
    res = CliRunner().invoke(main, args if budget is None else [*args, "--budget", str(budget)])
    assert res.exception is None or isinstance(res.exception, SystemExit), res.exception
    doc = json.loads(res.stdout)["result"]
    assert res.exit_code == (1 if doc["failures"] > 0 else 0)
    if suite == "oracle":
        over = [
            kind for kind, d, n_max in ORACLE_GRID
            if budget is not None and object_count(kind, n_max, d) > budget
        ]
        assert doc["skipped"] == len(over)


def test_run_suite_knows_only_member_suites():
    """``all`` is the CLI's loop over the member suites, not a suite."""
    with pytest.raises(RangeError) as err:
        run_suite("all")
    assert str(err.value) == f"unknown suite 'all'; choose from {', '.join(MEMBER_SUITES)}"


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


def test_audit_flat_class_fails_visibly(runner):
    res = invoke(runner, "audit", "--class", "linear_orders", "--N", "40")
    assert res.exit_code == 0
    assert "verdict: visibly-failing" in res.stdout
    assert "finite-range evidence only; no verdict proves the limit." in res.stdout


def test_audit_json_is_byte_deterministic(runner):
    a = invoke(runner, "audit", "--class", "tournaments", "--N", "30", "--format", "json")
    b = invoke(runner, "audit", "--class", "tournaments", "--N", "30", "--format", "json")
    assert a.stdout == b.stdout
    doc = json.loads(a.stdout)
    assert doc["result"]["verdict"] == "evidence-consistent"
    assert doc["result"]["ratio_trace"][1] == "1"  # u_1/u_2 as exact rational text
    # stage time goes to stderr only
    assert "elapsed:" in a.stderr and "elapsed" not in a.stdout


def test_audit_notes_a_zero_inside_the_range(runner, tmp_path):
    f = tmp_path / "gap.txt"
    f.write_text("labeling: unlabeled\n" + "1\n" * 3 + "0\n" + "1\n" * 8)
    res = invoke(runner, "audit", "--custom", str(f), "--N", "10")
    assert res.exit_code == 0
    assert res.stdout.splitlines()[2:] == [
        "verdict: visibly-failing",
        "ratio trace tail (exact): 1, 1",
        "ratio trace tail: 1, 1 (approx)",
        "ratio_linear_bound: False (witness 0 = 0 (approx))",
        "midpoint_monotone: False",
        "note: u_3 = 0: ratios undefined past n=2",
        "finite-range evidence only; no verdict proves the limit.",
    ]


def test_audit_domain_error_exit_code(runner):
    res = invoke(runner, "audit", "--class", "tournaments", "--N", "5")
    assert res.exit_code == 2
    assert "RangeError" in res.output


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def test_oracle_human_output_and_stderr_timing(runner):
    res = invoke(runner, "oracle", "--class", "permutations", "--n", "3")
    assert res.exit_code == 0
    assert "| 1 |     3 |" in res.stdout
    assert "total enumerated: 6" in res.stdout
    assert "elapsed" in res.stderr and "elapsed" not in res.stdout


def test_oracle_json_sorted_and_timing_free(runner):
    res = invoke(
        runner, "oracle", "--class", "tournaments", "--n", "4", "--format", "json",
    )
    assert res.stderr == ""
    doc = json.loads(res.stdout)
    assert doc["result"]["counts_by_parts"] == [[1, 24], [2, 16], [4, 24]]
    assert doc["result"]["total_enumerated"] == 64
    assert "elapsed" not in json.dumps(doc)


@pytest.mark.parametrize("fmt", ["md", "json"])
def test_oracle_exits_1_when_its_tally_differs_from_the_parts_table(runner, monkeypatch, fmt):
    """The tally is checked against the parts table after it is printed: the
    output stays as it was, and stderr names the first disagreement."""
    args = ("oracle", "--class", "permutations", "--n", "4", "--format", fmt)
    good = invoke(runner, *args)
    assert good.exit_code == 0
    parts_table = cli.parts_table

    def shifted(A, m_max, n_max):
        table = parts_table(A, m_max, n_max)
        return SimpleNamespace(entries=lambda n, m: table.entries(n, m) + (m == 2))

    monkeypatch.setattr(cli, "parts_table", shifted)
    bad = invoke(runner, *args)
    assert bad.exit_code == 1
    assert bad.stdout == good.stdout
    found = re.search(r"parts table: n=4 m=2 enumerated=(\d+) series=(\d+)\n$", bad.stderr)
    assert found and int(found[2]) == int(found[1]) + 1


@pytest.mark.parametrize(
    "kind, d, n",
    [pytest.param(*row, id="{}-d{}-n{}".format(*row)) for row in ORACLE_GRID]
    + [pytest.param("tournaments", 1, 8, id="tournaments-d1-n8")],
)
def test_oracle_tally_agrees_with_the_parts_table(runner, kind, d, n):
    """Every row of the verify --suite oracle grid at its largest size, and
    tournaments (2^28 objects) one size past it, pass the oracle command's
    own check."""
    res = invoke(runner, "oracle", "--class", kind, "--d", str(d), "--n", str(n),
                 "--budget", "300000000")
    assert res.exit_code == 0, res.stderr
    assert "mismatch" not in res.stderr


def test_oracle_budget_exit_code(runner):
    res = invoke(runner, "oracle", "--class", "tournaments", "--n", "6", "--budget", "10")
    assert res.exit_code == 3
    assert "BudgetExceeded" in res.output


def test_oracle_default_budget_refuses_before_allocating(runner):
    res = invoke(runner, "oracle", "--class", "unlabeled_tournaments", "--n", "9")
    assert res.exit_code == 3
    assert "BudgetExceeded" in res.output and "budget 3000000" in res.output


def test_oracle_refuses_unlabeled_sizes_past_its_lanes(runner):
    """Past the default budget's refusal, n = 9 (36 pairs) is refused as a
    range error, since the 32-bit relabeling lanes hold at most 32 pairs."""
    res = invoke(runner, "oracle", "--class", "unlabeled_tournaments", "--n", "9",
                 "--budget", "100000000000")
    assert res.exit_code == 2
    assert res.stderr.startswith("RangeError: --n 9:"), res.stderr
    assert "Traceback" not in res.stderr and res.stdout == ""


def test_oracle_default_budget_counts_permutations_not_walk_states(runner):
    """10! = 3,628,800 permutations exceed the default budget, although the
    prefix-set walk would visit only 2^10 sets."""
    res = invoke(runner, "oracle", "--class", "permutations", "--n", "10")
    assert res.exit_code == 3
    assert "3628800 objects exceed budget 3000000" in res.output


def test_oracle_refuses_a_huge_size_without_printing_its_count(runner):
    """(d+1)^C(n,2) at n = 4000 has about 2.4 million digits; the refusal
    names the lower bound 2^(n-1) and the budget instead."""
    res = invoke(runner, "oracle", "--class", "tournaments", "--n", "4000")
    assert res.exit_code == 3
    assert len(res.stderr) < 300
    assert "at least 2^3999 objects exceed budget 3000000" in res.stderr


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(ORACLE_KINDS),
    n=st.integers(min_value=-1, max_value=9),
    d=st.integers(min_value=-1, max_value=4),
    budget=st.sampled_from([0, 1000, 100_000]),
)
def test_oracle_arguments_end_in_a_known_exit_code(kind, n, d, budget):
    """Every oracle call succeeds (0), is refused as a usage or range error
    (2) or as over budget (3), and never ends in an uncaught exception; a 1
    would be a tally that differs from the parts table."""
    res = CliRunner().invoke(
        main,
        ["oracle", "--class", kind, "--n", str(n), "--d", str(d), "--budget", str(budget)],
    )
    assert res.exit_code in (0, 2, 3), (res.exit_code, res.exception)
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize(
    "command, zero_budget_exit",
    [(["oracle", "--class", "tournaments", "--n", "3"], 3), (["verify", "--suite", "oracle"], 0)],
)
def test_negative_budget_is_a_usage_error(runner, command, zero_budget_exit):
    res = invoke(runner, *command, "--budget", "-1")
    assert res.exit_code == 2
    assert "--budget" in res.output
    assert invoke(runner, *command, "--budget", "0").exit_code == zero_budget_exit


@pytest.mark.parametrize(
    "cls", ["matchings_labeled", "linear_matchings", "unlabeled_tournaments", "constant-1"]
)
@pytest.mark.parametrize(
    "command",
    [
        ["table", "--n", "0..6"],
        ["expansion", "--n", "20", "--terms", "2"],
        ["audit", "--N", "20"],
    ],
    ids=lambda c: c[0],
)
def test_d_refused_by_classes_without_it(runner, cls, command):
    """A class with no d parameter refuses --d 2 instead of printing its d=1 answer."""
    res = invoke(runner, command[0], "--class", cls, "--d", "2", *command[1:])
    assert res.exit_code == 2, res.stdout
    assert res.stderr.startswith("RangeError: --d 2:") and cls in res.stderr
    assert "Traceback" not in res.stderr and res.stdout == ""
    # --d 1 is the class itself
    one = invoke(runner, command[0], "--class", cls, "--d", "1", *command[1:])
    default = invoke(runner, command[0], "--class", cls, *command[1:])
    assert (one.exit_code, one.stdout) == (default.exit_code, default.stdout)
    assert "--d" not in one.stderr


@pytest.mark.parametrize(
    "command",
    [["table"], ["expansion", "--n", "20"], ["audit", "--N", "20"]],
    ids=lambda c: c[0],
)
def test_unknown_class_exit_code(runner, command):
    res = invoke(runner, command[0], "--class", "nosuch", *command[1:])
    assert res.exit_code == 2
    assert res.output.startswith("UnknownClass: unknown class 'nosuch'")
    assert "Traceback" not in res.stderr and res.stdout == ""


@pytest.mark.parametrize(
    "args, named",
    [
        (["table", "--class", "tournaments", "--d", "0"], "--d 0:"),
        (["audit", "--class", "tournaments", "--N", "5"], "--N 5:"),
        (["oracle", "--class", "tournaments", "--n", "0"], "--n 0:"),
        (["oracle", "--class", "permutations", "--n", "3", "--d", "-1"], "--d -1:"),
        (
            ["oracle", "--class", "unlabeled_tournaments", "--n", "3", "--d", "2"],
            "--d 2: unlabeled_tournaments has no d parameter; only --d 1 is defined",
        ),
        (["table", "--class", "tournaments", "--m", "0..3"], "--m 0..3: m must start at 1"),
        (["table", "--class", "tournaments", "--n", "-2..3"], "--n -2..3: "),
        (
            ["table", "--class", "tournaments", "--kind", "coefficients", "--k", "-1..2"],
            "--k -1..2: ",
        ),
        (["expansion", "--class", "tournaments", "--n", "20", "--m", "1..2"], "--m 1..2: "),
        (["expansion", "--class", "tournaments", "--n", "20", "--d", "0"], "--d 0: "),
        (["audit", "--class", "permutations", "--N", "20", "--d", "0"], "--d 0: "),
        (["audit", "--class", "tournaments", "--N", "9"], "--N 9: audit needs N >= 10"),
        (["oracle", "--class", "tournaments", "--n", "-1"], "--n -1: need n >= 1"),
        (["oracle", "--class", "tournaments", "--n", "3", "--d", "0"], "--d 0: d must be a positive integer"),
        # refused as a range error before the budget is consulted
        (
            ["oracle", "--class", "tournaments", "--n", "3", "--d", "0", "--budget", "0"],
            "--d 0: d must be a positive integer",
        ),
        (
            ["oracle", "--class", "unlabeled_tournaments", "--n", "3", "--d", "2",
             "--budget", "0"],
            "--d 2: unlabeled_tournaments has no d parameter",
        ),
    ],
    ids=[
        "table-d", "audit-N", "oracle-n", "oracle-d", "oracle-unlabeled-d",
        "table-m", "table-n", "table-k", "expansion-m", "expansion-d", "audit-d",
        "audit-N-9", "oracle-n-negative", "oracle-d-zero", "oracle-d-zero-budget-zero",
        "oracle-unlabeled-d-budget-zero",
    ],
)
def test_usage_errors_name_the_argument_and_its_value(runner, args, named):
    res = invoke(runner, *args)
    assert res.exit_code == 2
    assert res.stderr.startswith(f"RangeError: {named}"), res.stderr
    assert "Traceback" not in res.stderr and res.stdout == ""


# ---------------------------------------------------------------------------
# formats and the one error boundary
# ---------------------------------------------------------------------------

NO_CSV = {
    "audit": ["audit", "--class", "permutations", "--N", "12"],
    "verify": ["verify", "--suite", "comtet"],
    "oracle": ["oracle", "--class", "permutations", "--n", "3"],
}


@pytest.mark.parametrize("args", NO_CSV.values(), ids=NO_CSV)
def test_csv_is_refused_where_no_csv_exists(runner, args):
    res = invoke(runner, *args, "--format", "csv")
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "--format" in res.stderr


# Each command and the library call on ``cli`` that computes its result.
COMMAND_CALLS = {
    "table": (["table", "--class", "permutations"], "parts_table"),
    "expansion": (["expansion", "--class", "permutations", "--n", "10"], "evaluate_partial_sum"),
    "verify": (["verify", "--suite", "comtet"], "run_suite"),
    "audit": (["audit", "--class", "permutations", "--N", "12"], "audit"),
    "oracle": (["oracle", "--class", "permutations", "--n", "3"], "oracle_for"),
}


@pytest.mark.parametrize("fmt", ["md", "json"])
@pytest.mark.parametrize("args, call", COMMAND_CALLS.values(), ids=COMMAND_CALLS)
def test_every_command_reports_a_library_error_once(runner, monkeypatch, args, call, fmt):
    """A SeqasymError raised inside any command ends at the main group's
    boundary: its token and message on stderr, its exit code, no stdout."""

    def over_budget(*args, **kwargs):
        raise BudgetExceeded("x")

    monkeypatch.setattr(cli, call, over_budget)
    res = invoke(runner, *args, "--format", fmt)
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr == "BudgetExceeded: x\n"


CSV_COMMANDS = {
    "table-parts": ["table", "--class", "tournaments", "--m", "1..3", "--n", "0..8"],
    "table-coefficients": ["table", "--class", "permutations", "--kind", "coefficients",
                           "--k", "0..8", "--m", "1..3"],
    "expansion-seq": ["expansion", "--class", "tournaments", "--n", "20", "--terms", "3"],
    "expansion-set": ["expansion", "--class", "permutations", "--construction", "set",
                      "--n", "20", "--terms", "3"],
}


@pytest.mark.parametrize("args", CSV_COMMANDS.values(), ids=CSV_COMMANDS)
def test_csv_is_a_rectangle_of_exact_values(runner, args):
    res = invoke(runner, *args, "--format", "csv")
    assert res.exit_code == 0, res.stderr
    rows = list(csv.reader(res.stdout.splitlines()))
    assert len(rows) > 1 and len({len(row) for row in rows}) == 1, rows
    assert "(approx)" not in res.stdout


PINNED_CALLS = {
    "table-parts": ["table", "--class", "tournaments", "--m", "1..3", "--n", "0..6"],
    "table-cyc-coefficients": ["table", "--class", "tournaments", "--kind", "coefficients",
                               "--construction", "cyc", "--m", "1..2", "--k", "0..5"],
    "table-set-coefficients": ["table", "--class", "permutations", "--kind", "coefficients",
                               "--construction", "set", "--m", "1", "--k", "0..5"],
    "table-cyc-parts": ["table", "--class", "linear_matchings", "--construction", "cyc",
                        "--m", "1..3", "--n", "0..8"],
    "expansion-seq": ["expansion", "--class", "tournaments", "--n", "30", "--m", "2",
                      "--terms", "3"],
    "expansion-zero-next-shape": ["expansion", "--custom", ALTERNATING, "--n", "6",
                                  "--terms", "2"],
    "expansion-set": ["expansion", "--class", "permutations", "--construction", "set",
                      "--n", "20", "--terms", "3"],
    "expansion-m-past-n": ["expansion", "--class", "tournaments", "--n", "3", "--m", "5",
                           "--terms", "1"],
    "audit-tournaments": ["audit", "--class", "tournaments", "--N", "20"],
    "audit-constant": ["audit", "--class", "constant-1", "--N", "12"],
    "audit-matchings": ["audit", "--class", "matchings_labeled", "--N", "12"],
    "oracle-tournaments": ["oracle", "--class", "tournaments", "--n", "4"],
    "oracle-unlabeled": ["oracle", "--class", "unlabeled_tournaments", "--n", "5"],
    "verify-wright": ["verify", "--suite", "wright"],
}
# SHA-256 of stdout for every md and csv text of PINNED_CALLS; JSON is pinned
# by the benchmark's replayed digests.  A deliberate change of a text is
# re-recorded from the fresh digest its failure prints.
PINNED_STDOUT = {
    ("table-parts", "md"):
        "b82aab703eb27516779f09a01a1dc0ccaef42e07ede56957587cfd56a3adedae",
    ("table-parts", "csv"):
        "0f6dfe4f0708efefaa093708f715dfd9919d9cc192b3efc9215bdc925860c9e5",
    ("table-cyc-coefficients", "md"):
        "06c0fc4f87a6020aad67115d85617d680b23e35cb4ab7dea86c67d0937fd157c",
    ("table-cyc-coefficients", "csv"):
        "a4bd8349e6672c7d743f85e63f0b5c76d6bad8648346cccff017e8ed329d13fa",
    ("table-set-coefficients", "md"):
        "cf30ee2d5f45114f415fccf237fe6b887e3bb5bb3b6719e417c7dde7cd785b24",
    ("table-set-coefficients", "csv"):
        "25ea00ec82844af339448b4d3ed557c461a9f9d3a0b082b74b0014a19e791ad5",
    ("table-cyc-parts", "md"):
        "394e79007231d0fe8ea284f947be2a0bc4de76831ff832e30425c55a72ee5a85",
    ("table-cyc-parts", "csv"):
        "667205782c5ffd5b95ae17c40407aa8386930f27435a265c18bf01f67e68898a",
    ("expansion-seq", "md"):
        "074359478f12b0f9d22ec9928c1c098c8c01de4c494cc9c30f7768195f6aa314",
    ("expansion-seq", "csv"):
        "a73bb9757826bafd8ebcd9789db92db729039cf50f049d25ba505ee9cb911f4e",
    ("expansion-zero-next-shape", "md"):
        "04b38ceaf5adab2abdb0ebdef06094baa5fbcb4984db6c8ba6bb0adb38f30683",
    ("expansion-zero-next-shape", "csv"):
        "9149b943d830130878bb4741c2e4b0b743c8972de47306fa98c6e8a4344d97db",
    ("expansion-set", "md"):
        "c615a4ff19327415ab1102dfecb47344dce2a429d03e74f235cf1d14ff4f8bea",
    ("expansion-set", "csv"):
        "d62a0c885e58eac8ba89f3862fd4acd0192ccb8be321250c8f6a39c2e01e0993",
    ("expansion-m-past-n", "md"):
        "0a7b1ee3f8869045b4e3102da00107010781c4f229e3059fe1a96d66808d7ed5",
    ("expansion-m-past-n", "csv"):
        "f5e383666664bdc325fb847378c366fe1ca554aaa48a14ade40efe04e8b67c23",
    ("audit-tournaments", "md"):
        "2aae21a58e38d3e5022dbd10014775a5a5bb2c7675289df28e621b26fa45cce9",
    ("audit-constant", "md"):
        "fc57e6a974f1c927744710f79771487981e553ae21df0ea67d5e5cf77bd265c3",
    ("audit-matchings", "md"):
        "473ca5467bad252e333c8ce2a4ce30329a6e4618ebefd3339a30be1296a58b7c",
    ("oracle-tournaments", "md"):
        "df48e508eb9f3c1fe264abf653cb6f28c811e8d5437a1713634b06915d80fee1",
    ("oracle-unlabeled", "md"):
        "3e0bb7add7dd1eefbedaf0faa9f8ce9d1db41c1f66c42e23a167fc15d5fda66e",
    ("verify-wright", "md"):
        "ff512794ee1f6b20b97a5c5117defee810e41765b5f7ce2ea07d6b3066770dc3",
}


@pytest.mark.parametrize("call, fmt", PINNED_STDOUT, ids=[f"{c}-{f}" for c, f in PINNED_STDOUT])
def test_md_and_csv_stdout_is_pinned(runner, tmp_path, call, fmt):
    args = [_alternating_file(tmp_path) if a is ALTERNATING else a for a in PINNED_CALLS[call]]
    res = invoke(runner, *args, "--format", fmt)
    assert res.exit_code == 0, res.stderr
    digest = hashlib.sha256(res.stdout_bytes).hexdigest()
    assert digest == PINNED_STDOUT[call, fmt], f"fresh digest of {call} {fmt}: {digest}"


# ---------------------------------------------------------------------------
# json output: one writer, byte-identical to the whole-document form
# ---------------------------------------------------------------------------

JSON_COMMANDS = {
    "table-parts": ["table", "--class", "tournaments", "--m", "1..3", "--n", "0..12"],
    "table-coefficients": ["table", "--class", "permutations", "--d", "2",
                           "--kind", "coefficients", "--k", "0..12", "--m", "1..4"],
    "table-cyc": ["table", "--class", "tournaments", "--construction", "cyc",
                  "--m", "1..3", "--n", "1..12"],
    "expansion-seq": ["expansion", "--class", "tournaments", "--n", "40", "--m", "2"],
    "expansion-cyc": ["expansion", "--class", "tournaments", "--construction", "cyc",
                      "--n", "30", "--terms", "3"],
    "expansion-set": ["expansion", "--class", "permutations", "--construction", "set",
                      "--n", "30", "--terms", "2"],
    "audit": ["audit", "--class", "tournaments", "--N", "60"],
    "verify": ["verify", "--suite", "comtet"],
    "oracle": ["oracle", "--class", "tournaments", "--n", "5"],
}


@pytest.mark.parametrize("args", JSON_COMMANDS.values(), ids=JSON_COMMANDS)
def test_json_stdout_is_the_reference_document(runner, monkeypatch, args):
    seen = []

    def recording(config, result):
        seen.append(reference_json(config, result))
        write_json(config, result)

    monkeypatch.setattr("seqasym.cli.write_json", recording)
    res = invoke(runner, *args, "--format", "json")
    assert res.exit_code == 0
    assert len(seen) == 1
    assert res.stdout == seen[0]


def _record_fields(record):
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}


# Each command that prints a library record, and the call that returns it.
RECORD_CALLS = {
    "expansion": (["expansion", "--class", "tournaments", "--construction", "cyc",
                   "--n", "20", "--terms", "3"], "evaluate_partial_sum"),
    "audit": (["audit", "--class", "tournaments", "--N", "20"], "audit"),
    "oracle": (["oracle", "--class", "tournaments", "--n", "4"], "oracle_for"),
    "verify": (["verify", "--suite", "comtet"], "run_suite"),
}


@pytest.mark.parametrize("args, call", RECORD_CALLS.values(), ids=RECORD_CALLS)
def test_json_result_is_the_record_of_the_library_call(runner, monkeypatch, args, call):
    """The JSON result is the record the library returned, field for field,
    except: class_name is written as "class"; audit groups its four
    sufficient-condition flags under "sufficient_flags"; oracle drops
    elapsed and writes counts_by_parts as [m, count] pairs; verify writes
    each Check as its three fields, beside the suite and its tallies."""
    records = []
    library = getattr(cli, call)

    def recording(*a, **kw):
        records.append(library(*a, **kw))
        return records[-1]

    monkeypatch.setattr(cli, call, recording)
    result = _json_result(invoke(runner, *args, "--format", "json"))
    if call == "run_suite":
        checks = [c for batch in records for c in batch]
        statuses = [c.status for c in checks]
        expected = {
            "suite": args[2],
            "checks": [_record_fields(c) for c in checks],
            "ok": statuses.count("ok"),
            "failures": statuses.count("fail"),
            "skipped": statuses.count("skip"),
        }
    else:
        [record] = records
        expected = {
            "class" if name == "class_name" else name: value
            for name, value in _record_fields(record).items()
        }
        if call == "evaluate_partial_sum":
            expected["terms"] = [_record_fields(t) for t in record.terms]
        elif call == "audit":
            flags = ("ratio_linear_bound", "ratio_linear_witness", "midpoint_monotone",
                     "midpoint_first_violation")
            expected["sufficient_flags"] = {name: expected.pop(name) for name in flags}
        else:
            del expected["elapsed"]
            expected["counts_by_parts"] = sorted(map(list, record.counts_by_parts.items()))
    assert result == _jsonable(expected)


# ---------------------------------------------------------------------------
# argument space: every call ends in a known exit code
# ---------------------------------------------------------------------------

CLASSES = sorted(_CLASSES)
FORMAT_NAMES = ["md", "csv", "json"]
# d = 1 is the one value every class accepts; drawn about half the time
D_VALUES = st.one_of(st.just(1), st.integers(min_value=-1, max_value=3))


def spans(lo, hi):
    """A single value "N" or a range "A..B" with A <= B, drawn from lo..hi."""
    ends = st.integers(min_value=lo, max_value=hi)
    pairs = st.tuples(ends, ends).map(sorted)
    return st.one_of(ends.map(str), pairs.map(lambda ab: f"{ab[0]}..{ab[1]}"))


def assert_known_exit(args):
    """The call succeeds (0), fails a check (1), is refused as a usage or range
    error (2) or as over budget (3), and never ends in an uncaught exception."""
    res = CliRunner().invoke(main, args)
    assert res.exit_code in (0, 1, 2, 3), (args, res.exit_code, res.exception)
    assert res.exception is None or isinstance(res.exception, SystemExit), (args, res.exception)
    assert "Traceback" not in res.stderr


@settings(max_examples=200, deadline=None)
@given(
    cls=st.sampled_from(CLASSES),
    d=D_VALUES,
    kind=st.sampled_from(["parts", "coefficients"]),
    construction=st.sampled_from(CONSTRUCTIONS),
    m=st.one_of(spans(1, 4), spans(-1, 4)),
    columns=spans(-2, 30),
    fmt=st.sampled_from(FORMAT_NAMES),
)
def test_table_arguments_end_in_a_known_exit_code(cls, d, kind, construction, m, columns, fmt):
    column_flag = "--n" if kind == "parts" else "--k"
    assert_known_exit(
        ["table", "--class", cls, "--d", str(d), "--kind", kind, "--construction", construction,
         "--m", m, column_flag, columns, "--format", fmt]
    )


@settings(max_examples=200, deadline=None)
@given(
    cls=st.sampled_from(CLASSES),
    d=D_VALUES,
    construction=st.sampled_from(CONSTRUCTIONS),
    m=st.one_of(st.integers(min_value=1, max_value=4).map(str), spans(-1, 4)),
    n=st.one_of(st.integers(min_value=12, max_value=30), st.integers(min_value=-2, max_value=30)),
    terms=st.integers(min_value=-1, max_value=5),
    fmt=st.sampled_from(FORMAT_NAMES),
)
def test_expansion_arguments_end_in_a_known_exit_code(cls, d, construction, m, n, terms, fmt):
    assert_known_exit(
        ["expansion", "--class", cls, "--d", str(d), "--construction", construction,
         "--m", m, "--n", str(n), "--terms", str(terms), "--format", fmt]
    )


@settings(max_examples=100, deadline=None)
@given(
    cls=st.sampled_from(CLASSES),
    d=D_VALUES,
    N=st.integers(min_value=-2, max_value=40),
    fmt=st.sampled_from(["md", "json"]),
)
def test_audit_arguments_end_in_a_known_exit_code(cls, d, N, fmt):
    assert_known_exit(["audit", "--class", cls, "--d", str(d), "--N", str(N), "--format", fmt])
