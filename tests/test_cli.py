"""Command-line surface: rendering, exit codes, determinism, error tokens."""

import csv
import json
import re
from fractions import Fraction
from math import factorial
from types import SimpleNamespace

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqasym import cli
from seqasym.asymptotics import CONSTRUCTIONS
from seqasym.catalog import _CLASSES, resolve_class
from seqasym.cli import main, parse_range
from seqasym.errors import BudgetExceeded, RangeError
from seqasym.oracle import ORACLE_KINDS, object_count
from seqasym.render import write_json
from seqasym.suites import MEMBER_SUITES, ORACLE_GRID, SUITE_NAMES, Check, run_suite

from conftest import construction_refusal, reference_json, run_python


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
    ],
    ids=["labeling", "integer", "header", "period", "a0", "labeling-twice", "period-twice"],
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


def test_expansion_csv_has_footer_rows(runner):
    res = invoke(
        runner, "expansion", "--class", "permutations", "--n", "30",
        "--terms", "4", "--format", "csv",
    )
    assert res.exit_code == 0
    footers = [l for l in res.stdout.splitlines() if l.startswith(("partial", "exact"))]
    assert footers


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
