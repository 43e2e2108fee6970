"""Command-line surface: rendering, exit codes, determinism, error tokens."""

import json

import pytest
from click.testing import CliRunner

from seqasym.cli import main, parse_range
from seqasym.errors import RangeError


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
    assert res.output.startswith("RangeError: --m must be at least 1")
    assert "table bounds" not in res.output


def test_expansion_rejects_size_below_terms(runner):
    res = invoke(runner, "expansion", "--class", "tournaments", "--n", "3", "--terms", "5")
    assert res.exit_code == 2
    assert "--n 3 is too small for --terms 5: need --n >= 6" in res.output
    assert "indices start at 0" not in res.output
    res = invoke(runner, "expansion", "--class", "tournaments", "--n", "3", "--terms", "-1")
    assert res.exit_code == 2
    assert res.output.startswith("RangeError: --terms must be nonnegative")
    # a 2-periodic labeled class steps the expansion index by its period
    res = invoke(runner, "expansion", "--class", "linear_matchings", "--n", "8", "--terms", "4")
    assert res.exit_code == 2
    assert "need --n >= 10" in res.output


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


def test_oracle_budget_exit_code(runner):
    res = invoke(runner, "oracle", "--class", "tournaments", "--n", "6", "--budget", "10")
    assert res.exit_code == 3
    assert "BudgetExceeded" in res.output


def test_oracle_default_budget_refuses_before_allocating(runner):
    res = invoke(runner, "oracle", "--class", "unlabeled_tournaments", "--n", "9")
    assert res.exit_code == 3
    assert "BudgetExceeded" in res.output and "budget 3000000" in res.output


def test_oracle_rejects_nonpositive_workers(runner):
    res = invoke(runner, "oracle", "--class", "permutations", "--n", "3", "--workers", "0")
    assert res.exit_code == 2
    assert "--workers" in res.output


def test_unknown_class_exit_code(runner):
    res = invoke(runner, "table", "--class", "nosuch")
    assert res.exit_code == 2
    assert res.output.startswith("UnknownClass:")
