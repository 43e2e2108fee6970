"""The scripts under scripts/: each runs end to end in a fresh interpreter."""

import pytest
from conftest import run_script


def test_reproduce_tables_quiet():
    res = run_script("reproduce_tables.py", "--quiet")
    assert res.returncode == 0, res.stderr
    assert "20/20 tables reproduced" in res.stdout


def test_residual_study_default_rows():
    res = run_script("residual_study.py")
    assert res.returncode == 0, res.stderr
    assert "| 1 | -1 | -1.3300 | -1.1760 | -1.1215 | -1.0930 | -1.0754 |" in res.stdout


@pytest.mark.parametrize(
    "args, named",
    [
        (("--class", "nope"), "UnknownClass: unknown class 'nope'"),
        (("--d", "0"), "RangeError: --d 0: "),
        (("--m", "0"), "RangeError: --m 0: "),
        (("--sizes", "x"), "--sizes 'x': expected a comma-separated list of integers"),
        (("--sizes", "20,,30"), "--sizes '20,,30': "),
    ],
    ids=["class-unknown", "d-zero", "m-zero", "sizes-word", "sizes-empty-item"],
)
def test_residual_study_rejects_bad_arguments(args, named):
    res = run_script("residual_study.py", *args)
    assert res.returncode == 2
    assert named in res.stderr and "Traceback" not in res.stderr
    assert res.stdout == ""


def test_residual_study_marks_a_zero_next_shape_undefined(tmp_path):
    """On an unlabeled period-2 class the odd-index shapes are 0."""
    f = tmp_path / "evens.seq"
    f.write_text("labeling: unlabeled\nperiod: 2\n" + "1\n0\n" * 10 + "1\n")
    res = run_script("residual_study.py", "--custom", str(f), "--sizes", "10,20", "--r-max", "1")
    assert res.returncode == 0, res.stderr
    assert "| 0 | 0 | undefined | undefined |" in res.stdout


def test_audit_survey_help():
    res = run_script("audit_survey.py", "--help")
    assert res.returncode == 0, res.stderr


def test_oracle_crosscheck_rejects_negative_budget():
    res = run_script("oracle_crosscheck.py", "--budget", "-1")
    assert res.returncode == 2
    assert "--budget" in res.stderr and "Traceback" not in res.stderr


def test_oracle_crosscheck_off_grid_needs_n_max():
    res = run_script("oracle_crosscheck.py", "--class", "tournaments", "--d", "3")
    assert res.returncode == 2
    assert "--n-max" in res.stderr and "Traceback" not in res.stderr


def test_oracle_crosscheck_d_keeps_grid_rows_of_that_d():
    res = run_script("oracle_crosscheck.py", "--d", "2")
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert {line.split()[0] for line in lines[:-1]} == {
        "tournaments(d=2)", "permutations(d=2)", "matchings(d=2)"
    }
    assert lines[-1] == "all enumerations match; rows ran: 3, skipped: 0"


def test_oracle_crosscheck_d_off_the_grid():
    res = run_script("oracle_crosscheck.py", "--d", "3")
    assert res.returncode == 2
    assert "--d 3" in res.stderr and "Traceback" not in res.stderr
    assert res.stdout == ""


def test_oracle_crosscheck_closing_line_counts_skipped_rows():
    res = run_script("oracle_crosscheck.py", "--d", "1", "--budget", "40000")
    assert res.returncode == 0, res.stderr
    assert res.stdout.count("skipped,") == 2  # tournaments n=7, permutations n=9
    assert res.stdout.splitlines()[-1] == "all enumerations match; rows ran: 2, skipped: 2"


def test_oracle_crosscheck_tournaments_past_the_grid():
    res = run_script("oracle_crosscheck.py", "--class", "tournaments", "--n-max", "8")
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert [line.split()[1:3] for line in lines[:-1]] == [[f"n={n}", "ok"] for n in range(1, 9)]
    assert lines[-1] == "all enumerations match; rows ran: 1, skipped: 0"


def test_audit_survey_small_range():
    res = run_script("audit_survey.py", "--N", "12")
    assert res.returncode == 0, res.stderr
    assert res.stdout.rstrip().endswith("finite-range evidence only; no verdict proves the limit.")


@pytest.mark.parametrize(
    "args, named",
    [
        (("--class", "tournaments", "--n-max", "-1"), "--n-max"),
        (("--class", "tournaments", "--n-max", "0"), "--n-max"),
        (("--class", "tournaments", "--d", "0", "--n-max", "3"), "RangeError: --d 0: "),
        (
            ("--class", "unlabeled_tournaments", "--d", "2", "--n-max", "3"),
            "RangeError: --d 2: unlabeled_tournaments has no d parameter; only --d 1 is defined",
        ),
        (("--class", "tournaments", "--d", "0", "--n-max", "3", "--budget", "0"), "--d 0: "),
        (("--class", "unlabeled_tournaments", "--d", "2"), "--d 2: unlabeled_tournaments has"),
    ],
    ids=["n-max-negative", "n-max-zero", "d-zero", "d-unlabeled", "d-zero-budget-zero",
         "d-unlabeled-no-n-max"],
)
def test_oracle_crosscheck_rejects_bad_arguments(args, named):
    res = run_script("oracle_crosscheck.py", *args)
    assert res.returncode == 2
    assert named in res.stderr and "Traceback" not in res.stderr
