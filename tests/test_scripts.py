"""The scripts under scripts/: each runs end to end in a fresh interpreter."""

from conftest import run_script


def test_reproduce_tables_quiet():
    res = run_script("reproduce_tables.py", "--quiet")
    assert res.returncode == 0, res.stderr
    assert "20/20 tables reproduced" in res.stdout


def test_residual_study_default_rows():
    res = run_script("residual_study.py")
    assert res.returncode == 0, res.stderr
    assert "| 1 | -1 | -1.3300 | -1.1760 | -1.1215 | -1.0930 | -1.0754 |" in res.stdout


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
