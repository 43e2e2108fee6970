"""Acceptance gate: the ten headline guarantees, one test and one line each.

Every test prints a single ``PASS:``/``FAIL:`` line carrying the measured
quantities, so ``pytest -v -s tests/test_acceptance.py`` reads as a checklist.

One criterion is expected to fail and is left failing on purpose: the
truncation-error-order window for permutations (criterion 8).  At the gate's
largest size n = 60 the normalized residuals for r >= 1 still sit 7-20%
away from the next coefficient.  The deviations fall like 1/n (7.54%, 3.53%,
1.72%, 1.02% for m = 1, r = 1 at n = 60, 120, 240, 400), and all seven
failing checks are inside 5% by n = 240, so the window is reached later than
the gate asks.  The failure message carries the exact measured deviations;
the tolerance and the n = 60 grid are not changed to hide them.
"""

import time
from fractions import Fraction
from math import factorial

from seqasym import catalog
from seqasym.asymptotics import bender_compose, leading_term, seq_coefficients
from seqasym.audit import audit
from seqasym.decomposition import lift_consistency
from seqasym.series import PowerSeries, counting_to_series, series_to_counting
from seqasym.suites import (
    suite_appendix,
    suite_oracle,
    suite_residual_order,
    suite_sumrule,
)


def _report(ok: bool, name: str, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'}: {name} — {detail}"
    print(line)
    assert ok, line


def test_criterion_01_reference_table_reproduction():
    t0 = time.perf_counter()
    checks = suite_appendix()
    elapsed = time.perf_counter() - t0
    bad = [c.name for c in checks if c.status != "ok"]
    ok = not bad and len(checks) == 16 and elapsed < 5.0
    _report(
        ok,
        "criterion-1 reference tables",
        f"{len(checks) - len(bad)}/16 tables bit-exact in {elapsed:.2f}s"
        + (f"; mismatched: {bad}" if bad else ""),
    )


def test_criterion_02_folded_tournament_coefficients():
    table = seq_coefficients(catalog.tournaments(1), 1, 4)
    folded = tuple(table.entries(k, 1) * 2 ** (k * (k + 1) // 2) for k in range(1, 5))
    ok = folded == (-4, 16, -256, -32768)
    _report(ok, "criterion-2 folded tournament coefficients", f"k=1..4: {folded}")


def test_criterion_03_permutation_expansion_numerators():
    table = seq_coefficients(catalog.permutations(1), 1, 10)
    nums = tuple(-table.entries(k, 1) for k in range(1, 11))
    ok = nums == (2, 1, 4, 19, 110, 745, 5752, 49775, 476994, 5016069)
    _report(ok, "criterion-3 permutation expansion numerators", f"k=1..10: {nums}")


def test_criterion_04_oracle_equivalence():
    t0 = time.perf_counter()
    checks = suite_oracle(budget=None)
    elapsed = time.perf_counter() - t0
    bad = [c.name for c in checks if c.status != "ok"]
    ok = not bad and len(checks) == 7 and elapsed < 240.0
    _report(
        ok,
        "criterion-4 oracle equivalence",
        f"{len(checks) - len(bad)}/7 enumeration grids match all part counts "
        f"in {elapsed:.1f}s" + (f"; failing: {bad}" if bad else ""),
    )


def test_criterion_05_lift_identity():
    rep = lift_consistency(8, 5)
    ok = not rep
    _report(
        ok,
        "criterion-5 lift identity",
        f"two-pipeline part counts equal for n<=8, m<=5"
        + ("" if ok else f"; mismatches: {rep[:3]}"),
    )


def test_criterion_06_coefficient_sum_rule():
    checks = suite_sumrule()
    bad = [c.name for c in checks if c.status != "ok"]
    ok = not bad and len(checks) == 15
    _report(
        ok,
        "criterion-6 coefficient sum rule",
        f"columns 1..8 sum to zero for {len(checks) - len(bad)}/15 classes"
        + (f"; failing: {bad}" if bad else ""),
    )


def test_criterion_07_kernel_route_equivalence():
    bad = []
    for A in catalog.catalog_classes():
        U = counting_to_series(A.values(8), A.labeling, 8) - PowerSeries.one(8)
        table = seq_coefficients(A, 5, 8)
        for m in range(1, 6):
            _, W = bender_compose(U, "seq", m)
            if list(series_to_counting(W, A.labeling)) != [
                table.entries(k, m) for k in range(9)
            ]:
                bad.append((A.name, m))
    ok = not bad
    _report(
        ok,
        "criterion-7 kernel route equivalence",
        "derivative-kernel coefficients bit-equal to the direct tables "
        "(15 classes, k<=8, m<=5)" + (f"; mismatches: {bad}" if bad else ""),
    )


def test_criterion_08_truncation_error_order():
    t0 = time.perf_counter()
    checks = suite_residual_order()
    elapsed = time.perf_counter() - t0
    bad = [c for c in checks if c.status != "ok"]
    ok = not bad and elapsed < 30.0
    _report(
        ok,
        "criterion-8 truncation error order",
        f"{len(checks) - len(bad)}/{len(checks)} residual checks inside the "
        f"5% window with monotone approach, {elapsed:.1f}s"
        + (
            "; failing: "
            + "; ".join(f"{c.name}: {c.detail}" for c in bad)
            if bad
            else ""
        ),
    )


def test_criterion_09_growth_audit_verdicts():
    expected = {
        "tournaments(d=1)": "evidence-consistent",
        "tournaments(d=2)": "evidence-consistent",
        "tournaments(d=3)": "evidence-consistent",
        "linear_orders(d=1)": "visibly-failing",
        "linear_orders(d=2)": "evidence-consistent",
        "linear_orders(d=3)": "evidence-consistent",
        "permutations(d=1)": "evidence-consistent",
        "permutations(d=2)": "evidence-consistent",
        "permutations(d=3)": "evidence-consistent",
        "matchings(d=1)": "evidence-consistent",
        "matchings(d=2)": "evidence-consistent",
        "matchings(d=3)": "evidence-consistent",
        "unlabeled_tournaments": "evidence-consistent",
        "constant-1": "visibly-failing",
    }
    got = {}
    for A in catalog.catalog_classes():
        rep = audit(A, 60)
        if rep.class_name in expected:
            got[rep.class_name] = rep.verdict
    bad = {k: v for k, v in got.items() if v != expected[k]}
    ok = not bad and len(got) == len(expected)
    _report(
        ok,
        "criterion-9 growth audit verdicts",
        f"{len(got) - len(bad)}/{len(expected)} verdicts as predicted at N=60"
        + (f"; wrong: {bad}" if bad else ""),
    )


def test_criterion_10_leading_term_shapes():
    bad = []
    for A in [
        *(catalog.tournaments(d) for d in (1, 2, 3)),
        *(catalog.permutations(d) for d in (1, 2, 3)),
        *(catalog.matchings(d) for d in (1, 2, 3)),
        catalog.linear_matchings(),
    ]:
        p = A.period
        step = p if A.labeling == "labeled" and p > 1 else 1
        unit = (
            Fraction(A.value(p), factorial(p))
            if A.labeling == "labeled"
            else Fraction(A.value(p))
        )
        for m in range(1, 6):
            lt = leading_term(A, m)
            want_mult = m * unit ** (m - 1)
            want_ff = (m - 1) * step if A.labeling == "labeled" else 0
            want_off = (m - 1) * step
            got = (lt.multiplier, lt.falling_factorial_order, lt.ratio_offset)
            if got != (want_mult, want_ff, want_off):
                bad.append((A.name, m, got))
    ok = not bad
    _report(
        ok,
        "criterion-10 leading term shapes",
        "multiplier/falling-factorial/offset as derived for 10 families, m<=5"
        + (f"; wrong: {bad}" if bad else ""),
    )
