"""Named verification suites: frozen-data comparisons and cross-pipeline checks.

Each suite returns a list of Check records (ok / fail / skip with detail).
The CLI renders them and sets the exit status; the test suite asserts on
them directly.  Everything here is exact arithmetic — a suite failure means
two independent computations of the same integer or rational disagree, or a
stated tolerance was missed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import catalog
from .asymptotics import evaluate_partial_sum, seq_coefficients
from .decomposition import (
    lift_consistency,
    parts_table,
    verify_halving_identity,
    verify_simple_recurrence,
)
from .errors import RangeError
from .oracle import object_count, oracle_for
from .reference_tables import (
    APPENDIX_ORDER,
    COMTET_NUMERATORS,
    REFERENCE_TABLES,
    WRIGHT_FOLDED,
)

__all__ = ["Check", "SUITE_NAMES", "run_suite"]


@dataclass(frozen=True)
class Check:
    name: str
    status: str  # "ok" | "fail" | "skip"
    detail: str = ""


def _ok(name: str, detail: str = "") -> Check:
    return Check(name, "ok", detail)


def _fail(name: str, detail: str) -> Check:
    return Check(name, "fail", detail)


def _skip(name: str, detail: str) -> Check:
    return Check(name, "skip", detail)


# ---------------------------------------------------------------------------
# appendix: recompute all sixteen frozen tables
# ---------------------------------------------------------------------------


def suite_appendix() -> list[Check]:
    checks = []
    for key in APPENDIX_ORDER:
        class_key, d, kind = key
        ref = REFERENCE_TABLES[key]
        A = catalog.resolve_class(class_key, d)
        ncols = len(ref.rows[0])
        hi = ref.start_index + ncols - 1
        name = f"table-{ref.golden_index}-{class_key}-d{d}-{kind}"
        if kind == "parts":
            computed = parts_table(A, 5, hi)
            get = computed.entries
        else:
            computed = seq_coefficients(A, 5, hi)
            get = computed.entries
        mismatch = None
        for m in range(1, 6):
            for i in range(ncols):
                idx = ref.start_index + i
                expected = ref.rows[m - 1][i]
                actual = get(idx, m)
                if actual != expected:
                    mismatch = (idx, m, expected, actual)
                    break
            if mismatch:
                break
        if mismatch:
            idx, m, expected, actual = mismatch
            checks.append(
                _fail(name, f"index={idx} m={m} expected={expected} actual={actual}")
            )
        else:
            checks.append(_ok(name, f"{5 * ncols} entries"))
    return checks


# ---------------------------------------------------------------------------
# oracle: brute-force enumeration vs part tables
# ---------------------------------------------------------------------------

_ORACLE_GRID = (
    ("tournaments", 1, 7),
    ("tournaments", 2, 5),
    ("permutations", 1, 9),
    ("permutations", 2, 6),
    ("matchings", 1, 6),
    ("matchings", 2, 4),
    ("unlabeled_tournaments", 1, 6),
)


def suite_oracle(budget: int | None = None, workers: int = 1) -> list[Check]:
    checks = []
    for kind, d, n_max in _ORACLE_GRID:
        name = f"oracle-{kind}-d{d}-n{n_max}"
        worst = object_count(kind, n_max, d)
        if budget is not None and worst > budget:
            checks.append(_skip(name, f"{worst} objects exceed budget {budget}"))
            continue
        A = catalog.resolve_class(kind, d)
        expected = parts_table(A, n_max, n_max)
        bad = None
        for n in range(1, n_max + 1):
            result = oracle_for(kind, n, d, workers=workers)
            want_total = A.value(n)
            if result.total_enumerated != want_total:
                bad = f"n={n} total={result.total_enumerated} expected={want_total}"
                break
            for m in range(1, n + 1):
                if result.count(m) != expected.entries(n, m):
                    bad = (
                        f"n={n} m={m} enumerated={result.count(m)} "
                        f"series={expected.entries(n, m)}"
                    )
                    break
            if bad:
                break
        checks.append(_fail(name, bad) if bad else _ok(name, f"n<= {n_max}, all m"))
    return checks


# ---------------------------------------------------------------------------
# sumrule: columns of the coefficient table sum to zero
# ---------------------------------------------------------------------------


def suite_sumrule(k_max: int = 8) -> list[Check]:
    checks = []
    for A in catalog.catalog_classes():
        name = f"sumrule-{A.name}"
        table = seq_coefficients(A, k_max + 1, k_max)
        bad = None
        for k in range(1, k_max + 1):
            total = sum(table.entries(k, m) for m in range(1, k_max + 2))
            if total != 0:
                bad = f"k={k} column sum {total}"
                break
        checks.append(_fail(name, bad) if bad else _ok(name, f"k <= {k_max}"))
    return checks


# ---------------------------------------------------------------------------
# recurrences: series inversion vs direct convolution recurrences
# ---------------------------------------------------------------------------


def suite_recurrences(n_max: int = 24) -> list[Check]:
    checks = []
    for A in catalog.catalog_classes():
        rep = verify_simple_recurrence(A, n_max)
        name = f"first-part-recurrence-{A.name}"
        if rep.all_equal:
            checks.append(_ok(name, f"n <= {n_max}"))
        else:
            n, via_series, via_rec = rep.mismatches[0]
            checks.append(_fail(name, f"n={n} series={via_series} recurrence={via_rec}"))
        if A.labeling == "labeled":
            rep = verify_halving_identity(A, n_max)
            name = f"halving-identity-{A.name}"
            if rep.all_equal:
                checks.append(_ok(name, f"n <= {n_max}"))
            else:
                n, via_series, via_rec = rep.mismatches[0]
                checks.append(
                    _fail(name, f"n={n} series={via_series} identity={via_rec}")
                )
    return checks


# ---------------------------------------------------------------------------
# lift: ordered pairs (permutation, linear order) vs scaled permutation parts
# ---------------------------------------------------------------------------


def suite_lift(n_max: int = 8, m_max: int = 5) -> list[Check]:
    rep = lift_consistency(n_max, m_max)
    name = f"lift-linear_orders2-vs-permutations-n{n_max}-m{m_max}"
    if rep.all_equal:
        return [_ok(name, f"{n_max * m_max} part counts")]
    n, m, lhs, rhs = rep.mismatches[0]
    return [_fail(name, f"n={n} m={m} lift={lhs} scaled={rhs}")]


# ---------------------------------------------------------------------------
# wright / comtet: classical expansion constants
# ---------------------------------------------------------------------------


def suite_wright() -> list[Check]:
    table = seq_coefficients(catalog.tournaments(1), 1, 4)
    folded = tuple(table.entries(k, 1) * 2 ** (k * (k + 1) // 2) for k in range(1, 5))
    if folded == WRIGHT_FOLDED:
        return [_ok("wright-folded-coefficients", str(folded))]
    return [_fail("wright-folded-coefficients", f"{folded} != {WRIGHT_FOLDED}")]


def suite_comtet() -> list[Check]:
    table = seq_coefficients(catalog.permutations(1), 1, 10)
    numerators = tuple(-table.entries(k, 1) for k in range(1, 11))
    if numerators == COMTET_NUMERATORS:
        return [_ok("comtet-numerators", str(numerators))]
    return [_fail("comtet-numerators", f"{numerators} != {COMTET_NUMERATORS}")]


# ---------------------------------------------------------------------------
# residual-order: the truncation error tracks the first omitted coefficient
# ---------------------------------------------------------------------------

_RESIDUAL_GRID = (
    ("tournaments", 2, 3, (20, 25, 30, 35, 40)),
    ("permutations", 2, 4, (20, 30, 40, 50, 60)),
)

_RESIDUAL_RELATIVE_TOL = Fraction(5, 100)


def suite_residual_order() -> list[Check]:
    """Normalized residuals must approach the first omitted coefficient.

    For each class, m, and truncation order r, the residual divided by the
    (r+1)-st term shape is compared with d_{r+1,m} at the largest tested n
    (within 5%, absolute 0.05 when the target is zero), and the deviation
    must shrink monotonically over the tested sizes.
    """
    checks = []
    for class_key, m_hi, r_hi, grid in _RESIDUAL_GRID:
        A = catalog.resolve_class(class_key)
        coeffs = seq_coefficients(A, m_hi, r_hi + 2)
        parts = parts_table(A, m_hi, grid[-1])
        for m in range(1, m_hi + 1):
            for r in range(0, r_hi + 1):
                name = f"residual-order-{class_key}-m{m}-r{r}"
                target = Fraction(coeffs.entries(r + 1, m))
                deviations = []
                for n in grid:
                    rep = evaluate_partial_sum(
                        A, m, n, r, coefficients=coeffs, parts=parts
                    )
                    deviations.append(abs(rep.normalized_residual - target))
                if target == 0:
                    close = deviations[-1] <= Fraction(5, 100)
                    why = f"|nr|={float(deviations[-1]):.4g} target 0 (abs tol 0.05)"
                else:
                    close = deviations[-1] <= abs(target) * _RESIDUAL_RELATIVE_TOL
                    why = (
                        f"nr at n={grid[-1]} off target {target} by "
                        f"{float(deviations[-1] / abs(target)):.2%}"
                    )
                monotone = all(a > b for a, b in zip(deviations, deviations[1:]))
                if close and monotone:
                    checks.append(_ok(name, why))
                elif not close:
                    checks.append(_fail(name, why))
                else:
                    checks.append(_fail(name, f"deviation not monotone: {why}"))
    return checks


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

_SUITES = {
    "appendix": lambda budget, workers: suite_appendix(),
    "oracle": lambda budget, workers: suite_oracle(budget, workers),
    "sumrule": lambda budget, workers: suite_sumrule(),
    "recurrences": lambda budget, workers: suite_recurrences(),
    "lift": lambda budget, workers: suite_lift(),
    "wright": lambda budget, workers: suite_wright(),
    "comtet": lambda budget, workers: suite_comtet(),
    "residual-order": lambda budget, workers: suite_residual_order(),
}

SUITE_NAMES = tuple(_SUITES) + ("all",)


def run_suite(name: str, budget: int | None = None, workers: int = 1) -> list[Check]:
    if name == "all":
        out = []
        for key in _SUITES:
            out.extend(_SUITES[key](budget, workers))
        return out
    try:
        fn = _SUITES[name]
    except KeyError:
        raise RangeError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    return fn(budget, workers)
