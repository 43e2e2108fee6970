"""Named verification suites: frozen-data comparisons and cross-pipeline checks.

Each suite returns a list of Check records (ok / fail / skip with detail).
The CLI renders them and sets the exit status; the test suite asserts on
them directly.  Everything here is exact arithmetic — a suite failure means
two independent computations of the same integer or rational disagree, or a
stated tolerance was missed.

Each cross-check is defined here once.  The ``oracle`` command reuses
:func:`oracle_mismatch` (one enumeration against its parts table) to check
its own tally.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import catalog
from .asymptotics import evaluate_partial_sum, seq_coefficients
from .decomposition import (
    PartsTable,
    lift_consistency,
    parts_table,
    verify_halving_identity,
    verify_simple_recurrence,
)
from .errors import RangeError
from .oracle import OracleResult, object_count, oracle_for
from .reference_tables import (
    APPENDIX_ORDER,
    COMTET_NUMERATORS,
    REFERENCE_TABLES,
    WRIGHT_FOLDED,
)

__all__ = [
    "Check",
    "MEMBER_SUITES",
    "ORACLE_GRID",
    "SUITE_NAMES",
    "oracle_mismatch",
    "run_suite",
]


@dataclass(frozen=True)
class Check:
    name: str
    status: str  # "ok" | "fail" | "skip"
    detail: str = ""


# ---------------------------------------------------------------------------
# appendix: recompute all sixteen frozen tables
# ---------------------------------------------------------------------------


def suite_appendix() -> list[Check]:
    """Recompute each appendix table, rows m = 1..5 up to its last column,
    from the integer core and compare it entry by entry."""
    checks = []
    for key in APPENDIX_ORDER:
        class_key, d, kind = key
        ref = REFERENCE_TABLES[key]
        ncols = len(ref.rows[0])
        build = parts_table if kind == "parts" else seq_coefficients
        table = build(catalog.resolve_class(class_key, d), 5, ref.start_index + ncols - 1)
        name = f"table-{ref.golden_index}-{class_key}-d{d}-{kind}"
        mismatch = next(
            (
                (idx, m, ref.value(idx, m), table.entries(idx, m))
                for m in range(1, 6)
                for idx in range(ref.start_index, ref.start_index + ncols)
                if table.entries(idx, m) != ref.value(idx, m)
            ),
            None,
        )
        if mismatch:
            idx, m, expected, actual = mismatch
            checks.append(
                Check(name, "fail", f"index={idx} m={m} expected={expected} actual={actual}")
            )
        else:
            checks.append(Check(name, "ok", f"{5 * ncols} entries"))
    return checks


# ---------------------------------------------------------------------------
# oracle: brute-force enumeration vs part tables
# ---------------------------------------------------------------------------

# (kind, d, n_max): each class enumerated at every size n <= n_max
ORACLE_GRID = (
    ("tournaments", 1, 7),
    ("tournaments", 2, 5),
    ("permutations", 1, 9),
    ("permutations", 2, 6),
    ("matchings", 1, 6),
    ("matchings", 2, 4),
    ("unlabeled_tournaments", 1, 6),
)


def oracle_mismatch(
    result: OracleResult, A: catalog.CountingSequence, table: PartsTable
) -> str | None:
    """The first disagreement of one enumeration with the class count and the
    parts table of ``A``, or None when every part count agrees."""
    n = result.n
    if result.total_enumerated != A.value(n):
        return f"n={n} total={result.total_enumerated} expected={A.value(n)}"
    for m in range(1, n + 1):
        if result.count(m) != table.entries(n, m):
            return f"n={n} m={m} enumerated={result.count(m)} series={table.entries(n, m)}"
    return None


def suite_oracle(budget: int | None = None) -> list[Check]:
    checks = []
    for kind, d, n_max in ORACLE_GRID:
        name = f"oracle-{kind}-d{d}-n{n_max}"
        worst = object_count(kind, n_max, d)
        if budget is not None and worst > budget:
            checks.append(Check(name, "skip", f"{worst} objects exceed budget {budget}"))
            continue
        A = catalog.resolve_class(kind, d)
        expected = parts_table(A, n_max, n_max)
        mismatches = (
            oracle_mismatch(oracle_for(kind, n, d), A, expected) for n in range(1, n_max + 1)
        )
        bad = next(filter(None, mismatches), None)
        checks.append(Check(name, "fail" if bad else "ok", bad or f"n<= {n_max}, all m"))
    return checks


# ---------------------------------------------------------------------------
# sumrule: columns of the coefficient table sum to zero
# ---------------------------------------------------------------------------

_SUMRULE_K_MAX = 8


def suite_sumrule() -> list[Check]:
    checks = []
    for A in catalog.catalog_classes():
        name = f"sumrule-{A.name}"
        table = seq_coefficients(A, _SUMRULE_K_MAX + 1, _SUMRULE_K_MAX)
        bad = None
        for k in range(1, _SUMRULE_K_MAX + 1):
            total = sum(table.entries(k, m) for m in range(1, _SUMRULE_K_MAX + 2))
            if total != 0:
                bad = f"k={k} column sum {total}"
                break
        checks.append(Check(name, "fail" if bad else "ok", bad or f"k <= {_SUMRULE_K_MAX}"))
    return checks


# ---------------------------------------------------------------------------
# recurrences: series inversion vs the first-part recurrence vs the halving identity
# ---------------------------------------------------------------------------

_RECURRENCE_N_MAX = 24


def suite_recurrences() -> list[Check]:
    checks = []
    for A in catalog.catalog_classes():
        # (check prefix, reference label, route label, check): each route against its reference
        routes = [("first-part-recurrence", "series", "recurrence", verify_simple_recurrence)]
        if A.labeling == "labeled":
            routes.append(("halving-identity", "recurrence", "identity", verify_halving_identity))
        for prefix, reference, label, verify in routes:
            name = f"{prefix}-{A.name}"
            mismatches = verify(A, _RECURRENCE_N_MAX)
            if mismatches:
                n, via_reference, via_route = mismatches[0]
                detail = f"n={n} {reference}={via_reference} {label}={via_route}"
                checks.append(Check(name, "fail", detail))
            else:
                checks.append(Check(name, "ok", f"n <= {_RECURRENCE_N_MAX}"))
    return checks


# ---------------------------------------------------------------------------
# lift: ordered pairs (permutation, linear order) vs scaled permutation parts
# ---------------------------------------------------------------------------

_LIFT_N_MAX, _LIFT_M_MAX = 8, 5


def suite_lift() -> list[Check]:
    mismatches = lift_consistency(_LIFT_N_MAX, _LIFT_M_MAX)
    name = f"lift-linear_orders2-vs-permutations-n{_LIFT_N_MAX}-m{_LIFT_M_MAX}"
    if not mismatches:
        return [Check(name, "ok", f"{_LIFT_N_MAX * _LIFT_M_MAX} part counts")]
    n, m, lhs, rhs = mismatches[0]
    return [Check(name, "fail", f"n={n} m={m} lift={lhs} scaled={rhs}")]


# ---------------------------------------------------------------------------
# wright / comtet: classical expansion constants
# ---------------------------------------------------------------------------


def suite_wright() -> list[Check]:
    table = seq_coefficients(catalog.tournaments(1), 1, 4)
    folded = tuple(table.entries(k, 1) * 2 ** (k * (k + 1) // 2) for k in range(1, 5))
    if folded == WRIGHT_FOLDED:
        return [Check("wright-folded-coefficients", "ok", str(folded))]
    return [Check("wright-folded-coefficients", "fail", f"{folded} != {WRIGHT_FOLDED}")]


def suite_comtet() -> list[Check]:
    table = seq_coefficients(catalog.permutations(1), 1, 10)
    numerators = tuple(-table.entries(k, 1) for k in range(1, 11))
    if numerators == COMTET_NUMERATORS:
        return [Check("comtet-numerators", "ok", str(numerators))]
    return [Check("comtet-numerators", "fail", f"{numerators} != {COMTET_NUMERATORS}")]


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
        coeffs = seq_coefficients(A, m_hi, r_hi + 1)
        for m in range(1, m_hi + 1):
            for r in range(0, r_hi + 1):
                name = f"residual-order-{class_key}-m{m}-r{r}"
                target = Fraction(coeffs.entries(r + 1, m))
                deviations = []
                for n in grid:
                    rep = evaluate_partial_sum(A, m, n, r)
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
                    checks.append(Check(name, "ok", why))
                elif not close:
                    checks.append(Check(name, "fail", why))
                else:
                    checks.append(Check(name, "fail", f"deviation not monotone: {why}"))
    return checks


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

_SUITES = {
    "appendix": lambda budget: suite_appendix(),
    "oracle": lambda budget: suite_oracle(budget),
    "sumrule": lambda budget: suite_sumrule(),
    "recurrences": lambda budget: suite_recurrences(),
    "lift": lambda budget: suite_lift(),
    "wright": lambda budget: suite_wright(),
    "comtet": lambda budget: suite_comtet(),
    "residual-order": lambda budget: suite_residual_order(),
}

#: the suites that ``verify --suite all`` runs, in order
MEMBER_SUITES = tuple(_SUITES)
SUITE_NAMES = MEMBER_SUITES + ("all",)


def run_suite(name: str, budget: int | None = None) -> list[Check]:
    try:
        fn = _SUITES[name]
    except KeyError:
        raise RangeError(f"unknown suite {name!r}; choose from {', '.join(MEMBER_SUITES)}")
    return fn(budget)
