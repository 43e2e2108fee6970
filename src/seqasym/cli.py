"""Command-line surface: tables, expansions, verification suites, audits, oracles.

Exit codes: 0 success, 1 verification failure, 2 usage/domain error, 3 budget
exceeded.  All machine output (csv/json) is exact and byte-deterministic for
a fixed configuration; human output may add 6-significant-digit decimals
marked "(approx)" and may write timings to stderr.
"""

from __future__ import annotations

import sys

import click

from . import catalog
from .asymptotics import (
    cyc_coefficients,
    cyc_part_count,
    evaluate_partial_sum,
    seq_coefficients,
    set_via_seq_coefficients,
)
from .audit import audit
from .decomposition import parts_table
from .errors import RangeError, SeqasymError
from .oracle import _FALLBACK_BUDGET, ORACLE_KINDS, oracle_for
from .render import approx, frac_str, grid_csv, grid_markdown, json_document
from .suites import SUITE_NAMES, run_suite

FORMATS = click.Choice(["md", "csv", "json"])


def parse_range(text: str, what: str = "range") -> tuple[int, int]:
    """Parse "A..B" (inclusive) or a single integer "N" as (N, N)."""
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(text)
    except ValueError:
        raise RangeError(f"bad {what} {text!r}; expected N or A..B")
    if lo > hi:
        raise RangeError(f"empty {what} {text!r}")
    return lo, hi


def _resolve(class_name: str | None, d: int, custom: str | None) -> catalog.CountingSequence:
    if custom is not None:
        return catalog.load_custom(custom)
    if class_name is None:
        raise RangeError("either --class or --custom is required")
    return catalog.resolve_class(class_name, d)


def _emit(fmt: str, config: dict, result, human: str) -> None:
    if fmt == "json":
        click.echo(json_document(config, result))
    else:
        click.echo(human)


def _run(body) -> None:
    try:
        body()
    except SeqasymError as exc:
        click.echo(f"{exc.token}: {exc}", err=True)
        sys.exit(exc.exit_code)


@click.group()
def main() -> None:
    """Exact part-count statistics and asymptotic expansions for SEQ-like classes."""
    # Output is exact decimal, so counts of any size must convert to and from str.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


@main.command("table")
@click.option("--class", "class_name", default=None, help="catalog class name")
@click.option("--d", "d", type=int, default=1, show_default=True)
@click.option("--kind", type=click.Choice(["parts", "coefficients"]), default="parts")
@click.option(
    "--construction", type=click.Choice(["seq", "cyc", "set"]), default="seq"
)
@click.option("--m", "m_range", default="1..5", show_default=True)
@click.option("--k", "k_range", default=None, help="column range for coefficients")
@click.option("--n", "n_range", default=None, help="column range for parts")
@click.option("--format", "fmt", type=FORMATS, default="md", show_default=True)
@click.option("--custom", type=click.Path(exists=True, dir_okay=False), default=None)
def cmd_table(class_name, d, kind, construction, m_range, k_range, n_range, fmt, custom):
    """Render a part-count or expansion-coefficient table (m rows, n/k columns)."""

    def body():
        A = _resolve(class_name, d, custom)
        m_lo, m_hi = parse_range(m_range, "--m")
        if m_lo < 1:
            raise RangeError("--m must start at 1")
        if kind == "parts":
            lo, hi = parse_range(n_range or "1..8", "--n")
            if lo < 0:
                raise RangeError("--n must be nonnegative")
            index_label = "n"
            if construction == "seq":
                table = parts_table(A, m_hi, hi)
                rows = [
                    (m, [table.entries(n, m) for n in range(lo, hi + 1)])
                    for m in range(m_lo, m_hi + 1)
                ]
            elif construction == "cyc":
                rows = [
                    (m, [cyc_part_count(A, m, n) for n in range(lo, hi + 1)])
                    for m in range(m_lo, m_hi + 1)
                ]
            else:
                raise RangeError("no part table is defined for the set construction")
        else:
            lo, hi = parse_range(k_range or "0..8", "--k")
            if lo < 0:
                raise RangeError("--k must be nonnegative")
            index_label = "k"
            if construction == "seq":
                table = seq_coefficients(A, m_hi, hi)
            elif construction == "cyc":
                table = cyc_coefficients(A, m_hi, hi)
            else:
                table = set_via_seq_coefficients(A, hi)
                if m_hi > 1:
                    raise RangeError("set coefficients exist only for m=1")
            rows = [
                (m, [table.entries(k, m) for k in range(lo, hi + 1)])
                for m in range(m_lo, m_hi + 1)
            ]
        config = {
            "command": "table",
            "class": A.name,
            "kind": kind,
            "construction": construction,
            "m": [m_lo, m_hi],
            index_label: [lo, hi],
            "format": fmt,
        }
        cols = list(range(lo, hi + 1))
        result = {
            "class": A.name,
            "labeling": A.labeling,
            "kind": kind,
            "construction": construction,
            "index": index_label,
            "columns": cols,
            "rows": [{"m": m, "values": list(vals)} for m, vals in rows],
        }
        corner = f"m\\{index_label}"
        human = (
            grid_csv(corner, cols, rows) if fmt == "csv" else grid_markdown(corner, cols, rows)
        )
        _emit(fmt, config, result, human)

    _run(body)


# ---------------------------------------------------------------------------
# expansion
# ---------------------------------------------------------------------------


@main.command("expansion")
@click.option("--class", "class_name", default=None)
@click.option("--d", "d", type=int, default=1, show_default=True)
@click.option(
    "--construction", type=click.Choice(["seq", "cyc", "set"]), default="seq"
)
@click.option("--m", "m_value", default="1", show_default=True)
@click.option("--n", "n_value", type=int, required=True)
@click.option("--terms", "terms", type=int, default=4, show_default=True)
@click.option("--format", "fmt", type=FORMATS, default="md", show_default=True)
@click.option("--custom", type=click.Path(exists=True, dir_okay=False), default=None)
def cmd_expansion(class_name, d, construction, m_value, n_value, terms, fmt, custom):
    """Evaluate a truncated probability expansion exactly at one size."""

    def body():
        A = _resolve(class_name, d, custom)
        m_lo, m_hi = parse_range(m_value, "--m")
        if m_lo != m_hi:
            raise RangeError("--m must be a single value for expansions")
        if m_lo < 1:
            raise RangeError(f"--m must be at least 1, got {m_lo}")
        if terms < 0:
            raise RangeError(f"--terms must be nonnegative, got {terms}")
        p = A.period if construction == "seq" and A.labeling == "labeled" else 1
        if n_value < p * (terms + 1):
            raise RangeError(
                f"--n {n_value} is too small for --terms {terms}: need --n >= {p * (terms + 1)}"
            )
        report = evaluate_partial_sum(A, m_lo, n_value, terms, construction)
        config = {
            "command": "expansion",
            "class": A.name,
            "construction": construction,
            "m": m_lo,
            "n": n_value,
            "terms": terms,
            "format": fmt,
        }
        result = {
            "class": report.class_name,
            "labeling": report.labeling,
            "construction": report.construction,
            "m": report.m,
            "n": report.n,
            "terms_used": report.terms_used,
            "terms": [
                {
                    "k": t.k,
                    "coefficient": t.coefficient,
                    "shape": t.shape,
                    "value": t.value,
                }
                for t in report.terms
            ],
            "partial_sum": report.partial_sum,
            "exact_probability": report.exact_probability,
            "residual": report.residual,
            "normalized_residual": report.normalized_residual,
            "note": report.note,
        }
        if fmt == "csv":
            rows = [
                (t.k, [t.coefficient, frac_str(t.shape), frac_str(t.value)])
                for t in report.terms
            ]
            human = grid_csv("k", ["coefficient", "shape", "value"], rows)
            human += f"\npartial_sum,,,{frac_str(report.partial_sum)}"
            if report.exact_probability is not None:
                human += f"\nexact_probability,,,{frac_str(report.exact_probability)}"
                human += f"\nresidual,,,{frac_str(report.residual)}"
                human += f"\nnormalized_residual,,,{frac_str(report.normalized_residual)}"
        else:
            shape_sym = (
                "binom(n,k)*a(n-k)/a(n)"
                if report.labeling == "labeled"
                else "a(n-k)/a(n)"
            )
            lines = [
                f"# {report.construction} expansion for {report.class_name}: "
                f"m={report.m} parts at n={report.n}, r={report.terms_used}",
                "",
                f"term shape: coefficient * {shape_sym}",
                "",
            ]
            rows = [
                (
                    t.k,
                    [
                        t.coefficient,
                        frac_str(t.shape),
                        frac_str(t.value),
                        approx(t.value) + " (approx)",
                    ],
                )
                for t in report.terms
            ]
            lines.append(
                grid_markdown("k", ["coefficient", "shape", "value", "decimal"], rows)
            )
            lines.append("")
            lines.append(
                f"partial sum = {frac_str(report.partial_sum)}"
                f" = {approx(report.partial_sum)} (approx)"
            )
            if report.exact_probability is not None:
                lines.append(
                    f"exact probability = {frac_str(report.exact_probability)}"
                    f" = {approx(report.exact_probability)} (approx)"
                )
                lines.append(
                    f"residual = {frac_str(report.residual)}"
                    f" = {approx(report.residual)} (approx)"
                )
                lines.append(
                    "residual / next shape = "
                    f"{frac_str(report.normalized_residual)}"
                    f" = {approx(report.normalized_residual)} (approx)"
                )
            if report.note:
                lines.append(f"note: {report.note}")
            human = "\n".join(lines)
        _emit(fmt, config, result, human)

    _run(body)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


@main.command("verify")
@click.option("--suite", type=click.Choice(list(SUITE_NAMES)), required=True)
@click.option("--budget", type=int, default=None, help="skip oracle checks above this")
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--format", "fmt", type=FORMATS, default="md", show_default=True)
def cmd_verify(suite, budget, workers, fmt):
    """Run a verification suite; exit 1 if any check fails."""

    def body():
        checks = run_suite(suite, budget=budget, workers=workers)
        n_fail = sum(1 for c in checks if c.status == "fail")
        n_skip = sum(1 for c in checks if c.status == "skip")
        n_ok = len(checks) - n_fail - n_skip
        config = {
            "command": "verify",
            "suite": suite,
            "budget": budget,
            "workers": workers,
            "format": fmt,
        }
        result = {
            "suite": suite,
            "checks": [
                {"name": c.name, "status": c.status, "detail": c.detail} for c in checks
            ],
            "ok": n_ok,
            "failures": n_fail,
            "skipped": n_skip,
        }
        if fmt == "json":
            click.echo(json_document(config, result))
        else:
            marker = {"ok": "ok  ", "fail": "FAIL", "skip": "skip"}
            for c in checks:
                detail = f" — {c.detail}" if c.detail else ""
                click.echo(f"{marker[c.status]} {c.name}{detail}")
            click.echo(
                f"suite {suite}: {n_ok} ok, {n_fail} failed, {n_skip} skipped"
            )
        if n_fail:
            sys.exit(1)

    _run(body)


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


@main.command("audit")
@click.option("--class", "class_name", default=None)
@click.option("--d", "d", type=int, default=1, show_default=True)
@click.option("--N", "N", type=int, default=60, show_default=True)
@click.option("--format", "fmt", type=FORMATS, default="md", show_default=True)
@click.option("--custom", type=click.Path(exists=True, dir_okay=False), default=None)
def cmd_audit(class_name, d, N, fmt, custom):
    """Audit the reduced counting sequence for gargantuan-style decay."""

    def body():
        A = _resolve(class_name, d, custom)
        report = audit(A, N)
        config = {
            "command": "audit",
            "class": A.name,
            "N": N,
            "format": fmt,
        }
        result = {
            "class": report.class_name,
            "N": report.N,
            "r_max": report.r_max,
            "verdict": report.verdict,
            "ratio_trace": list(report.ratio_trace),
            "convolution_trace": {
                str(r): list(vals) for r, vals in report.convolution_trace.items()
            },
            "sufficient_flags": {
                "ratio_linear_bound": report.ratio_linear_bound,
                "ratio_linear_witness": report.ratio_linear_witness,
                "midpoint_monotone": report.midpoint_monotone,
                "midpoint_first_violation": report.midpoint_first_violation,
            },
            "notes": list(report.notes),
        }
        tail = report.ratio_trace[-3:]
        human_lines = [
            f"# audit of {report.class_name} up to N={report.N}",
            "",
            f"verdict: {report.verdict}",
            f"ratio trace tail (exact): {', '.join(frac_str(x) for x in tail)}",
            f"ratio trace tail: {', '.join(approx(x) for x in tail)} (approx)",
            f"ratio_linear_bound: {report.ratio_linear_bound}"
            f" (witness {frac_str(report.ratio_linear_witness)}"
            f" = {approx(report.ratio_linear_witness)} (approx))",
            f"midpoint_monotone: {report.midpoint_monotone}"
            + (
                f" (first violation at n={report.midpoint_first_violation[0]},"
                f" k={report.midpoint_first_violation[1]})"
                if report.midpoint_first_violation
                else ""
            ),
        ]
        for r, vals in sorted(report.convolution_trace.items()):
            human_lines.append(
                f"convolution r={r} tail: {', '.join(approx(x) for x in vals[-3:])} (approx)"
            )
        for note in report.notes:
            human_lines.append(f"note: {note}")
        human_lines.append("finite-range evidence only; no verdict proves the limit.")
        _emit(fmt, config, result, "\n".join(human_lines))

    _run(body)


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


@main.command("oracle")
@click.option(
    "--class", "class_name", type=click.Choice(list(ORACLE_KINDS)), required=True
)
@click.option("--n", "n_value", type=int, required=True)
@click.option("--d", "d", type=int, default=1, show_default=True)
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True)
@click.option(
    "--budget",
    type=int,
    default=_FALLBACK_BUDGET,
    show_default=True,
    help="refuse to enumerate more objects than this",
)
@click.option("--format", "fmt", type=FORMATS, default="md", show_default=True)
def cmd_oracle(class_name, n_value, d, workers, budget, fmt):
    """Enumerate every object of one size and count parts directly."""

    def body():
        result = oracle_for(class_name, n_value, d, workers=workers, budget=budget)
        config = {
            "command": "oracle",
            "class": class_name,
            "n": n_value,
            "d": d,
            "workers": workers,
            "budget": budget,
            "format": fmt,
        }
        payload = {
            "class": result.class_name,
            "n": result.n,
            "counts_by_parts": [[m, c] for m, c in sorted(result.counts_by_parts.items())],
            "total_enumerated": result.total_enumerated,
        }
        rows = [(m, [c]) for m, c in sorted(result.counts_by_parts.items())]
        human = "\n".join(
            [
                f"# {result.class_name}, size n={result.n}",
                "",
                grid_markdown("m", ["count"], rows),
                "",
                f"total enumerated: {result.total_enumerated}",
            ]
        )
        _emit(fmt, config, payload, human)
        if fmt != "json":
            click.echo(f"elapsed: {result.elapsed:.3f}s", err=True)

    _run(body)


if __name__ == "__main__":
    main()
