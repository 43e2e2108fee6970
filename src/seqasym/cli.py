"""Command-line surface: tables, expansions, verification suites, audits, oracles.

Formats: ``table`` and ``expansion`` print md (the default), csv or json;
``audit``, ``verify`` and ``oracle`` print md or json, and refuse csv as a
usage error.  Machine output (csv/json) is exact and byte-deterministic for
a fixed configuration; md may add 6-significant-digit decimals marked
"(approx)".

Exit codes: 0 success, 1 verification failure (a failed ``verify`` check, or
an ``oracle`` tally that differs from the parts table), 2 usage/domain error,
3 budget exceeded.  A ``SeqasymError`` from any command is caught in one
place, the ``main`` group, which prints ``<token>: <message>`` on stderr and
exits with the error's code.  Timings go to stderr only: ``audit`` and
``verify`` always end with ``elapsed: X.XXXs`` there, ``oracle`` in md;
``verify`` writes ``elapsed <suite>: X.XXXs`` before it for each suite run.

The JSON ``result`` of ``expansion``, ``audit``, ``oracle`` and ``verify`` is
the record the library returned (``ExpansionReport`` and its ``ExpansionTerm``
records, ``AuditReport``, ``OracleResult``, each ``Check``), its fields copied
shallowly under their own names, except where the document differs:
``class_name`` is written as ``class``; ``audit`` groups its four
sufficient-condition flags under ``sufficient_flags``; ``oracle`` drops
``elapsed`` and writes ``counts_by_parts`` as ``[m, count]`` pairs; ``verify``
writes each ``Check`` as its three fields, beside the suite and its tallies.
A new record field thus reaches JSON with no edit here.  ``table`` has no
record; its result is built here.

Every command computes its whole result before it writes a byte, so an error
prints nothing on stdout.  JSON is then written as it is encoded
(``render.write_json``), which keeps a document of huge exact numbers from
being held whole as text; md and csv are built whole and printed at once.
"""

from __future__ import annotations

import sys
import time
from dataclasses import fields
from typing import Callable

import click

from . import catalog
from .asymptotics import (
    CONSTRUCTIONS,
    ExpansionReport,
    cyc_coefficients,
    cyc_part_count,
    evaluate_partial_sum,
    seq_coefficients,
    set_via_seq_coefficients,
)
from .audit import audit
from .decomposition import parts_table
from .errors import RangeError, SeqasymError
from .oracle import DEFAULT_BUDGET, ORACLE_KINDS, oracle_for, reference_class
from .render import approx, frac_str, grid_csv, grid_markdown, write_json
from .suites import MEMBER_SUITES, SUITE_NAMES, oracle_mismatch, run_suite

MD_JSON = click.Choice(["md", "json"])
MD_CSV_JSON = click.Choice(["md", "csv", "json"])  # table, expansion


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
        if class_name is not None:
            raise RangeError(f"--class {class_name}: give --class or --custom, not both")
        if d != 1:
            raise RangeError(f"--d {d}: a --custom class has no d parameter")
        return catalog.load_custom(custom)
    if class_name is None:
        raise RangeError("either --class or --custom is required")
    return catalog.resolve_class(class_name, d)


def _fields(record) -> dict:
    """A library record's fields, copied shallowly, under their own names
    but ``class_name``, which is written as ``class``."""
    return {
        "class" if f.name == "class_name" else f.name: getattr(record, f.name)
        for f in fields(record)
    }


def _emit(fmt: str, config: dict, result, human: Callable[[], str]) -> None:
    """Write the json document, or print the md/csv text, built only when asked for."""
    if fmt == "json":
        write_json(config, result)
    else:
        click.echo(human())


class _Main(click.Group):
    """The one error boundary: a ``SeqasymError`` from any command prints
    ``<token>: <message>`` on stderr and exits with the error's code."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except SeqasymError as exc:
            click.echo(f"{exc.token}: {exc}", err=True)
            sys.exit(exc.exit_code)


@click.group(cls=_Main)
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
@click.option("--construction", type=click.Choice(CONSTRUCTIONS), default="seq")
@click.option("--m", "m_range", default="1..5", show_default=True)
@click.option("--k", "k_range", default=None, help="column range for coefficients")
@click.option("--n", "n_range", default=None, help="column range for parts")
@click.option("--format", "fmt", type=MD_CSV_JSON, default="md", show_default=True)
@click.option("--custom", type=click.Path(exists=True, dir_okay=False), default=None)
def cmd_table(class_name, d, kind, construction, m_range, k_range, n_range, fmt, custom):
    """Render a part-count or expansion-coefficient table (m rows, n/k columns)."""
    A = _resolve(class_name, d, custom)
    m_lo, m_hi = parse_range(m_range, "--m")
    if m_lo < 1:
        raise RangeError(f"--m {m_range}: m must start at 1")
    flag, text, stray, stray_text = (
        ("--n", n_range or "1..8", "--k", k_range)
        if kind == "parts"
        else ("--k", k_range or "0..8", "--n", n_range)
    )
    if stray_text is not None:
        raise RangeError(f"{stray} {stray_text}: --kind {kind} takes {flag}")
    lo, hi = parse_range(text, flag)
    index_label = flag[2:]
    if lo < 0:
        raise RangeError(f"{flag} {text}: {index_label} must be nonnegative")
    if kind == "coefficients":
        builder = {
            "seq": seq_coefficients,
            "cyc": cyc_coefficients,
            "set": set_via_seq_coefficients,
        }[construction]
        cell = builder(A, m_hi, hi).entries
    elif construction == "seq":
        cell = parts_table(A, m_hi, hi).entries
    elif construction == "cyc":

        def cell(n: int, m: int) -> int:
            return cyc_part_count(A, m, n)

    else:
        raise RangeError("--construction set: no part table; use --kind coefficients")
    rows = [(m, [cell(i, m) for i in range(lo, hi + 1)]) for m in range(m_lo, m_hi + 1)]
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
    grid = grid_csv if fmt == "csv" else grid_markdown
    _emit(fmt, config, result, lambda: grid(corner, cols, rows))


# ---------------------------------------------------------------------------
# expansion
# ---------------------------------------------------------------------------


# The exact tail of an expansion's csv and md text, as (field, md label):
# partial_sum, then the rest when an exact law exists.
_EXACT_TAIL = (
    ("partial_sum", "partial sum"),
    ("exact_probability", "exact probability"),
    ("residual", "residual"),
    ("normalized_residual", "residual / next shape"),
)


def _expansion_text(report: ExpansionReport, fmt: str) -> str:
    """The csv or md text of an expansion report: its terms, then its exact tail."""
    tail = [
        (key, label, getattr(report, key))
        for key, label in (_EXACT_TAIL[:1] if report.exact_probability is None else _EXACT_TAIL)
    ]
    rows = [(t.k, [t.coefficient, frac_str(t.shape), frac_str(t.value)]) for t in report.terms]
    if fmt == "csv":
        text = grid_csv("k", ["coefficient", "shape", "value"], rows)
        return text + "".join(
            f"\n{key},,,{'' if v is None else frac_str(v)}" for key, _, v in tail
        )
    shape_sym = (
        "binom(n,k)*a(n-k)/a(n)" if report.labeling == "labeled" else "a(n-k)/a(n)"
    )
    for (_, cells), t in zip(rows, report.terms):
        cells.append(approx(t.value) + " (approx)")
    lines = [
        f"# {report.construction} expansion for {report.class_name}: "
        f"m={report.m} parts at n={report.n}, r={report.terms_used}",
        "",
        f"term shape: coefficient * {shape_sym}",
        "",
        grid_markdown("k", ["coefficient", "shape", "value", "decimal"], rows),
        "",
    ]
    lines += [
        f"{label} = "
        + ("undefined (next shape is 0)" if v is None else f"{frac_str(v)} = {approx(v)} (approx)")
        for _, label, v in tail
    ]
    if report.note:
        lines.append(f"note: {report.note}")
    return "\n".join(lines)


@main.command("expansion")
@click.option("--class", "class_name", default=None)
@click.option("--d", "d", type=int, default=1, show_default=True)
@click.option("--construction", type=click.Choice(CONSTRUCTIONS), default="seq")
@click.option("--m", "m_value", default="1", show_default=True)
@click.option("--n", "n_value", type=int, required=True)
@click.option("--terms", "terms", type=int, default=4, show_default=True)
@click.option("--format", "fmt", type=MD_CSV_JSON, default="md", show_default=True)
@click.option("--custom", type=click.Path(exists=True, dir_okay=False), default=None)
def cmd_expansion(class_name, d, construction, m_value, n_value, terms, fmt, custom):
    """Evaluate a truncated probability expansion exactly at one size."""
    A = _resolve(class_name, d, custom)
    m_lo, m_hi = parse_range(m_value, "--m")
    if m_lo != m_hi:
        raise RangeError(f"--m {m_value}: m must be a single value for expansions")
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
    result = _fields(report)
    result["terms"] = [_fields(t) for t in report.terms]
    _emit(fmt, config, result, lambda: _expansion_text(report, fmt))


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


@main.command("verify")
@click.option("--suite", type=click.Choice(list(SUITE_NAMES)), required=True)
@click.option(
    "--budget", type=click.IntRange(min=0), default=None, help="skip oracle checks above this"
)
@click.option(
    "--workers",
    type=click.IntRange(min=1),
    default=1,
    show_default=True,
    help="no effect; kept so the recorded benchmark command line still runs",
)
@click.option("--format", "fmt", type=MD_JSON, default="md", show_default=True)
def cmd_verify(suite, budget, workers, fmt):
    """Run a verification suite; exit 1 if any check fails."""
    t0 = time.perf_counter()
    checks = []
    for name in MEMBER_SUITES if suite == "all" else (suite,):
        t_suite = time.perf_counter()
        checks += run_suite(name, budget=budget)
        click.echo(f"elapsed {name}: {time.perf_counter() - t_suite:.3f}s", err=True)
    elapsed = time.perf_counter() - t0
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
        "checks": [_fields(c) for c in checks],
        "ok": n_ok,
        "failures": n_fail,
        "skipped": n_skip,
    }

    def human() -> str:
        marker = {"ok": "ok  ", "fail": "FAIL", "skip": "skip"}
        lines = [
            f"{marker[c.status]} {c.name}" + (f" — {c.detail}" if c.detail else "")
            for c in checks
        ]
        lines.append(f"suite {suite}: {n_ok} ok, {n_fail} failed, {n_skip} skipped")
        return "\n".join(lines)

    _emit(fmt, config, result, human)
    click.echo(f"elapsed: {elapsed:.3f}s", err=True)
    if n_fail:
        sys.exit(1)


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


# The audit's sufficient-condition flags, grouped in its JSON result
_SUFFICIENT_FLAGS = (
    "ratio_linear_bound",
    "ratio_linear_witness",
    "midpoint_monotone",
    "midpoint_first_violation",
)


@main.command("audit")
@click.option("--class", "class_name", default=None)
@click.option("--d", "d", type=int, default=1, show_default=True)
@click.option("--N", "N", type=int, default=60, show_default=True)
@click.option("--format", "fmt", type=MD_JSON, default="md", show_default=True)
@click.option("--custom", type=click.Path(exists=True, dir_okay=False), default=None)
def cmd_audit(class_name, d, N, fmt, custom):
    """Audit the reduced counting sequence for gargantuan-style decay."""
    t0 = time.perf_counter()
    A = _resolve(class_name, d, custom)
    report = audit(A, N)
    elapsed = time.perf_counter() - t0
    config = {
        "command": "audit",
        "class": A.name,
        "N": N,
        "format": fmt,
    }
    result = _fields(report)
    result["sufficient_flags"] = {flag: result.pop(flag) for flag in _SUFFICIENT_FLAGS}

    def human() -> str:
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
        return "\n".join(human_lines)

    _emit(fmt, config, result, human)
    click.echo(f"elapsed: {elapsed:.3f}s", err=True)


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


@main.command("oracle")
@click.option(
    "--class", "class_name", type=click.Choice(list(ORACLE_KINDS)), required=True
)
@click.option("--n", "n_value", type=int, required=True)
@click.option("--d", "d", type=int, default=1, show_default=True)
@click.option(
    "--budget",
    type=click.IntRange(min=0),
    default=DEFAULT_BUDGET,
    show_default=True,
    help="refuse to enumerate more objects than this",
)
@click.option("--format", "fmt", type=MD_JSON, default="md", show_default=True)
def cmd_oracle(class_name, n_value, d, budget, fmt):
    """Enumerate every object of one size and count parts directly; exit 1
    if the tally differs from the parts table."""
    result = oracle_for(class_name, n_value, d, budget=budget)
    config = {
        "command": "oracle",
        "class": class_name,
        "n": n_value,
        "d": d,
        "budget": budget,
        "format": fmt,
    }
    counts = sorted(result.counts_by_parts.items())
    payload = _fields(result)
    del payload["elapsed"]  # a timing, for stderr only
    payload["counts_by_parts"] = counts  # [m, count] pairs, in m order

    def human() -> str:
        grid = grid_markdown("m", ["count"], [(m, [c]) for m, c in counts])
        return (
            f"# {result.class_name}, size n={result.n}\n\n{grid}\n\n"
            f"total enumerated: {result.total_enumerated}"
        )

    _emit(fmt, config, payload, human)
    if fmt == "md":
        click.echo(f"elapsed: {result.elapsed:.3f}s", err=True)
    A = reference_class(class_name, d)
    bad = oracle_mismatch(result, A, parts_table(A, n_value, n_value))
    if bad:
        click.echo(f"mismatch with the parts table: {bad}", err=True)
        sys.exit(1)


if __name__ == "__main__":
    main()
