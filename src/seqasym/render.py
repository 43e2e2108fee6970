"""Deterministic rendering of tables and reports (markdown, CSV, JSON).

Machine formats (CSV, JSON) carry exact values only: arbitrary-precision
integers in decimal and rationals as "p/q" strings.  Decimal approximations
appear solely in human-readable output, always marked "(approx)" and limited
to 6 significant digits, so nothing rounded can be mistaken for exact data.
Identical inputs must produce byte-identical output: no timestamps, no hash
iteration order, no locale-dependent formatting.

JSON is written to stdout as it is encoded, in blocks of about
``JSON_BLOCK`` characters, so a document of huge exact numbers is never held
whole as text; its memory is that of the values it encodes plus one block.
The markdown and CSV texts are built whole and printed by the caller: a
markdown column needs the width of every cell before its first line.
"""

from __future__ import annotations

import json
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Any, Iterable, Sequence

import click

SCHEMA_VERSION = "1"
JSON_BLOCK = 1 << 16  # characters of encoded JSON passed to stdout at a time

__all__ = [
    "SCHEMA_VERSION",
    "approx",
    "frac_str",
    "grid_markdown",
    "grid_csv",
    "write_json",
]


def frac_str(x: Fraction | int) -> str:
    """Exact decimal string: integers plain, non-integers as "p/q"."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def approx(x: Fraction | int) -> str:
    """Display-only decimal with 6 significant digits."""
    x = Fraction(x)
    if x == 0:
        return "0"
    with localcontext() as ctx:
        ctx.prec = 6
        d = Decimal(x.numerator) / Decimal(x.denominator)
    return str(d).lower()


def _pad(cells: Sequence[str], widths: Sequence[int]) -> str:
    return "| " + " | ".join(c.rjust(w) for c, w in zip(cells, widths)) + " |"


def grid_markdown(
    corner: str, col_labels: Iterable[Any], rows: Iterable[tuple[Any, Iterable[Any]]]
) -> str:
    """Markdown table: one row per label, one right-justified column per index."""
    header = [corner] + [str(c) for c in col_labels]
    body = [[str(lab)] + [str(v) for v in vals] for lab, vals in rows]
    widths = [max(len(r[i]) for r in [header] + body) for i in range(len(header))]
    lines = [_pad(header, widths)]
    lines.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
    lines.extend(_pad(r, widths) for r in body)
    return "\n".join(lines)


def grid_csv(
    corner: str, col_labels: Iterable[Any], rows: Iterable[tuple[Any, Iterable[Any]]]
) -> str:
    lines = [",".join([corner] + [str(c) for c in col_labels])]
    for lab, vals in rows:
        lines.append(",".join([str(lab)] + [str(v) for v in vals]))
    return "\n".join(lines)


def _str_keys(x: Any) -> Any:
    """x with every dict key str()-ed, so keys sort as text ("10" < "2");
    the values are left for the encoder."""
    if isinstance(x, dict):
        return {str(k): _str_keys(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_str_keys(v) for v in x]
    return x


def _exact(x: Any) -> str:
    """The encoder's fallback: a Fraction as its exact text, nothing else."""
    if isinstance(x, Fraction):
        return frac_str(x)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def write_json(config: dict, result: Any) -> None:
    """Write the schema-versioned document to stdout, one line ending, as it
    is encoded (see the module docstring)."""
    doc = {"schema_version": SCHEMA_VERSION, "config": config, "result": result}
    encoder = json.JSONEncoder(indent=2, sort_keys=True, default=_exact)
    block: list[str] = []
    size = 0
    for chunk in encoder.iterencode(_str_keys(doc)):
        block.append(chunk)
        size += len(chunk)
        if size >= JSON_BLOCK:
            click.echo("".join(block), nl=False)
            block, size = [], 0
    block.append("\n")
    click.echo("".join(block), nl=False)
