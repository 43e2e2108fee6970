"""Deterministic rendering of tables and reports (markdown, CSV, JSON).

Machine formats (CSV, JSON) carry exact values only: arbitrary-precision
integers in decimal and rationals as "p/q" strings.  Decimal approximations
appear solely in human-readable output, always marked "(approx)" and limited
to 6 significant digits, so nothing rounded can be mistaken for exact data.
Identical inputs must produce byte-identical output: no timestamps, no hash
iteration order, no locale-dependent formatting.

JSON is written to stdout as it is produced, in blocks of about
``JSON_BLOCK`` characters, so a document of huge exact numbers is never held
whole as text; its memory is that of the values it encodes plus one block.
The markdown and CSV texts are built whole and printed by the caller: a
markdown column needs the width of every cell before its first line.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str
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
    n, d = x.numerator, x.denominator  # in lowest terms, d > 0, for int and Fraction
    return str(n) if d == 1 else f"{n}/{d}"


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


def _put(x: Any, indent: str, lead: str, block: list[str], size: int) -> int:
    """Append ``lead`` and the JSON text of x at ``indent`` to ``block``, which
    holds ``size`` characters of leaf text, and return that count.  A leaf is
    appended as one string with its lead.  Once the count reaches
    ``JSON_BLOCK``, the block is passed to stdout and emptied.

    A module-level function rather than a closure: a closure that calls
    itself is a reference cycle, and would keep each document's last block
    alive until the cycle collector ran.
    """
    if isinstance(x, str):
        text = _encode_str(x)
    elif x is None:
        text = "null"
    elif x is True:
        text = "true"
    elif x is False:
        text = "false"
    elif isinstance(x, int):
        text = int.__repr__(x)
    elif isinstance(x, (list, tuple, dict)):
        if not x:
            block.append(lead + ("{}" if isinstance(x, dict) else "[]"))
            return size
        inner = indent + "  "
        if isinstance(x, dict):
            close = "\n" + indent + "}"
            sep = lead + "{\n" + inner
            for k, v in sorted({str(k): v for k, v in x.items()}.items()):
                size = _put(v, inner, sep + _encode_str(k) + ": ", block, size)
                sep = ",\n" + inner
        else:
            close = "\n" + indent + "]"
            sep = lead + "[\n" + inner
            for v in x:
                size = _put(v, inner, sep, block, size)
                sep = ",\n" + inner
        block.append(close)
        return size
    # isinstance(x, Fraction) asks ABCMeta about any other type: after the containers
    elif isinstance(x, Fraction):
        text = '"' + frac_str(x) + '"'
    else:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
    block.append(lead + text)
    size += len(text)
    if size < JSON_BLOCK:
        return size
    click.echo("".join(block), nl=False)
    block.clear()
    return 0


def write_json(config: dict, result: Any) -> None:
    """Write the schema-versioned document to stdout, one line ending, in
    blocks as it is produced (see the module docstring).

    One recursive pass writes the text ``json.dumps(doc, indent=2,
    sort_keys=True)`` gives for the document with every dict key ``str()``-ed
    (so keys sort as text, "10" < "2") and every ``Fraction`` as its exact
    text: strings through ``encode_basestring_ascii``, ``bool``, ``None`` and
    ``int`` as ``json`` writes them, tuples as lists.  Any other type raises
    TypeError, ``float`` included, since a document carries exact values only.
    The pure-Python encoder ``json`` uses under ``indent`` runs generator
    frames per value, which made Fraction-dense documents about twice as slow
    to write.
    """
    block: list[str] = []
    doc = {"schema_version": SCHEMA_VERSION, "config": config, "result": result}
    _put(doc, "", "", block, 0)
    block.append("\n")
    click.echo("".join(block), nl=False)
