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

Every exact integer, a bare one or either side of "p/q", is written by one
helper, ``_int_str``, with the text ``str()`` gives.  CPython 3.11's
``str(int)`` takes time quadratic in the digits.  The gargantuan classes grow
like tournaments, ``a_n = 2^C(n,2)``, so their exact laws and audit traces
have denominators ``o·2^e`` with ``o`` a small odd number and ``e`` in the
tens of thousands.  A value of more than ``_ROUTE_MIN_BITS`` bits whose odd
part ``o = |v| >> e`` has at most ``_ROUTE_ODD_BITS`` bits is written as
``str(Decimal(o) · 2^e)``, computed in the exact context ``_EXACT``
(``Inexact`` trapped).  ``2^e`` steps from the last power made when ``e``
lies less than ``_STEP_BITS`` above it, and is made afresh otherwise; the
exponents of an audit trace rise along each row, so nearly every value
takes a step, whose cost is linear in the digits.  Per value (``21·2^e``,
best of 15, 2-vCPU Xeon VM, CPython 3.11.7), ``str()`` took 24, 265 and
1045 µs at ``e`` = 4000, 14000 and 28000; a step from ``2^(e-100)`` took 8,
20 and 37 µs, and a fresh power 18, 170 and 650 µs.  Only the last power is
kept, and ``write_json`` drops it when it returns, so no document's powers
outlive it; markdown and CSV, whose cells the caller builds, leave it until
the next JSON document or the end of the process.  Keeping all 441 powers
the tournaments audit at ``N = 240`` makes raised the writer's traced peak
to 685 KB, past its bound of a quarter of the 2.0 MB written; the last one
alone peaks at 231 KB.  The rule reads a property of the value alone, and
every other value keeps ``str()``.  Under an ``int_max_str_digits`` limit
the route raises the ``ValueError`` that ``str()`` raises.

Generic divide and conquer over ``decimal`` (split at a power of two,
powers cached) was left out: at the sizes these documents reach it gains
little or nothing.  Per random value it took 22–30 against ``str()``'s
21–23 µs at 4k bits, 234–275 against 254–257 µs at 14k bits, and 946–1046
against 1017–1047 µs at 28k bits; it wins clearly only further out (4.5–6.0
against 18.5–18.7 ms at 120k bits, two runs), and no value of the
benchmark's documents has more than 28,445 bits.
"""

from __future__ import annotations

import sys
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, localcontext
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Any, Iterable, Sequence

import click

SCHEMA_VERSION = "1"
JSON_BLOCK = 1 << 16  # characters of encoded JSON passed to stdout at a time

# Values of the form o·2^e written through decimal (see the module docstring).
_ROUTE_MIN_BITS = 2000  # at or below this, str() is as fast
_ROUTE_ODD_BITS = 64
_STEP_BITS = 4096  # the largest step from the last power of two, exclusive
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact])
# The str() digit limit, 0 for none; Pythons before 3.10.7 have no limit.
_str_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
_last_pow2: tuple[int, Decimal] | None = None  # (e, 2^e) made last in this document

__all__ = [
    "SCHEMA_VERSION",
    "approx",
    "frac_str",
    "grid_markdown",
    "grid_csv",
    "write_json",
]


def _int_str(v: int) -> str:
    """The text ``str(v)`` gives, through ``2^e`` where v is ``±o·2^e``
    with a small odd part ``o`` (see the module docstring)."""
    global _last_pow2
    if v.bit_length() <= _ROUTE_MIN_BITS:
        return int.__repr__(v)
    a = abs(v)
    e = (a & -a).bit_length() - 1
    o = a >> e
    if o.bit_length() > _ROUTE_ODD_BITS:
        return int.__repr__(v)
    last = _last_pow2
    if last is not None and 0 <= e - last[0] < _STEP_BITS:
        p = _EXACT.multiply(last[1], _EXACT.power(2, e - last[0]))
    else:
        p = _EXACT.power(2, e)
    _last_pow2 = (e, p)
    text = str(_EXACT.multiply(o, p))
    limit = _str_digit_limit()
    if limit and len(text) > limit:
        int.__repr__(v)  # raises the ValueError of the int_max_str_digits limit
    return "-" + text if v < 0 else text


def frac_str(x: Fraction | int) -> str:
    """Exact decimal string: integers plain, non-integers as "p/q"."""
    n, d = x.numerator, x.denominator  # in lowest terms, d > 0, for int and Fraction
    return _int_str(n) if d == 1 else f"{_int_str(n)}/{_int_str(d)}"


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
        text = _int_str(x)
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
    to write.  The last power of two ``_int_str`` made is dropped on return,
    on error too, so no document's powers outlive it.
    """
    global _last_pow2
    block: list[str] = []
    doc = {"schema_version": SCHEMA_VERSION, "config": config, "result": result}
    try:
        _put(doc, "", "", block, 0)
    finally:
        _last_pow2 = None
    block.append("\n")
    click.echo("".join(block), nl=False)
