"""Exact checks of job results: hex digests and the frozen reference tables.

A digest is a SHA-256 over a canonical encoding of the values a job
computed.  Integers, numerators and denominators are written in hex, so a
digest never converts a large integer to decimal and never meets the
interpreter's int-to-str digit limit.
"""

from __future__ import annotations

import dataclasses
import hashlib
from fractions import Fraction
from typing import Any, Iterable

from jobs import cli_class


def _feed(h, x: Any) -> None:
    if x is None:
        h.update(b"N")
    elif isinstance(x, bool):
        h.update(b"T" if x else b"F")
    elif isinstance(x, int):
        h.update(b"i%x;" % x)
    elif isinstance(x, Fraction):
        h.update(b"q%x/%x;" % (x.numerator, x.denominator))
    elif isinstance(x, str):
        data = x.encode()
        h.update(b"s%d:" % len(data))
        h.update(data)
    elif isinstance(x, float):
        # Only wall-clock fields (OracleResult.elapsed) are floats; they are
        # not part of an exact result.
        h.update(b"f")
    elif isinstance(x, (list, tuple)):
        h.update(b"[%d" % len(x))
        for v in x:
            _feed(h, v)
        h.update(b"]")
    elif isinstance(x, dict):
        h.update(b"{%d" % len(x))
        for k in sorted(x, key=lambda k: (type(k).__name__, k)):
            _feed(h, k)
            _feed(h, x[k])
        h.update(b"}")
    elif dataclasses.is_dataclass(x):
        fields = dataclasses.fields(x)
        h.update(b"D%d" % len(fields))
        for f in fields:
            _feed(h, f.name)
            _feed(h, getattr(x, f.name))
    else:
        raise TypeError(f"cannot digest a {type(x).__name__}")


def digest(values: Iterable[Any]) -> str:
    """SHA-256 hex digest of a sequence of exact results."""
    h = hashlib.sha256()
    _feed(h, list(values))
    return h.hexdigest()


def reference_mismatches(results: Iterable[Any]) -> tuple[int, int]:
    """Compare part and seq-coefficient tables with ``REFERENCE_TABLES``.

    Returns (entries compared, entries that differ), over every index and
    ``m`` where a computed table overlaps a frozen one.
    """
    from seqasym.asymptotics import CoefficientTable
    from seqasym.decomposition import PartsTable
    from seqasym.reference_tables import REFERENCE_TABLES

    compared = bad = 0
    for table in results:
        if isinstance(table, PartsTable):
            kind, top = "parts", table.n_max
        elif isinstance(table, CoefficientTable) and table.construction == "seq":
            kind, top = "coefficients", table.k_max
        else:
            continue
        key, d = cli_class(table.class_name)
        ref = REFERENCE_TABLES.get((key, d, kind))
        if ref is None:
            continue
        last = min(top, ref.start_index + len(ref.rows[0]) - 1)
        for m in range(1, min(table.m_max, len(ref.rows)) + 1):
            for idx in range(ref.start_index, last + 1):
                compared += 1
                bad += table.entries(idx, m) != ref.value(idx, m)
    return compared, bad
