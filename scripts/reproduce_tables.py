#!/usr/bin/env python3
"""Regenerate every frozen reference table from the series pipeline and diff.

Prints each table in markdown, checks it against the frozen module data, and
reports total wall time.  Exit status 1 on any mismatch.
"""

import argparse
import sys
import time

from seqasym import catalog
from seqasym.asymptotics import seq_coefficients
from seqasym.decomposition import parts_table
from seqasym.reference_tables import APPENDIX_ORDER, REFERENCE_TABLES
from seqasym.render import grid_markdown


def regenerate(key):
    class_key, d, kind = key
    ref = REFERENCE_TABLES[key]
    A = catalog.resolve_class(class_key, d)
    lo = ref.start_index
    hi = lo + len(ref.rows[0]) - 1
    if kind == "parts":
        table = parts_table(A, 5, hi)
        rows = [
            (str(m), [table.entries(n, m) for n in range(lo, hi + 1)])
            for m in range(1, 6)
        ]
        corner = "m\\n"
    else:
        table = seq_coefficients(A, 5, hi)
        rows = [
            (str(m), [table.entries(k, m) for k in range(lo, hi + 1)])
            for m in range(1, 6)
        ]
        corner = "m\\k"
    fresh = [tuple(vals) for _, vals in rows]
    return A, corner, rows, fresh == [tuple(r) for r in ref.rows]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quiet", action="store_true", help="print only the summary")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    failures = []
    extras = sorted(k for k in REFERENCE_TABLES if k not in APPENDIX_ORDER)
    for key in list(APPENDIX_ORDER) + extras:
        class_key, d, kind = key
        A, corner, rows, same = regenerate(key)
        if not same:
            failures.append(key)
        if not args.quiet:
            lo = REFERENCE_TABLES[key].start_index
            labels = [str(i) for i in range(lo, lo + len(rows[0][1]))]
            print(f"## {A.name} {kind}  [{'ok' if same else 'MISMATCH'}]\n")
            print(grid_markdown(corner, labels, rows))
            print()
    elapsed = time.perf_counter() - t0
    print(f"{len(REFERENCE_TABLES) - len(failures)}/{len(REFERENCE_TABLES)} "
          f"tables reproduced in {elapsed:.2f}s")
    if failures:
        print("mismatched:", failures)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
