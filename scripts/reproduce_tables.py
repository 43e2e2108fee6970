#!/usr/bin/env python3
"""Regenerate every frozen reference table from the integer core and diff.

Prints each table in markdown, checks it against the frozen module data, and
reports total wall time.  Exit status 1 on any mismatch.
"""

import argparse
import sys
import time

from seqasym.reference_tables import APPENDIX_ORDER, REFERENCE_TABLES
from seqasym.render import grid_markdown
from seqasym.suites import recompute_reference


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quiet", action="store_true", help="print only the summary")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    failures = []
    extras = sorted(k for k in REFERENCE_TABLES if k not in APPENDIX_ORDER)
    for key in list(APPENDIX_ORDER) + extras:
        kind = key[2]
        ref = REFERENCE_TABLES[key]
        table = recompute_reference(key)
        columns = range(ref.start_index, ref.start_index + len(ref.rows[0]))
        fresh = [tuple(table.entries(i, m) for i in columns) for m in range(1, 6)]
        same = fresh == list(ref.rows)
        if not same:
            failures.append(key)
        if not args.quiet:
            corner = "m\\n" if kind == "parts" else "m\\k"
            rows = [(str(m), vals) for m, vals in enumerate(fresh, 1)]
            print(f"## {table.class_name} {kind}  [{'ok' if same else 'MISMATCH'}]\n")
            print(grid_markdown(corner, [str(i) for i in columns], rows))
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
