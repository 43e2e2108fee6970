#!/usr/bin/env python3
"""Brute-force enumeration against the algebraic part-count tables.

Runs the grid of ``seqasym verify --suite oracle`` (or a single class) and
prints a per-size line with counts by part number, whether they match the
algebraic table, and timing.  Enumeration is the independent ground truth
behind every other number in the package.  Without --class, --d keeps the
grid rows of that d.  A class off that grid needs --n-max.  The closing line
counts the rows that ran and were skipped, and claims a match only for
rows that ran.
"""

import argparse
import sys

from seqasym import catalog
from seqasym.decomposition import parts_table
from seqasym.errors import SeqasymError
from seqasym.oracle import ORACLE_KINDS, object_count, oracle_for
from seqasym.suites import ORACLE_GRID, oracle_mismatch


def run_one(kind, d, n_max, budget):
    A = catalog.resolve_class(kind, d)
    table = parts_table(A, n_max, n_max)
    ok = True
    for n in range(1, n_max + 1):
        res = oracle_for(kind, n, d=d, budget=budget)
        match = oracle_mismatch(res, A, table) is None
        ok = ok and match
        print(
            f"{res.class_name:24s} n={n}  "
            f"{'ok ' if match else 'BAD'}  enumerated={res.total_enumerated:>12,}  "
            f"elapsed={res.elapsed:6.2f}s  parts={res.counts_by_parts}"
        )
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--class", dest="kind", choices=ORACLE_KINDS, default=None)
    parser.add_argument("--d", type=int, default=None, help="default: 1 with --class, else every d")
    parser.add_argument("--n-max", type=int, default=None)
    parser.add_argument("--budget", type=int, default=None,
                        help="refuse any single enumeration larger than this")
    args = parser.parse_args(argv)
    if args.budget is not None and args.budget < 0:
        parser.error(f"--budget must be nonnegative, got {args.budget}")
    if args.n_max is not None and args.n_max < 1:
        parser.error(f"--n-max must be at least 1, got {args.n_max}")

    sizes = {(kind, d): n_max for kind, d, n_max in ORACLE_GRID}
    if args.kind:
        grid = [(args.kind, 1 if args.d is None else args.d)]
        try:
            catalog.resolve_class(*grid[0])  # refuses a --d the class does not define
        except SeqasymError as exc:
            print(f"{exc.token}: {exc}", file=sys.stderr)
            return exc.exit_code
        if args.n_max is None and grid[0] not in sizes:
            parser.error(
                f"--n-max is required for --class {args.kind} --d {grid[0][1]}, "
                "which is off the verify --suite oracle grid"
            )
    else:
        grid = [row for row in sizes if args.d in (None, row[1])]
        if not grid:
            parser.error(
                f"--d {args.d} matches no row of the verify --suite oracle grid "
                f"(d in {sorted({d for _, d in sizes})}); give --class and --n-max"
            )
    all_ok = True
    ran = 0
    for kind, d in grid:
        n_max = sizes[(kind, d)] if args.n_max is None else args.n_max
        if args.budget is not None and object_count(kind, n_max, d) > args.budget:
            print(f"{kind}(d={d}): skipped, {object_count(kind, n_max, d):,} "
                  f"objects at n={n_max} exceeds budget {args.budget:,}")
            continue
        all_ok = run_one(kind, d, n_max, args.budget) and all_ok
        ran += 1
    rows = f"rows ran: {ran}, skipped: {len(grid) - ran}"
    if not all_ok:
        print(f"MISMATCH FOUND; {rows}")
    elif ran:
        print(f"all enumerations match; {rows}")
    else:
        print(f"nothing compared; {rows}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
