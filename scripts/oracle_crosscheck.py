#!/usr/bin/env python3
"""Brute-force enumeration against the algebraic part-count tables.

Runs the full default grid (or a single class) and prints a per-size line
with counts by part number, the algebraic prediction, and timing.  This is
the slow, independent ground truth behind every other number in the package.
"""

import argparse
import sys

from seqasym import catalog
from seqasym.decomposition import parts_table
from seqasym.oracle import ORACLE_KINDS, default_oracle_size, object_count, oracle_for

DEFAULT_GRID = (
    ("tournaments", 1),
    ("tournaments", 2),
    ("permutations", 1),
    ("permutations", 2),
    ("matchings", 1),
    ("matchings", 2),
    ("unlabeled_tournaments", 1),
)


def run_one(kind, d, n_max, workers, budget):
    A = catalog.resolve_class(kind, d)
    table = parts_table(A, n_max, n_max)
    ok = True
    for n in range(1, n_max + 1):
        res = oracle_for(kind, n, d=d, workers=workers, budget=budget)
        expect = {
            m: table.entries(n, m)
            for m in range(1, n + 1)
            if table.entries(n, m)
        }
        match = res.counts_by_parts == expect
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
    parser.add_argument("--d", type=int, default=1)
    parser.add_argument("--n-max", type=int, default=None)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--budget", type=int, default=None,
                        help="refuse any single enumeration larger than this")
    args = parser.parse_args(argv)

    grid = [(args.kind, args.d)] if args.kind else list(DEFAULT_GRID)
    all_ok = True
    for kind, d in grid:
        n_max = args.n_max or default_oracle_size(kind, d)
        if args.budget is not None and object_count(kind, n_max, d) > args.budget:
            print(f"{kind}(d={d}): skipped, {object_count(kind, n_max, d):,} "
                  f"objects at n={n_max} exceeds budget {args.budget:,}")
            continue
        all_ok = run_one(kind, d, n_max, args.workers, args.budget) and all_ok
    print("all enumerations match" if all_ok else "MISMATCH FOUND")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
