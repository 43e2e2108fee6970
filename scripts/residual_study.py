#!/usr/bin/env python3
"""How fast does the truncated expansion approach the exact probability?

For a class and a grid of sizes, print the normalized residual
(residual / first-omitted-term shape) next to the next coefficient it should
approach.  The gap closing (or not) as n grows is the whole story of how
usable the expansion is at a given size; at sizes reachable by exact
arithmetic the slower families are still visibly far from their limits.
"""

import argparse
import sys

from seqasym.asymptotics import evaluate_partial_sum, seq_coefficients
from seqasym.catalog import load_custom, resolve_class
from seqasym.errors import SeqasymError


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--class", dest="class_name", default="permutations")
    parser.add_argument("--d", type=int, default=1)
    parser.add_argument("--custom", default=None, help="custom class file")
    parser.add_argument("--m", type=int, default=1)
    parser.add_argument("--r-max", type=int, default=4)
    parser.add_argument("--sizes", default="20,30,40,50,60",
                        help="comma-separated n values")
    args = parser.parse_args(argv)
    try:
        sizes = [int(s) for s in args.sizes.split(",")]
    except ValueError:
        parser.error(f"--sizes {args.sizes!r}: expected a comma-separated list of integers")

    try:
        A = load_custom(args.custom) if args.custom else resolve_class(
            args.class_name, args.d
        )
        coeffs = seq_coefficients(A, args.m, args.r_max + 1)
        rows = []
        for r in range(args.r_max + 1):
            cells = []
            for n in sizes:
                nr = evaluate_partial_sum(A, args.m, n, r).normalized_residual
                cells.append("undefined" if nr is None else f"{float(nr):+.4f}")
            rows.append([str(r), str(coeffs.entries(r + 1, args.m))] + cells)
    except SeqasymError as exc:
        print(f"{exc.token}: {exc}", file=sys.stderr)
        return exc.exit_code

    print(f"# normalized residuals for {A.name}, m={args.m}\n")
    header = ["r", "target d_(r+1)"] + [f"n={n}" for n in sizes]
    print("| " + " | ".join(header) + " |")
    print("|" + "|".join("-" * (len(h) + 2) for h in header) + "|")
    for row in rows:
        print("| " + " | ".join(row) + " |")

    print()
    print("each row should drift toward its target as n grows; the distance")
    print("still left at the largest n is the honest state of convergence.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
