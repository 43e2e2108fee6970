#!/usr/bin/env python3
"""Audit every catalog class and print the verdict table.

Also demonstrates the two structural checks: closure of the evidence under
termwise products, and stability under small perturbations of the base
sequence.
"""

import argparse
import sys
from fractions import Fraction
from math import factorial

from seqasym import catalog
from seqasym.audit import audit, perturbation_check, product_closure_check


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--N", type=int, default=60)
    args = parser.parse_args(argv)
    if args.N < 10:
        parser.error(f"--N must be >= 10 (the audit needs a tail), got {args.N}")

    print(f"# growth audits at N={args.N}\n")
    print("| class | verdict | last ratio | linear bound | midpoint |")
    print("|-------|---------|------------|--------------|----------|")
    for A in catalog.catalog_classes():
        rep = audit(A, args.N)
        print(
            f"| {rep.class_name} | {rep.verdict} "
            f"| {float(rep.ratio(args.N)):.3e} "
            f"| {rep.ratio_linear_bound} | {rep.midpoint_monotone} |"
        )

    print("\n## closure under termwise products\n")
    P = catalog.permutations(1)
    T = catalog.tournaments(1)
    for pair in ((P, P), (T, P)):
        rep = product_closure_check(pair[0], pair[1], args.N)
        print(f"- {rep.class_name}: {rep.verdict}")

    print("\n## perturbation stability\n")
    tu = catalog.unlabeled_tournaments().values(args.N)
    t = T.values(args.N)
    b = [Fraction(tu[n]) - Fraction(t[n], factorial(n)) for n in range(args.N + 1)]
    rep = perturbation_check(T, b, 1, args.N)
    print(f"- {rep.class_name}: {rep.verdict}")
    for note in rep.notes:
        print(f"  {note}")
    print("\nfinite-range evidence only; no verdict proves the limit.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
