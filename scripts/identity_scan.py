#!/usr/bin/env python3
"""Three-way scan of the fixed-point counting identities.

For each requested crystal kind, compares degree by degree the product
series coefficient, the crystal census, and the fixed-point sum, printing
the full table and timing.  The fixed-point side needs partitions up to
size 4*degree (odd kinds) or 2*degree (even kinds), which dominates the
cost as the degree grows.
"""

import argparse
import time

from mullineux.characters import verify_identity
from mullineux.partitions import CrystalKind


def scan(kind, max_degree):
    start = time.perf_counter()
    report = verify_identity(kind, max_degree)
    elapsed = time.perf_counter() - start
    print(f"\n{kind.parity} ell={kind.ell} (e={kind.e}), degree <= {max_degree} "
          f"[{elapsed:.2f}s]")
    print(f"{'deg':>4} {'series':>7} {'fixed-sum':>10} {'crystal':>8}")
    for row in report.rows:
        mark = "" if row.ok else "   <-- MISMATCH"
        print(f"{row.degree:>4} {row.lhs:>7} {row.rhs_counts:>10} "
              f"{row.rhs_crystal:>8}{mark}")
    print("result:", "PASS" if report.ok else "FAIL")
    return report.ok


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ells", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--max-deg-odd", type=int, default=8)
    parser.add_argument("--max-deg-even", type=int, default=10)
    args = parser.parse_args()
    if min(args.ells) < 1:
        parser.error(f"argument --ells: must be at least 1, got {min(args.ells)}")
    for flag, degree in (("--max-deg-odd", args.max_deg_odd),
                         ("--max-deg-even", args.max_deg_even)):
        if degree < 0:
            parser.error(f"argument {flag}: must be non-negative, got {degree}")
    ok = True
    for ell in args.ells:
        ok &= scan(CrystalKind.odd(ell), args.max_deg_odd)
        ok &= scan(CrystalKind.even(ell), args.max_deg_even)
    raise SystemExit(0 if ok else 1)


if __name__ == "__main__":
    main()
