#!/usr/bin/env python3
"""Census of Mullineux-fixed partitions.

For each e, tabulates per size n: the number of e-regular partitions, the
number of fixed points, the alternating-count formula value, and the size of
the crystal class whose vertices parameterize the fixed points.  The fixed
points are counted on their Mullineux symbols' columns (`counts_table`),
#regular comes from its generating function and #class from the class rules
(`_class_counts`), so the script walks no crystal and lists no partition.
"""

import argparse
import time

from mullineux.characters import counts_table
from mullineux.involution import _alternating_count, regular_count
from mullineux.partitions import CrystalKind
from mullineux.twisted import _class_counts


def census(e, max_n):
    kind = CrystalKind.odd(e // 2) if e % 2 else CrystalKind.even(e // 2)
    print(f"\ne = {e}  (crystal: {kind.parity}, ell = {kind.ell})")
    print(f"{'n':>3} {'#regular':>9} {'#fixed':>7} {'alt-count':>10} {'#class':>7}")
    fixed, members = [0] * (max_n + 1), _class_counts(kind, max_n)
    for (n, _, _), count in counts_table(e, max_n).counts.items():
        fixed[n] += count
    for n in range(max_n + 1):
        kn = regular_count(e, n)
        alt = _alternating_count(e, n, kn, fixed[n])
        print(f"{n:>3} {kn:>9} {fixed[n]:>7} {alt:>10} {members[n]:>7}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-e", type=int, action="append",
                        help="repeatable; defaults to 2..6")
    parser.add_argument("--max-n", type=int, default=16)
    args = parser.parse_args()
    es = args.e or [2, 3, 4, 5, 6]
    if min(es) < 2:
        parser.error(f"argument -e: must be at least 2, got {min(es)}")
    if args.max_n < 0:
        parser.error(f"argument --max-n: must be non-negative, got {args.max_n}")
    start = time.perf_counter()
    for e in es:
        census(e, args.max_n)
    print(f"\ntotal time: {time.perf_counter() - start:.2f}s")


if __name__ == "__main__":
    main()
