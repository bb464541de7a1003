#!/usr/bin/env python3
"""Census of Mullineux-fixed partitions.

For each e, tabulates per size n: the number of e-regular partitions, the
number of fixed points, the alternating-count formula value, and the crystal
class whose vertices parameterize the fixed points.  The fixed points come
from their Mullineux symbols and #regular from its generating function, so
neither walks the crystal or lists K_n.
"""

import argparse
import time

from mullineux.involution import _alternating_count, _fixed_levels, regular_count
from mullineux.partitions import CrystalKind
from mullineux.twisted import class_partitions


def census(e, max_n):
    kind = CrystalKind.odd(e // 2) if e % 2 else CrystalKind.even(e // 2)
    print(f"\ne = {e}  (crystal: {kind.parity}, ell = {kind.ell})")
    print(f"{'n':>3} {'#regular':>9} {'#fixed':>7} {'alt-count':>10} {'#class':>7}")
    for n, level in enumerate(_fixed_levels(e, max_n)):
        kn = regular_count(e, n)
        alt = _alternating_count(e, n, kn, len(level))
        print(f"{n:>3} {kn:>9} {len(level):>7} {alt:>10} {len(class_partitions(n, kind)):>7}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-e", type=int, action="append",
                        help="repeatable; defaults to 2..6")
    parser.add_argument("--max-n", type=int, default=16)
    args = parser.parse_args()
    start = time.perf_counter()
    for e in args.e or [2, 3, 4, 5, 6]:
        census(e, args.max_n)
    print(f"\ntotal time: {time.perf_counter() - start:.2f}s")


if __name__ == "__main__":
    main()
