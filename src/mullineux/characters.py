"""Exact truncated character series and the fixed-point counting identities.

Both identities equate three independent counts, degree by degree: the
coefficient of a pure product series over odd exponents, the number of
twisted-crystal vertices at that depth, and a signed-index sum over
Mullineux-fixed partitions (counted on their symbols) grouped by two residue
tallies.  Everything is plain integer arithmetic; nothing is floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .involution import _fixed_tallies
from .partitions import CrystalKind, InternalConsistencyError, _euler_product
from .twisted import census_twisted


def character_series(kind: CrystalKind, trunc: int) -> tuple[int, ...]:
    """Coefficients c[d] of prod 1/(1 - t^i) over the kind's exponents, d <= trunc.

    Odd kind: odd i not divisible by e.  Even kind: all odd i.
    """
    if trunc < 0:
        raise ValueError(f"trunc must be non-negative, got {trunc}")
    return _euler_product((i for i in range(1, trunc + 1, 2)
                           if not (kind.is_odd and i % kind.e == 0)), trunc)


@dataclass(frozen=True)
class CountsTable:
    """Fixed-partition counts keyed by (size, zero-residue tally, middle tally)."""

    e: int
    max_size: int
    counts: Mapping[tuple[int, int, int], int]

    def count(self, n: int, m: int, mp: int) -> int:
        if n > self.max_size:
            raise ValueError(
                f"size {n} exceeds the table bound {self.max_size}")
        return self.counts.get((n, m, mp), 0)


def counts_table(e: int, max_size: int) -> CountsTable:
    """Count the Mullineux-fixed partitions of every size <= max_size by
    (N_0, N_ell), ell = e // 2, on their symbols' columns, asserting the
    parity constraints that fixed partitions are known to satisfy."""
    counts = _fixed_tallies(e, max_size)
    for n, m, mp in counts:
        if (mp % 2 or (n - m) % 2) if e % 2 else (n - m - mp) % 2:
            raise InternalConsistencyError(
                f"fixed points of size {n} with N_0 = {m}, N_ell = {mp} violate the "
                f"{'odd' if e % 2 else 'even'}-case parity constraints (e={e})")
    return CountsTable(e, max_size, counts)


def fixed_size_bound(kind: CrystalKind, max_degree: int) -> int:
    """Largest fixed-partition size the degree-n sum can reach: 4n for the
    odd kind (index 2n - m + 2m'), 2n for the even kind (index 2n - m - m')."""
    if max_degree < 0:
        raise ValueError(f"max_degree must be non-negative, got {max_degree}")
    return (4 if kind.is_odd else 2) * max_degree


def _fixed_side(kind: CrystalKind, max_degree: int, table: CountsTable) -> list[int]:
    """Fixed-point side of the identity at every degree n <= max_degree, in
    one pass over the table: the sum, over 0 <= m <= n and 0 <= m' <= n - m,
    of the count at size 2n - m + 2m', tallies (m, 2m') for the odd kind and
    at size 2n - m - m', tallies (m, m') for the even kind.  Each entry is
    the term of one (n, m, m'), if any, so the table must cover sizes to
    fixed_size_bound(kind, max_degree)."""
    sums = [0] * (max_degree + 1)
    for (size, m, mp), count in table.counts.items():
        twice_n = size + m - mp if kind.is_odd else size + m + mp
        n = twice_n // 2
        if (twice_n % 2 == 0 and 0 <= m <= n <= max_degree
                and 0 <= mp <= (n - m) * (2 if kind.is_odd else 1)
                and not (kind.is_odd and mp % 2)):
            sums[n] += count
    return sums


@dataclass(frozen=True)
class IdentityRow:
    degree: int
    lhs: int
    rhs_counts: int
    rhs_crystal: int

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs_counts == self.rhs_crystal


@dataclass(frozen=True)
class IdentityReport:
    kind: CrystalKind
    max_degree: int
    rows: tuple[IdentityRow, ...]

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)

    def first_failure(self) -> IdentityRow | None:
        for row in self.rows:
            if not row.ok:
                return row
        return None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.parity,
            "ell": self.kind.ell,
            "max_degree": self.max_degree,
            "rows": [{"degree": r.degree, "lhs": r.lhs,
                      "rhs_counts": r.rhs_counts, "rhs_crystal": r.rhs_crystal,
                      "ok": r.ok} for r in self.rows],
            "ok": self.ok,
        }


def verify_identity(kind: CrystalKind, max_degree: int, *,
                    table: CountsTable | None = None) -> IdentityReport:
    """Three-way comparison per degree n <= max_degree: series coefficient,
    crystal depth-n census, and the fixed-point sum from the counts table.

    The table must cover fixed sizes up to fixed_size_bound(kind, max_degree);
    by default it is built from scratch (the dominant cost at larger degrees).
    """
    bound = fixed_size_bound(kind, max_degree)
    if table is None:
        table = counts_table(kind.e, bound)
    if table.e != kind.e or table.max_size < bound:
        raise ValueError(
            f"counts table (e={table.e}, max_size={table.max_size}) does not "
            f"cover e={kind.e} up to size {bound}")
    census = census_twisted(kind, max_degree)
    series = character_series(kind, max_degree)
    fixed = _fixed_side(kind, max_degree, table)
    return IdentityReport(kind, max_degree, tuple([
        IdentityRow(degree=n, lhs=series[n], rhs_counts=fixed[n], rhs_crystal=census[n])
        for n in range(max_degree + 1)]))
