"""The Mullineux involution and its fixed points, from Mullineux's symbol.

Peeling e-rims off an e-regular partition gives columns (a_i, r_i) (rim size,
rows), which the involution maps to (a_i, a_i - r_i + eps_i), eps_i = 0 if
e | a_i and 1 otherwise (Ford-Kleshchev 1997).  `mullineux` rebuilds the image
from the mapped columns, last first, as e-rim parents.  The fixed points keep
every column: a local rule on adjacent columns counts them and prunes their
listing.  No route walks the crystal; `mullineux_map` is the tests' reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Iterator

from .partitions import (
    InternalConsistencyError,
    Partition,
    e_regular_partitions,
    regular_counts,
    residue_counts,
)
from .typea import _cogood_rows, _require_regular, _shifted, enumerate_kleshchev


def mullineux(lam: Partition, e: int) -> Partition:
    """Image of lam under the Mullineux involution: peel e-rims into symbol
    columns (a, r), then rebuild, last column first, the rim parent of each
    (a, a - r + eps)."""
    _require_regular(lam, e)
    columns = []
    while lam:
        rows = len(lam)
        lam, a = _peel_rim(lam, e)
        columns.append((a, rows))
    image = ()
    for a, r in reversed(columns):
        image = _column_parent(image, a - r + (a % e != 0), a, e)
    return image


def mullineux_map(e: int, max_n: int) -> dict[Partition, Partition]:
    """Images of every e-regular partition of size at most max_n.  mu, first
    reached by an x-arrow from lam, maps to the cogood (-x mod e)-addition to
    lam's image.  The image's rows are read once per source vertex."""
    images, source = {(): ()}, None
    for lam, mu, x in enumerate_kleshchev(e, max_n).edges:
        if mu not in images:
            if lam is not source:
                source, rows = lam, _cogood_rows(images[lam], e)
            image = _shifted(images[lam], rows[-x % e], 1)
            if image is None:
                raise InternalConsistencyError(
                    f"negated word has no cogood step at {images[lam]} (e={e})")
            images[mu] = image
    return images


@dataclass(frozen=True)
class FixedPointRecord:
    """A Mullineux-fixed partition together with its residue tallies."""

    partition: Partition
    n: int
    residue_profile: tuple[int, ...]


def _peel_rim(lam: Partition, e: int) -> tuple[Partition, int]:
    """lam with its e-rim removed, and the rim's size.  Top down, a segment
    enters each row at its last node and takes min(row rim, e - used) nodes;
    the row rim runs to the column of the next part, or to column 1 on the
    last row.  A full segment ends, and the next starts on the row below."""
    mu, used = [], 0
    for part, below in zip(lam, (*lam[1:], 1)):
        take = min(part - below + 1, e - used)
        mu.append(part - take)
        used = (used + take) % e
    # tuple() of a list, here and in _rim_parent: of a generator it grows by
    # resizing, and each dead short tuple then adds to CPython's free lists.
    return tuple([part for part in mu if part]), sum(lam) - sum(mu)


def _rim_parent(mu: Partition, r: int, a: int, e: int) -> Partition | None:
    """The e-regular lam with r rows whose e-rim has a nodes and leaves mu, or
    None (the symbol determines lam, so there is at most one).  Bottom up on
    the beta numbers h_j = mu_j - j of mu padded to r rows: the segment ending
    on row j moves h_j up by its size (e, or a % e for a short last segment,
    which must empty the last row) to row i, the number of beads >= the new
    value.  It starts there, so the segment above ends on row i - 1 and moves
    the bead there, an equal one included, away."""
    if r < len(mu) or (a % e and len(mu) == r):
        return None
    beads = [part - j for j, part in enumerate(mu + (0,) * (r - len(mu)))]
    j, size = r - 1, a % e or e
    for _ in range(a // e + (a % e > 0)):
        if j < 0:
            return None
        h, i = beads[j] + size, j
        while i and beads[i - 1] < h:
            i -= 1
        beads[i + 1:j + 1], beads[i] = beads[i:j], h
        j, size = i - 1, e
    if j >= 0:
        return None
    lam = tuple([h + t for t, h in enumerate(beads)])
    return None if any(lam[t] == lam[t + e - 1] for t in range(r - e + 1)) else lam


def _column_parent(mu: Partition, r: int, a: int, e: int) -> Partition:
    lam = _rim_parent(mu, r, a, e)
    if lam is not None:
        return lam
    raise InternalConsistencyError(f"symbol column ({a}, {r}) has no rim parent of {mu} (e={e})")


def _fixed_symbol_columns(e: int) -> Iterator[tuple[int, int]]:
    """Every fixed symbol column (rows, a), in ascending a: a column (a, r) is fixed when its
    image column (a, a - r + eps) is itself, so a = 2r - 1 with e not dividing a (eps = 1) or
    a = 2r with e dividing a (eps = 0)."""
    return (((a + 1) // 2, a) for a in count(1) if (a % e == 0) == (a % 2 == 0))


def _fixed_columns(e: int, max_n: int) -> list[list[tuple[int, int, int, int]]]:
    """Entry r, in ascending a: the fixed symbol columns (rows, a, N_0, N_ell), ell = e // 2,
    of at most max_n nodes that fit just outside a fixed column of r rows (r = 0: the
    terminator (0, 0) below the last).  Bessenrodt-Olsson: in the symbol of an e-regular
    partition, each column (a, r) with s = a - r + eps image rows exceeds the next inward by
    eps..e - 1 + eps in r and in s; fixed: s = r.  An e-rim holds a // e nodes of each
    residue, then 1 - r, ..., a % e - r."""
    if max_n < 0:
        raise ValueError(f"max_n must be non-negative, got {max_n}")
    if e < 2:
        raise ValueError(f"e must be at least 2, got {e}")
    columns: list[list[tuple[int, int, int, int]]] = [[] for _ in range((max_n + 3) // 2)]
    for rows, a in _fixed_symbol_columns(e):
        if a > max_n:
            break
        eps = a % 2
        tally = (rows, a, *(a // e + ((x + rows - 1) % e < a % e) for x in (0, e // 2)))
        for r in range(max(rows - e + 1 - eps, 0), rows - eps + 1):
            columns[r].append(tally)
    return columns


def _fixed_tallies(e: int, max_n: int) -> dict[tuple[int, int, int], int]:
    """Counts of the Mullineux-fixed partitions by (size n <= max_n, N_0, N_ell),
    size by size over (rows, N_0, N_ell) states: no partition is built."""
    columns, counts = _fixed_columns(e, max_n), {}
    levels: list[dict] = [{(0, 0, 0): 1}] + [{} for _ in range(max_n)]
    for n, level in enumerate(levels):
        for (r, m, mp), count in level.items():
            counts[n, m, mp] = counts.get((n, m, mp), 0) + count
            for rows, a, d0, dl in columns[r]:
                if n + a > max_n:
                    break
                key = (rows, m + d0, mp + dl)
                levels[n + a][key] = levels[n + a].get(key, 0) + count
    return counts


def _fixed_partitions(e: int, n: int) -> list[Partition]:
    """The Mullineux-fixed partitions of n, in no set order: each lam is the rim
    parent of the one inside, and a column is tried only where outer ones can
    fill the nodes left exactly.  A column with e | a may repeat, so the walk
    keeps a stack: recursion would be n / 6 deep at e = 3, past CPython's limit."""
    columns = _fixed_columns(e, n)
    fills = [[True] + [False] * n for _ in columns]
    for left in range(1, n + 1):
        for r, fill in enumerate(fills):
            fill[left] = any(a <= left and fills[rows][left - a] for rows, a, *_ in columns[r])
    level, stack = [], [((), 0, n)]
    while stack:
        mu, r, left = stack.pop()
        if not left:
            level.append(mu)
        for rows, a, *_ in columns[r]:
            if a > left:
                break
            if fills[rows][left - a]:
                stack.append((_column_parent(mu, rows, a, e), rows, left - a))
    return level


def fixed_set(e: int, n: int) -> list[FixedPointRecord]:
    """All Mullineux-fixed e-regular partitions of n, sorted lexicographically."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    level = e_regular_partitions(n, 2) if e == 2 else _fixed_partitions(e, n)
    return [FixedPointRecord(lam, n, residue_counts(lam, e)) for lam in sorted(level)]


def regular_count(e: int, n: int) -> int:
    """Number of e-regular partitions of n."""
    return regular_counts(e, n)[n]


def irr_alternating_count(e: int, n: int) -> int:
    """(#K_n + 3 * #fixed points) / 2, always an integer because non-fixed
    partitions pair up under the involution.

    The classical interpretation (simple modules of the alternating group
    that split on restriction) requires q = 1 and e an odd prime; the count
    itself is exposed for every e >= 2.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    fixed = sum(count for (size, _, _), count in _fixed_tallies(e, n).items() if size == n)
    return _alternating_count(e, n, regular_count(e, n), fixed)


def _alternating_count(e: int, n: int, regular: int, fixed: int) -> int:
    """(regular + 3 * fixed) / 2 for the counts of K_n and its fixed points."""
    total = regular + 3 * fixed
    if total % 2:
        raise InternalConsistencyError(
            f"fixed-point parity violated for e={e}, n={n}")
    return total // 2
