"""The Mullineux involution and its fixed points, from Mullineux's symbol.

Peeling e-rims off an e-regular partition gives columns (a_i, r_i) (rim size,
rows), which the involution maps to (a_i, a_i - r_i + eps_i), eps_i = 0 if
e | a_i and 1 otherwise (Ford-Kleshchev 1997).  `mullineux` rebuilds the image
from the mapped columns, last first, as e-rim parents.  The fixed points keep
every column: a local rule on adjacent columns counts them and prunes their
listing.  No route walks the crystal; `mullineux_map` is the tests' reference.
"""

from __future__ import annotations

from itertools import count
from operator import sub
from typing import Iterator

from .partitions import (
    InternalConsistencyError,
    Partition,
    e_regular_partitions,
    regular_counts,
)
from .typea import _cogood_rows, _require_regular, _shifted, enumerate_kleshchev


def mullineux(lam: Partition, e: int) -> Partition:
    """Image of lam under the Mullineux involution: peel e-rims into symbol
    columns (a, r), then rebuild the mapped ones (a - r + eps, a), last first."""
    _require_regular(lam, e)
    parts, columns = list(lam), []
    while parts:
        rows, a = len(parts), _peel_rim(parts, e)
        columns.append((a - rows + (a % e != 0), a))
    return _from_columns(columns[::-1], e)


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


def _peel_rim(parts: list[int], e: int) -> int:
    """Remove the e-rim of the partition in parts, in place; return its size.
    Top down, a segment enters each row at its last node and takes the row rim
    (to the column of the next part, or of the 1 appended), or, if no fewer,
    the left nodes it lacks of e and ends: the next starts on the row below."""
    size, left = 0, e
    parts.append(1)
    for t in range(len(parts) - 1):
        take = parts[t] - parts[t + 1] + 1
        if take < left:
            left -= take
        else:
            take, left = left, e
        parts[t] -= take
        size += take
    del parts[parts.index(0) if 0 in parts else -1:]  # emptied rows end it, or the 1
    return size


def _add_rim(beads: list[int], r: int, a: int, e: int) -> bool:
    """Turn mu's beta numbers h_j = mu_j - j, in place, into those of the
    e-regular lam of r rows whose a-node e-rim leaves mu, if any (the symbol
    determines lam); False spoils beads.  Bottom up on r padded rows, the
    segment ending on row j moves h_j up by its size (e, or a % e last: it must
    empty the last row) to row i, the number of beads >= it, and starts there;
    the one above ends on row i - 1 and moves the bead there, even an equal one."""
    n, short = len(beads), a % e
    if r < n or (short and n == r):
        return False
    beads += range(-n, -r, -1)
    j, size = r - 1, short or e
    for _ in range(-(-a // e)):
        if j < 0:
            return False
        h = beads.pop(j) + size
        while j and beads[j - 1] < h:
            j -= 1
        beads.insert(j, h)
        j, size = j - 1, e
    # e equal parts lam_t = lam_{t+e-1} read h_t - h_{t+e-1} = e - 1.
    return j < 0 and (r < e or e - 1 not in map(sub, beads, beads[e - 1:]))


def _from_columns(columns: list[tuple[int, int]], e: int) -> Partition:
    """The partition with symbol columns (r, a), innermost first, each the
    e-rim parent of the one inside, rebuilt on one bead list."""
    beads: list[int] = []
    for k, (r, a) in enumerate(columns):
        if not _add_rim(beads, r, a, e):
            raise _no_rim_parent(_from_columns(columns[:k], e), r, a, e)
    return _unbead(beads)


def _unbead(beads: list[int]) -> Partition:
    return tuple([h + t for t, h in enumerate(beads)])


def _no_rim_parent(mu: Partition, r: int, a: int, e: int) -> InternalConsistencyError:
    return InternalConsistencyError(f"symbol column ({a}, {r}) has no rim parent of {mu} (e={e})")


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
    level, stack = [], [([], 0, n)]
    while stack:
        beads, r, left = stack.pop()
        if not left:
            level.append(_unbead(beads))
        for rows, a, *_ in columns[r]:
            if a > left:
                break
            if fills[rows][left - a]:
                if not _add_rim(lam := beads.copy(), rows, a, e):
                    raise _no_rim_parent(_unbead(beads), rows, a, e)
                stack.append((lam, rows, left - a))
    return level


def fixed_set(e: int, n: int) -> list[Partition]:
    """All Mullineux-fixed e-regular partitions of n, sorted lexicographically."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return sorted(e_regular_partitions(n, 2) if e == 2 else _fixed_partitions(e, n))


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
