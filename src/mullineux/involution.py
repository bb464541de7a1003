"""The Mullineux involution and its fixed points, from Mullineux's symbol.

Peeling e-rims off an e-regular partition gives columns (a_i, r_i) (rim size,
rows), which the involution maps to (a_i, a_i - r_i + eps_i), eps_i = 0 if
e | a_i and 1 otherwise (Ford-Kleshchev 1997).  `mullineux` rebuilds the image
from the mapped columns, last first, as e-rim parents; the fixed points are
the partitions whose columns the map keeps, grown from smaller ones the same
way.  Neither walks the crystal.  `mullineux_map`, which negates crystal paths
over all of K_<=n, is the tests' reference for both.
"""

from __future__ import annotations

from dataclasses import dataclass

from .partitions import (
    InternalConsistencyError,
    Partition,
    e_regular_partitions,
    residue_counts,
)
from .typea import _cogood_moves, _require_regular, crystal_edges


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
        parent = _rim_parent(image, a - r + (a % e != 0), a, e)
        if parent is None:
            raise InternalConsistencyError(
                f"symbol column ({a}, {r}) has no rim parent of {image} (e={e})")
        image = parent
    return image


def mullineux_map(e: int, max_n: int) -> dict[Partition, Partition]:
    """Images of every e-regular partition of size at most max_n.  mu, first
    reached by an x-arrow from lam, maps to the cogood (-x mod e)-addition to
    lam's image.  The image's rows are read once per source vertex."""
    if max_n < 0:
        raise ValueError(f"max_n must be non-negative, got {max_n}")
    rows_of, add = _cogood_moves(e)
    images, source = {(): ()}, None
    for lam, mu, x in crystal_edges(rows_of, add, e, max_n):
        if mu not in images:
            if lam is not source:
                source, rows = lam, rows_of(images[lam])
            image = add(images[lam], rows[-x % e])
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
    return tuple(part for part in mu if part), sum(lam) - sum(mu)


def _rim_parent(mu: Partition, r: int, a: int, e: int) -> Partition | None:
    """The e-regular lam with r rows whose e-rim has a nodes and leaves mu, or
    None (the symbol determines lam, so there is at most one).  Top down, an
    e-segment enters each row at its last node and takes the row's whole rim
    unless it ends there, which forces the next part to mu_i + 1; the row
    after a segment end is free up to mu_i + 1, and only it branches.  A short
    last segment must empty the last row."""
    m = mu + (0,) * (r - len(mu))
    lam: list[int] = []

    def segment(i: int, left: int, run: int) -> bool:
        # a segment starts at row i; left: nodes to place; run: repeats of lam[i - 1]
        for part in range(min(m[i - 1] + 1 if i else m[0] + e, m[i] + e), m[i], -1):
            del lam[i:]
            j, used, k, runs = i, 0, left, run
            while True:
                d = part - m[j]
                runs = runs + 1 if j and part == lam[-1] else 1
                if d > e - used or runs == e or k - d < r - j - 1:
                    break
                lam.append(part)
                k, used = k - d, used + d
                if j == r - 1:
                    if not k and (used == e or not m[j]):
                        return True
                    break
                if used == e:
                    if segment(j + 1, k, runs):
                        return True
                    break
                j, part = j + 1, m[j] + 1
        return False

    return tuple(lam) if segment(0, a, 0) else None


def _fixed_levels(e: int, max_n: int):
    """The Mullineux-fixed partitions of sizes 0..max_n, a list per size in no
    set order, yielded once complete.  lam is fixed iff 2 r_i = a_i + eps_i in
    every symbol column, so peeling its e-rim leaves a fixed mu, takes
    a = 2r - 1 (e not dividing a) or 2r (e dividing a) nodes, and r <= len(mu)
    + e, as rows past len(mu) + 1 are 1s: each level is the rim parents of
    smaller ones.  It holds the level in hand and those not yet yielded."""
    if max_n < 0:
        raise ValueError(f"max_n must be non-negative, got {max_n}")
    if e < 2:
        raise ValueError(f"e must be at least 2, got {e}")
    if e == 2:
        yield from (_fixed_level(2, n) for n in range(max_n + 1))
        return
    ahead = [[()]] + [[] for _ in range(max_n)]
    for size in range(max_n + 1):
        level, ahead[size] = ahead[size], []
        yield level
        for mu in level:
            for r in range(max(len(mu), 1), min(len(mu) + e, (max_n - size + 1) // 2) + 1):
                for a in (2 * r - 1, 2 * r):
                    if size + a <= max_n and (a % e == 0) == (a % 2 == 0):
                        lam = _rim_parent(mu, r, a, e)
                        if lam is not None:
                            ahead[size + a].append(lam)


def _fixed_level(e: int, n: int) -> list[Partition]:
    """The Mullineux-fixed partitions of n, in no set order."""
    if e == 2:  # the identity at e = 2: K_n is the level, listed faster than the walk
        return e_regular_partitions(n, 2)
    for level in _fixed_levels(e, n):
        pass  # keep only the last level
    return level


def fixed_set(e: int, n: int) -> list[FixedPointRecord]:
    """All Mullineux-fixed e-regular partitions of n, sorted lexicographically."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return [FixedPointRecord(lam, n, residue_counts(lam, e))
            for lam in sorted(_fixed_level(e, n))]


def regular_count(e: int, n: int) -> int:
    """Number of e-regular partitions of n: the q^n coefficient of
    prod (1 - q^(ek)) / (1 - q^k) = prod over e not dividing k of 1 / (1 - q^k)."""
    if e < 2:
        raise ValueError(f"e must be at least 2, got {e}")
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    coeffs = [1] + [0] * n
    for k in range(1, n + 1):
        if k % e:
            for d in range(k, n + 1):
                coeffs[d] += coeffs[d - k]
    return coeffs[n]


def irr_alternating_count(e: int, n: int) -> int:
    """(#K_n + 3 * #fixed points) / 2, always an integer because non-fixed
    partitions pair up under the involution.

    The classical interpretation (simple modules of the alternating group
    that split on restriction) requires q = 1 and e an odd prime; the count
    itself is exposed for every e >= 2.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return _alternating_count(e, n, regular_count(e, n), len(_fixed_level(e, n)))


def _alternating_count(e: int, n: int, regular: int, fixed: int) -> int:
    """(regular + 3 * fixed) / 2 for the counts of K_n and its fixed points."""
    total = regular + 3 * fixed
    if total % 2:
        raise InternalConsistencyError(
            f"fixed-point parity violated for e={e}, n={n}")
    return total // 2
