"""The Mullineux involution and its fixed points.

The image of an e-regular partition is computed by walking a good-node path
down to the empty partition and replaying the reversed word with every
residue negated mod e.  The result does not depend on the chosen path,
which the tests exercise by varying the tie-break.
"""

from __future__ import annotations

from dataclasses import dataclass

from .partitions import (
    InternalConsistencyError,
    Partition,
    e_regular_partitions,
    residue_counts,
)
from .typea import _cogood_lowering, canonical_path, crystal_edges, replay_path


def mullineux(lam: Partition, e: int, tie_break: str = "min") -> Partition:
    """Image of lam under the Mullineux involution for the given e."""
    word = canonical_path(lam, e, tie_break=tie_break)
    return replay_path(tuple((e - x) % e for x in word), e)


def mullineux_map(e: int, max_n: int) -> dict[Partition, Partition]:
    """Images of every e-regular partition of size at most max_n.

    Walks the lattice once, level by level: when mu is first discovered
    through an arrow lam -> mu of residue x, its image is the cogood
    (-x mod e)-addition to the image of lam.  That image lies on the level
    of lam, so the lowering's per-level memo serves both steps, and each
    vertex costs one boundary scan.
    """
    if max_n < 0:
        raise ValueError(f"max_n must be non-negative, got {max_n}")
    lower = _cogood_lowering(e)
    images: dict[Partition, Partition] = {(): ()}
    for lam, mu, x in crystal_edges(lower, e, max_n):
        if mu in images:
            continue
        image = lower(images[lam], -x % e)
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


def fixed_set(e: int, n: int) -> list[FixedPointRecord]:
    """All Mullineux-fixed e-regular partitions of n, sorted lexicographically,
    by brute force over the whole of K_n."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    images = mullineux_map(e, n)
    records = []
    for lam in sorted(p for p in images if sum(p) == n):
        if images[lam] == lam:
            records.append(FixedPointRecord(lam, n, residue_counts(lam, e)))
    return records


def regular_count(e: int, n: int) -> int:
    """Number of e-regular partitions of n."""
    return len(e_regular_partitions(n, e))


def irr_alternating_count(e: int, n: int) -> int:
    """(#K_n + 3 * #fixed points) / 2, always an integer because non-fixed
    partitions pair up under the involution.

    The classical interpretation (simple modules of the alternating group
    that split on restriction) requires q = 1 and e an odd prime; the count
    itself is exposed for every e >= 2.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    total = regular_count(e, n) + 3 * len(fixed_set(e, n))
    if total % 2:
        raise InternalConsistencyError(
            f"fixed-point parity violated for e={e}, n={n}")
    return total // 2
