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


def _image_levels(e: int, max_n: int):
    """The images of K_0, ..., K_max_n, one dict per level, holding only the
    previous and the current level.  When mu is first reached by an arrow
    lam -> mu of residue x, its image is the cogood (-x mod e)-addition to
    the image of lam, which lies on lam's level: the lowering's per-level
    memo serves both steps, and each vertex costs one boundary scan."""
    if max_n < 0:
        raise ValueError(f"max_n must be non-negative, got {max_n}")
    lower = _cogood_lowering(e)
    prev, cur = {(): ()}, {}
    for lam, mu, x in crystal_edges(lower, e, max_n):
        if lam not in prev:  # the arrows out of the next level begin
            yield prev
            prev, cur = cur, {}
        if mu not in cur:
            image = lower(prev[lam], -x % e)
            if image is None:
                raise InternalConsistencyError(
                    f"negated word has no cogood step at {prev[lam]} (e={e})")
            cur[mu] = image
    yield prev
    if max_n:
        yield cur


def mullineux_map(e: int, max_n: int) -> dict[Partition, Partition]:
    """Images of every e-regular partition of size at most max_n."""
    return {lam: image for level in _image_levels(e, max_n) for lam, image in level.items()}


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
    return _alternating_count(e, n, regular_count(e, n), len(fixed_set(e, n)))


def _alternating_count(e: int, n: int, regular: int, fixed: int) -> int:
    """(regular + 3 * fixed) / 2 for the counts of K_n and its fixed points."""
    total = regular + 3 * fixed
    if total % 2:
        raise InternalConsistencyError(
            f"fixed-point parity violated for e={e}, n={n}")
    return total // 2
