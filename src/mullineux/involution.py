"""The Mullineux involution and its fixed points.

The image of an e-regular partition negates its crystal path, whatever the
path: strip it by steps to the empty partition and replay them reversed with
residues negated mod e.  A step takes all k normal x-nodes of each x that is
not adjacent (+-1 mod e) to one taken before; its replay, the first k conormal
(-x)-nodes.  Moving an x-node changes only the signatures of x - 1, x and
x + 1, and negation keeps residues non-adjacent, so a step's strings commute.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from . import typea
from .partitions import (
    InternalConsistencyError,
    Partition,
    e_regular_partitions,
    residue_counts,
)
from .typea import _cogood_lowering, _require_regular, _residue_order, crystal_edges


def mullineux(lam: Partition, e: int, tie_break: str = "min") -> Partition:
    """Image of lam under the Mullineux involution, one scan per step each way."""
    _require_regular(lam, e)
    order, steps, image = _residue_order(e, tie_break), [], ()
    while lam:
        normal, step = typea._normal_conormal_rows(lam, e)[0], {}
        for x in order:
            if normal[x] and (x - 1) % e not in step and (x + 1) % e not in step:
                step[x] = len(normal[x])
                lam = reduce(typea._remove_box, normal[x], lam)
        if not step:
            raise InternalConsistencyError(
                f"nonempty {e}-regular partition {lam} has no good node")
        steps.append(step)
    for step in reversed(steps):
        conormal = typea._normal_conormal_rows(image, e)[1]
        for x, count in step.items():
            rows = conormal[-x % e][:count]
            if len(rows) < count:
                raise InternalConsistencyError(
                    f"negated word has no cogood step at {image} (e={e})")
            image = reduce(typea._add_box, rows, image)
    return image


def _image_levels(e: int, max_n: int):
    """Images of K_0, ..., K_max_n, a dict per level yielded once complete (the
    reader and the stream hold two).  mu, first reached by an x-arrow from lam,
    maps to the cogood (-x mod e)-addition to lam's image, memoized on lam's level."""
    if max_n < 0:
        raise ValueError(f"max_n must be non-negative, got {max_n}")
    lower = _cogood_lowering(e)
    prev, cur = {(): ()}, {}
    yield prev
    for lam, mu, x in crystal_edges(lower, e, max_n):
        if lam not in prev:  # the arrows out of the next level begin
            prev, cur = cur, {}
            yield prev
        if mu not in cur:
            image = lower(prev[lam], -x % e)
            if image is None:
                raise InternalConsistencyError(
                    f"negated word has no cogood step at {prev[lam]} (e={e})")
            cur[mu] = image
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
    by brute force over K_n, holding two levels of images at a time."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    for images in _image_levels(e, n):
        pass  # keep only the last level, K_n
    return [FixedPointRecord(lam, n, residue_counts(lam, e))
            for lam in sorted(images) if images[lam] == lam]


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
