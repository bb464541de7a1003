"""The size-changing bijection between partitions with distinct parts and
self-conjugate partitions.

A distinct-part partition (l_1 > ... > l_s) maps to the symmetric partition
obtained by nesting right-angle hooks of sizes 2*l_1 - 1 > ... > 2*l_s - 1
along the main diagonal; the inverse peels the rows back along the diagonal.
Note the image size differs from the input size in general: the bijection is
between the two infinite families, not between partitions of a fixed n.
"""

from __future__ import annotations

from .partitions import (
    InternalConsistencyError,
    Partition,
    has_distinct_parts,
    is_symmetric,
)


def durfee_length(mu: Partition) -> int:
    """Side of the largest square in the diagram: max i with mu_i >= i."""
    r = 0
    for i, part in enumerate(mu, start=1):
        if part >= i:
            r = i
    return r


def distinct_to_symmetric(lam: Partition) -> Partition:
    """Map (l_1 > ... > l_s) to the symmetric partition whose i-th diagonal
    hook has size 2*l_i - 1: row i is l_i + i - 1 down to the Durfee square,
    and the rows past it are forced by symmetry (row j counts the head rows
    reaching column j)."""
    if not has_distinct_parts(lam):
        raise ValueError(f"{lam} does not have distinct parts")
    if not lam:
        return ()
    s = len(lam)
    head = [lam[i] + i for i in range(s)]
    tail = [sum(1 for h in head if h >= j) for j in range(s + 1, head[0] + 1)]
    mu = tuple(head + tail)
    if not is_symmetric(mu):
        raise InternalConsistencyError(f"image {mu} of {lam} is not symmetric")
    return mu


def symmetric_to_distinct(mu: Partition) -> Partition:
    """Inverse map: subtract i - 1 from row i down to the main diagonal."""
    if not is_symmetric(mu):
        raise ValueError(f"{mu} is not symmetric")
    lam = tuple([mu[i] - i for i in range(durfee_length(mu))])
    if not has_distinct_parts(lam):
        raise InternalConsistencyError(
            f"preimage {lam} of {mu} does not have distinct parts")
    return lam
