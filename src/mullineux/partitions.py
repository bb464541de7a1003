"""Partitions, residue labelings, and the strictness classes the crystals live on.

A partition is a plain tuple of weakly decreasing positive ints; the empty
tuple is the empty partition.  Nodes of the Young diagram are 1-based
(row, col) pairs, so (1, 1) is the top-left box.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import inf
from typing import Iterator

Partition = tuple[int, ...]
Node = tuple[int, int]


class InternalConsistencyError(RuntimeError):
    """A structural fact the algorithms rely on failed at runtime."""


def check_partition(parts) -> Partition:
    """Validate and normalize an iterable of parts into a partition tuple."""
    lam = tuple([int(p) for p in parts])
    for i, p in enumerate(lam):
        if p < 1:
            raise ValueError(f"parts must be positive, got {p}")
        if i and lam[i - 1] < p:
            raise ValueError(f"parts must be weakly decreasing, got {lam}")
    return lam


def parse_partition(text: str) -> Partition:
    """Parse the canonical text encoding: comma-separated parts, '-' for empty."""
    text = text.strip()
    if text == "-":
        return ()
    try:
        parts = [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"malformed partition literal: {text!r}") from exc
    return check_partition(parts)


def format_partition(lam: Partition) -> str:
    """Inverse of parse_partition."""
    return ",".join(str(p) for p in lam) if lam else "-"


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram: column j of lam becomes row j."""
    return tuple([i for i in range(len(lam), 0, -1)
                  for _ in range(lam[i - 1] - (lam[i] if i < len(lam) else 0))])


def is_e_regular(lam: Partition, e: int) -> bool:
    """True iff lam is a partition (weakly decreasing positive ints) in which
    every part value occurs fewer than e times: each part exceeds the one
    e - 1 rows below it."""
    if e < 2:
        raise ValueError(f"e must be at least 2, got {e}")
    return (all(isinstance(part, int) for part in lam)
            and all(part >= below for part, below in zip(lam, (*lam[1:], 1)))
            and all(part > below for part, below in zip(lam, lam[e - 1:])))


def _fits(upper: int, lower: int, f: int, bound: float) -> bool:
    """The class rule for adjacent parts upper, lower (0 past the end):
    lower <= upper, equal only when f divides them, and a drop of at most
    bound, strictly less when f divides upper."""
    return lower < upper <= lower + bound if upper % f else lower <= upper < lower + bound


def _all_fit(lam: Partition, f: int, bound: float) -> bool:
    """Every adjacent pair fits, and lam has no trailing 0 (which fits 0)."""
    if f < 2:
        raise ValueError(f"f must be at least 2, got {f}")
    return 0 not in lam[-1:] and all(
        _fits(upper, lower, f, bound) for upper, lower in zip(lam, lam[1:] + (0,)))


def is_strict(lam: Partition, f: int) -> bool:
    """f-strict: adjacent equal parts are allowed only when divisible by f."""
    return _all_fit(lam, f, inf)


def is_restricted_strict(lam: Partition, f: int) -> bool:
    """f-strict with part gaps at most f (strictly less when f divides the part)."""
    return _all_fit(lam, f, f)


def is_double_restricted_strict(lam: Partition, f: int) -> bool:
    """f-strict with part gaps at most 2f (strictly less when f divides the part)."""
    return _all_fit(lam, f, 2 * f)


def is_symmetric(lam: Partition) -> bool:
    """True iff the partition equals its conjugate."""
    return lam == conjugate(lam)


def has_distinct_parts(lam: Partition) -> bool:
    return all(lam[i] > lam[i + 1] for i in range(len(lam) - 1))


@dataclass(frozen=True)
class Residue:
    """A residue class, stored reduced; the modulus rides along so that values
    taken mod different moduli can never be confused for one another."""

    value: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError(f"modulus must be at least 2, got {self.modulus}")
        object.__setattr__(self, "value", self.value % self.modulus)

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"Residue({self.value} mod {self.modulus})"


def residue_type_a(node: Node, e: int) -> Residue:
    """Diagonal residue (col - row) mod e of a node."""
    row, col = node
    if row < 1 or col < 1:
        raise ValueError(f"nodes are 1-based, got {node}")
    return Residue(col - row, e)


@dataclass(frozen=True)
class CrystalKind:
    """Flavor of a twisted crystal: parity 'odd' means e = 2*ell + 1, parity
    'even' means e = 2*ell.  Residues are taken mod ell + 1 in both flavors."""

    parity: str
    ell: int

    def __post_init__(self):
        if self.parity not in ("odd", "even"):
            raise ValueError(f"parity must be 'odd' or 'even', got {self.parity!r}")
        if self.ell < 1:
            raise ValueError(f"ell must be at least 1, got {self.ell}")

    @classmethod
    def odd(cls, ell: int) -> "CrystalKind":
        return cls("odd", ell)

    @classmethod
    def even(cls, ell: int) -> "CrystalKind":
        return cls("even", ell)

    @cached_property
    def is_odd(self) -> bool:
        return self.parity == "odd"

    @cached_property
    def e(self) -> int:
        return 2 * self.ell + (1 if self.is_odd else 0)

    @cached_property
    def strict_f(self) -> int:
        """Strictness parameter: e in the odd flavor, ell + 1 in the even one."""
        return self.e if self.is_odd else self.ell + 1

    @cached_property
    def modulus(self) -> int:
        return self.ell + 1

    @cached_property
    def column_pattern(self) -> tuple[int, ...]:
        up = tuple(range(self.ell + 1))
        if self.is_odd:
            return up + tuple(range(self.ell - 1, -1, -1))  # period 2*ell + 1
        return up + tuple(range(self.ell, -1, -1))          # period 2*ell + 2, ell doubled


def residue_twisted(col: int, kind: CrystalKind) -> Residue:
    """Column residue under the kind's repeating palindromic pattern."""
    if col < 1:
        raise ValueError(f"columns are 1-based, got {col}")
    pattern = kind.column_pattern
    return Residue(pattern[(col - 1) % len(pattern)], kind.modulus)


def residue_counts(lam: Partition, e: int) -> tuple[int, ...]:
    """Number of diagram nodes of each type-A residue; entries sum to |lam|.
    Row i (from 0) adds part // e to every residue and one to each of the
    part % e residues from -i % e on, tallied as steps of a difference list."""
    if e < 2:
        raise ValueError(f"e must be at least 2, got {e}")
    steps, full = [0] * (2 * e + 1), 0
    for row, part in enumerate(lam):
        full += part // e
        steps[-row % e] += 1
        steps[-row % e + part % e] -= 1
    counts, run = [full] * e, 0
    for x in range(2 * e):
        run += steps[x]
        counts[x % e] += run
    return tuple(counts)


def partitions_of(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of n (parts bounded by max_part), largest first part first."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if max_part is None or max_part > n:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(max_part, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def _top_down(n: int, max_drop, max_run) -> list[Partition]:
    """The partitions of n, lex-sorted, whose every part q drops by at most
    max_drop(q) to the next (0 past the end) and repeats at most max_run(q)
    times; built from the top, each (part, spare repeats, left) tail once."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")

    @lru_cache(maxsize=None)
    def tails(q: int, spare: int, left: int) -> list[Partition]:
        if not left:
            return [()] if q <= max_drop(q) else []
        return [(p,) + tail
                for p in range(max(q - max_drop(q), 1), min(q if spare else q - 1, left) + 1)
                for tail in tails(p, spare - 1 if p == q else max_run(p) - 1, left - p)]
    out = [(p,) + tail for p in range(1, n + 1) for tail in tails(p, max_run(p) - 1, n - p)]
    tails.cache_clear()
    return out if n else [()]


def e_regular_partitions(n: int, e: int) -> list[Partition]:
    """The e-regular partitions of n, sorted lexicographically."""
    if e < 2:
        raise ValueError(f"e must be at least 2, got {e}")
    return _top_down(n, lambda q: q, lambda q: e - 1)
