"""Kleshchev's e-good lattice on e-regular partitions.

For a fixed residue x, the addable and removable x-nodes are read off the
boundary top down.  Writing A for addable and R for removable gives a word
in which every adjacent "AR" is cancelled, repeatedly, until none is left.
Surviving R's are the normal x-nodes (the last one is the good x-node) and
surviving A's are the conormal x-nodes (the first one is the cogood x-node).
Removing good nodes and adding cogood nodes are mutually inverse moves and
generate the whole lattice from the empty partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .partitions import (
    InternalConsistencyError,
    Node,
    Partition,
    Residue,
    e_regular_partitions,
    is_e_regular,
)


@dataclass(frozen=True)
class SignatureReport:
    """A/R word of one residue plus the survivors of AR-cancellation; type A
    keeps (node, letter) pairs in raw and nodes elsewhere, the twisted kinds
    TwistedNode entries throughout."""

    raw: tuple
    normal: tuple
    conormal: tuple
    good: object | None
    cogood: object | None
    letters: str

    @property
    def epsilon(self) -> int:
        return len(self.normal)

    @property
    def phi(self) -> int:
        return len(self.conormal)


def removable_nodes(lam: Partition) -> list[Node]:
    """Boxes whose removal leaves a Young diagram, top row first."""
    return [(r, part) for r, (part, below) in enumerate(zip(lam, (*lam[1:], 0)), start=1)
            if part > below]


def addable_nodes(lam: Partition) -> list[Node]:
    """Concave corners where a box can be added, top row first."""
    return [(r, part + 1) for r, part in enumerate(lam, start=1)
            if r == 1 or lam[r - 2] > part] + [(len(lam) + 1, 1)]


def cancel_ar(pairs):
    """Drop every adjacent 'A then R' pair, repeatedly; survivors keep order.

    Items are (payload, letter) pairs.  A single left-to-right pass with a
    stack is equivalent to iterated deletion of "AR" substrings.
    """
    stack = []
    for pair in pairs:
        if pair[1] == "R" and stack and stack[-1][1] == "A":
            stack.pop()
        else:
            stack.append(pair)
    return stack


def _boundary(lam: Partition) -> list[tuple[Node, str]]:
    # Top-down reading order; a row holds at most one A and one R, at
    # different columns, so sorting by (row, col) never has to break ties.
    merged = [(node, "R") for node in removable_nodes(lam)]
    merged += [(node, "A") for node in addable_nodes(lam)]
    merged.sort(key=lambda pair: pair[0])
    return merged


def _residue_value(x, modulus: int) -> int:
    if isinstance(x, Residue):
        if x.modulus != modulus:
            raise ValueError(
                f"residue modulus {x.modulus} does not match modulus {modulus}")
        return x.value
    return int(x) % modulus


def _require_regular(lam: Partition, e: int) -> None:
    if not is_e_regular(lam, e):
        raise ValueError(f"{lam} is not {e}-regular")


def signature_report(lam: Partition, x, e: int) -> SignatureReport:
    """Signature of lam at residue x, with good/cogood nodes and counts; the
    reference route the row kernels below are tested against."""
    _require_regular(lam, e)
    xv = _residue_value(x, e)
    raw = tuple([pair for pair in _boundary(lam)
                 if (pair[0][1] - pair[0][0]) % e == xv])
    return _signature(raw, raw)


def _signature(raw: tuple, pairs) -> SignatureReport:
    """Report on raw, whose word is spelled by the (entry, letter) pairs."""
    survivors = cancel_ar(pairs)
    normal = tuple([entry for entry, letter in survivors if letter == "R"])
    conormal = tuple([entry for entry, letter in survivors if letter == "A"])
    return SignatureReport(raw, normal, conormal,
                           normal[-1] if normal else None,
                           conormal[0] if conormal else None,
                           "".join(map(itemgetter(1), pairs)))


def _shifted(lam: Partition, row: int, by: int) -> Partition | None:
    """lam with the part in row (0 past the end) moved by 1 or -1, or None."""
    if not row:
        return None
    new = (lam[row - 1] if row <= len(lam) else 0) + by
    return lam[:row - 1] + ((new,) if new else ()) + lam[row:]


def remove_good(lam: Partition, x, e: int) -> Partition | None:
    """Remove the good x-node, or None when there is none."""
    _require_regular(lam, e)
    return _shifted(lam, _good_rows(lam, e)[_residue_value(x, e)], -1)


def add_cogood(lam: Partition, x, e: int) -> Partition | None:
    """Add the cogood x-node, or None when there is none."""
    _require_regular(lam, e)
    return _shifted(lam, _cogood_row(lam, _residue_value(x, e), e), 1)


# Row kernels: one pass over an e-regular partition (a tuple or a list;
# unchecked), 0 for no node.  The good node is the last R that no pending A
# above cancels, the cogood node the first A that no pending R below cancels.
# A row's R and A differ in residue, so their order in the row never matters.
# The walks read _cogood_rows once per vertex, a replay step _cogood_row.
def _good_rows(lam, e: int) -> list[int]:
    """Row of the good x-node for every residue x, top down."""
    good, pending, above = [0] * e, [0] * e, 0
    for row, (part, below) in enumerate(zip(lam, (*lam[1:], 0)), start=1):
        if part > below:
            x = (part - row) % e
            if pending[x]:
                pending[x] -= 1
            else:
                good[x] = row
        if above != part:
            pending[(part + 1 - row) % e] += 1
        above = part
    return good


def _cogood_rows(lam, e: int) -> list[int]:
    """Row of the cogood x-node for every residue x, bottom up."""
    cogood, pending, row, below = [0] * e, [0] * e, len(lam), 0
    cogood[-row % e] = row + 1
    for part in reversed(lam):
        if part > below:
            pending[(part - row) % e] += 1
        if row == 1 or lam[row - 2] != part:
            x = (part + 1 - row) % e
            if pending[x]:
                pending[x] -= 1
            else:
                cogood[x] = row
        row, below = row - 1, part
    return cogood


def _cogood_row(lam, x: int, e: int) -> int:
    """Row of the cogood x-node, bottom up through the nodes of residue x alone."""
    row, below, pending = len(lam), 0, 0
    cogood = row + 1 if -row % e == x else 0
    for part in reversed(lam):
        shift = (part - row - x) % e  # 0 at an x-removable end, e - 1 at an x-addable one
        if not shift and part > below:
            pending += 1
        elif shift == e - 1 and (row == 1 or lam[row - 2] != part):
            if pending:
                pending -= 1
            else:
                cogood = row
        row, below = row - 1, part
    return cogood


def _strip_good_nodes(lam: Partition, good_rows, label: str, check=None) -> tuple[int, ...]:
    """The reversed word of residues x at which lam, held as one list of parts,
    is stripped: always at the smallest x with a good node, from a row that
    check(parts, row), if given, lets go."""
    word, parts = [], list(lam)
    while parts:
        for x, row in enumerate(good_rows(parts)):
            if row:
                break
        else:
            raise InternalConsistencyError(f"nonempty {label} {tuple(parts)} has no good node")
        if check:
            check(parts, row)
        word.append(x)
        parts[row - 1] -= 1
        if not parts[-1]:
            parts.pop()
    word.reverse()
    return tuple(word)


def canonical_path(lam: Partition, e: int) -> tuple[int, ...]:
    """A residue word whose cogood-addition replay from empty rebuilds lam.

    Strips good nodes one at a time, always at the smallest residue that has
    one, and returns the reversed removal word.
    """
    _require_regular(lam, e)
    return _strip_good_nodes(lam, lambda parts: _good_rows(parts, e), f"{e}-regular partition")


class ReplayError(ValueError):
    """A residue word demanded a cogood node that does not exist."""


def _replay(word, cogood_row, modulus: int, check=None) -> Partition:
    """Grow one list of parts from empty along a residue word, at each letter
    x by a box in row cogood_row(parts, x), which check(parts, row), if given,
    lets go.
    A replay meets each vertex once, so it keeps no memo."""
    parts: list[int] = []
    for step, x in enumerate(word, start=1):
        x = _residue_value(x, modulus)
        row = cogood_row(parts, x)
        if not row:
            raise ReplayError(f"step {step}: no cogood {x}-node on {tuple(parts)}")
        if check:
            check(parts, row)
        if row > len(parts):
            parts.append(0)
        parts[row - 1] += 1
    return tuple(parts)


def replay_path(word, e: int) -> Partition:
    """Apply cogood additions from the empty partition along a residue word."""
    _require_regular((), e)  # rejects e < 2
    return _replay(word, lambda parts, x: _cogood_row(parts, x, e), e)


@dataclass(frozen=True)
class CrystalGraph:
    """Levels (lex-sorted) and labeled edges of a level-bounded crystal."""

    levels: tuple[tuple[Partition, ...], ...]
    edges: tuple[tuple[Partition, Partition, int], ...]

    def level_sizes(self) -> tuple[int, ...]:
        return tuple([len(level) for level in self.levels])


def crystal_edges(rows_of, add, modulus: int, depth: int):
    """Every arrow (lam, add(lam, rows_of(lam)[x]), x) grown from () up to
    depth boxes, add giving None when there is no x-arrow: level by level, lam
    in lex order within a level, x ascending.  rows_of runs once per vertex."""
    level: list[Partition] = [()]
    for _ in range(depth):
        seen = set()
        for lam in level:
            rows = rows_of(lam)
            for x in range(modulus):
                mu = add(lam, rows[x])
                if mu is not None:
                    seen.add(mu)
                    yield lam, mu, x
        level = sorted(seen)


def _cogood_moves(e: int):
    """rows_of and add of cogood addition in the e-good lattice, for
    crystal_edges: the cogood row of every residue, and a box there."""
    _require_regular((), e)  # rejects e < 2
    return (lambda lam: _cogood_rows(lam, e),
            lambda lam, row: _shifted(lam, row, 1))


def _crystal_graph(moves, modulus: int, depth: int, expected, label: str) -> CrystalGraph:
    """Graph of crystal_edges(*moves, modulus, depth); a level n >= 1 that
    differs from expected(n) raises, naming the level and the label."""
    edges = tuple(crystal_edges(*moves, modulus, depth))
    reached: list[set[Partition]] = [{()}] + [set() for _ in range(depth)]
    for _, mu, _ in edges:
        reached[sum(mu)].add(mu)
    levels = [sorted(level) for level in reached]
    for n in range(1, depth + 1):
        if levels[n] != expected(n):
            raise InternalConsistencyError(
                f"level {n}: reachable set differs from {label}")
    return CrystalGraph(tuple(map(tuple, levels)), edges)


def enumerate_kleshchev(e: int, max_n: int) -> CrystalGraph:
    """Levels 0..max_n of the e-good lattice with residue-labeled edges.

    Built by cogood addition from the empty partition; every level is then
    cross-checked against e_regular_partitions, and a mismatch raises (the
    two constructions agreeing is a correctness signal, not an assumption).
    """
    if max_n < 0:
        raise ValueError(f"max_n must be non-negative, got {max_n}")
    return _crystal_graph(_cogood_moves(e), e, max_n,
                          lambda n: e_regular_partitions(n, e), f"e_regular_partitions at e={e}")
