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
    out = []
    for r, part in enumerate(lam, start=1):
        below = lam[r] if r < len(lam) else 0
        if part > below:
            out.append((r, part))
    return out


def addable_nodes(lam: Partition) -> list[Node]:
    """Concave corners where a box can be added, top row first."""
    out = []
    for r, part in enumerate(lam, start=1):
        if r == 1 or lam[r - 2] > part:
            out.append((r, part + 1))
    out.append((len(lam) + 1, 1))
    return out


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
    reference route the kernel _normal_conormal_rows is tested against."""
    _require_regular(lam, e)
    xv = _residue_value(x, e)
    raw = tuple(pair for pair in _boundary(lam)
                if (pair[0][1] - pair[0][0]) % e == xv)
    return _signature(raw, raw)


def _signature(raw: tuple, pairs) -> SignatureReport:
    """Report on raw, whose word is spelled by the (entry, letter) pairs."""
    survivors = cancel_ar(pairs)
    normal = tuple(entry for entry, letter in survivors if letter == "R")
    conormal = tuple(entry for entry, letter in survivors if letter == "A")
    return SignatureReport(raw, normal, conormal,
                           normal[-1] if normal else None,
                           conormal[0] if conormal else None,
                           "".join(map(itemgetter(1), pairs)))


def _remove_box(lam: Partition, row: int) -> Partition | None:
    """lam less the box at the end of row; None when row is 0 or the rest
    is not a diagram (mid-row removal never leaves one)."""
    below = lam[row] if row < len(lam) else 0
    if not row or lam[row - 1] <= below:
        return None
    new = lam[row - 1] - 1
    return lam[:row - 1] + ((new,) if new else ()) + lam[row:]


def _add_box(lam: Partition, row: int) -> Partition | None:
    """lam plus a box at the end of row; None when row is 0 or the result
    is not a diagram."""
    if not row or row > len(lam) + 1:
        return None
    new = (lam[row - 1] if row <= len(lam) else 0) + 1
    if row >= 2 and lam[row - 2] < new:
        return None
    return lam[:row - 1] + (new,) + lam[row:]


def remove_good(lam: Partition, x, e: int) -> Partition | None:
    """Remove the good x-node, or None when there is none."""
    _require_regular(lam, e)
    normal = _normal_conormal_rows(lam, e)[0][_residue_value(x, e)]
    return _remove_box(lam, normal[-1] if normal else 0)


def add_cogood(lam: Partition, x, e: int) -> Partition | None:
    """Add the cogood x-node, or None when there is none."""
    _require_regular(lam, e)
    conormal = _normal_conormal_rows(lam, e)[1][_residue_value(x, e)]
    return _add_box(lam, conormal[0] if conormal else 0)


def _normal_conormal_rows(lam: Partition, e: int) -> tuple[list[tuple], list[tuple]]:
    """Rows of every normal and every conormal x-node for each residue x, top
    down, in one pass with a stack of pending A rows per residue: an R cancels
    the latest or is normal, the A's left are conormal.  Unchecked: lam e-regular."""
    normal, pending, above = [()] * e, [()] * e, -1
    for row, (part, below) in enumerate(zip(lam + (0,), lam[1:] + (0, 0)), start=1):
        if part > below:
            x = (part - row) % e
            if pending[x]:
                pending[x] = pending[x][:-1]
            else:
                normal[x] += (row,)
        if above != part:
            pending[(part + 1 - row) % e] += (row,)
        above = part
    return normal, pending


def _strip_good_nodes(lam: Partition, good_rows, remove, label: str) -> tuple[int, ...]:
    """The reversed word of residues at which remove(cur, good_rows(cur)[x])
    strips lam, always at the smallest x with a good node."""
    word, cur = [], lam
    while cur:
        rows = good_rows(cur)
        x = next((x for x, row in enumerate(rows) if row), None)
        if x is None:
            raise InternalConsistencyError(f"nonempty {label} {cur} has no good node")
        word.append(x)
        cur = remove(cur, rows[x])
    word.reverse()
    return tuple(word)


def canonical_path(lam: Partition, e: int) -> tuple[int, ...]:
    """A residue word whose cogood-addition replay from empty rebuilds lam.

    Strips good nodes one at a time, always at the smallest residue that has
    one, and returns the reversed removal word.
    """
    _require_regular(lam, e)
    return _strip_good_nodes(lam, lambda cur: _normal_conormal_rows(cur, e)[0],
                             lambda cur, rows: _remove_box(cur, rows[-1]),
                             f"{e}-regular partition")


class ReplayError(ValueError):
    """A residue word demanded a cogood node that does not exist."""


def _replay(word, rows_of, add, modulus: int) -> Partition:
    """Apply add(lam, rows_of(lam)[x]) from the empty partition along a
    residue word.  A replay meets each vertex once, so it keeps no memo."""
    lam: Partition = ()
    for step, x in enumerate(word, start=1):
        x = _residue_value(x, modulus)
        nxt = add(lam, rows_of(lam)[x])
        if nxt is None:
            raise ReplayError(f"step {step}: no cogood {x}-node on {lam}")
        lam = nxt
    return lam


def replay_path(word, e: int) -> Partition:
    """Apply cogood additions from the empty partition along a residue word."""
    return _replay(word, *_cogood_moves(e), e)


@dataclass(frozen=True)
class CrystalGraph:
    """Levels (lex-sorted) and labeled edges of a level-bounded crystal."""

    levels: tuple[tuple[Partition, ...], ...]
    edges: tuple[tuple[Partition, Partition, int], ...]

    def level_sizes(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.levels)


def crystal_edges(rows_of, add, modulus: int, depth: int):
    """Every arrow (lam, add(lam, rows_of(lam)[x]), x) grown from () up to
    depth boxes, add giving None when there is no x-arrow: level by level, lam
    in lex order within a level, x ascending.  rows_of runs once per vertex;
    the pair is the one _replay takes."""
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
    crystal_edges and _replay: the conormal rows of every residue, and the
    first one's box."""
    if e < 2:
        raise ValueError(f"e must be at least 2, got {e}")
    return (lambda lam: _normal_conormal_rows(lam, e)[1],
            lambda lam, rows: _add_box(lam, rows[0] if rows else 0))


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
