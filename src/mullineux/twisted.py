"""Crystals on restricted strict partitions (odd kind) and on double
restricted strict partitions (even kind).

Node residues depend on the column only, through the kind's repeating
pattern.  Because equal parts are allowed when divisible by the strictness
parameter, boxes can be removable or addable either singly (tags R1/A1) or
as the left seat of an adjacent same-residue pair (tags R2/A2).  Signatures
are read along the boundary from bottom left to top right; cancellation and
good/cogood selection then work exactly as in the type A lattice, and the
good node is always R1, the cogood node always A1 (a pair seat that
survives forces its partner to survive just after/before it).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

from .partitions import (
    CrystalKind,
    InternalConsistencyError,
    Node,
    Partition,
    Residue,
    _fits,
    _top_down,
    is_double_restricted_strict,
    is_restricted_strict,
    is_strict,
)
from .typea import (
    CrystalGraph,
    SignatureReport,
    _crystal_graph,
    _replay,
    _residue_value,
    _shifted,
    _signature,
    _strip_good_nodes,
)

@dataclass(frozen=True)
class TwistedNode:
    """A removable/addable box candidate with its pairing tag and residue."""

    node: Node
    tag: str
    residue: Residue

    @property
    def letter(self) -> str:
        return self.tag[0]


def in_crystal_class(lam: Partition, kind: CrystalKind) -> bool:
    """Membership in the kind's vertex class: restricted e-strict partitions
    for the odd kind, double restricted (ell+1)-strict for the even kind."""
    strict = is_restricted_strict if kind.is_odd else is_double_restricted_strict
    return strict(lam, kind.strict_f)


def class_partitions(n: int, kind: CrystalKind) -> list[Partition]:
    """The class members of size n, sorted lexicographically, from the class
    rules alone: equal neighbours only on multiples of f, each drop to the
    next part at most bound (f odd, 2f even), less one from a multiple of f."""
    f, bound = kind.strict_f, kind.strict_f * (1 if kind.is_odd else 2)
    return _top_down(n, lambda q: bound - (q % f == 0), lambda q: n if q % f == 0 else 1)


def node_scan(lam: Partition, kind: CrystalKind) -> tuple[TwistedNode, ...]:
    """All removable and addable candidates with tags, in reading order
    (bottom left to top right: descending row, then ascending column).

    A box is R1/A1 when the single-box move keeps the partition f-strict.
    The pair seats sit immediately left of / right of the row end: R2 at
    (r, part-1) needs its right neighbour to share the residue and both the
    one-box and two-box removals to stay f-strict; A2 at (r, part+2) is the
    mirror condition for additions.  The tests' reference for the row
    kernels, with which it shares no code: a move keeps lam
    f-strict exactly when the moved part still fits its neighbours.
    """
    f, pattern = kind.strict_f, kind.column_pattern
    if not is_strict(lam, f):
        raise ValueError(f"{lam} is not {f}-strict")
    parts = (lam[0] + 3 if lam else 3,) + lam + (0, 0)
    out = []
    for row in range(len(lam) + 1, 0, -1):
        above, part, below = parts[row - 1:row + 2]
        res = [Residue(pattern[(col - 1) % len(pattern)], kind.modulus)
               for col in range(part - 1, part + 3)]
        if _fits(part - 1, below, f, inf):  # a negative part never fits
            if _fits(part - 2, below, f, inf) and res[0] == res[1]:
                out.append(TwistedNode((row, part - 1), "R2", res[0]))
            out.append(TwistedNode((row, part), "R1", res[1]))
        if _fits(above, part + 1, f, inf):
            out.append(TwistedNode((row, part + 1), "A1", res[2]))
            if _fits(above, part + 2, f, inf) and res[2] == res[3]:
                out.append(TwistedNode((row, part + 2), "A2", res[3]))
    return tuple(out)


# Row kernels: one bottom-up pass over a class member (a tuple or a list;
# unchecked), each row through the seats of node_scan that fit: R2, R1, A1,
# A2.  A fitting pair seat counts as a second seat of its single seat's row.
# With a count of pending A's per residue, the good node is the last R read
# with none pending, the cogood node the A that opens the run still pending
# at the end; 0 for none.  R2 is read just before R1, which replaces it, and
# A2 just after A1, so neither is ever chosen.
def _good_rows(lam, kind: CrystalKind) -> list[int]:
    """Row of the good i-node for every residue i."""
    f, pattern, m = kind.strict_f, kind.column_pattern, kind.modulus
    period = len(pattern)
    good, pending, row, part, below = [0] * m, [0] * m, len(lam) + 1, 0, 0
    for above in (*reversed(lam), lam[0] + 3 if lam else 3):
        if part - 1 > below or part - 1 == below and below % f == 0:
            x = pattern[(part - 1) % period]
            seats = 1 + (pattern[(part - 2) % period] == x and (
                part - 2 > below or part - 2 == below and below % f == 0))
            if pending[x] < seats:
                good[x] = row
            pending[x] = max(pending[x] - seats, 0)
        if above > part + 1 or above == part + 1 and above % f == 0:
            x = pattern[part % period]
            pending[x] += 1 + (pattern[(part + 1) % period] == x and (
                above > part + 2 or above == part + 2 and above % f == 0))
        row, below, part = row - 1, part, above
    return good


def _cogood_rows(lam, kind: CrystalKind) -> list[int]:
    """Row of the cogood i-node for every residue i."""
    f, pattern, m = kind.strict_f, kind.column_pattern, kind.modulus
    period = len(pattern)
    cogood, pending, row, part, below = [0] * m, [0] * m, len(lam) + 1, 0, 0
    for above in (*reversed(lam), lam[0] + 3 if lam else 3):
        if part - 1 > below or part - 1 == below and below % f == 0:
            x = pattern[(part - 1) % period]
            pending[x] = max(pending[x] - 1 - (pattern[(part - 2) % period] == x and (
                part - 2 > below or part - 2 == below and below % f == 0)), 0)
        if above > part + 1 or above == part + 1 and above % f == 0:
            x = pattern[part % period]
            if not pending[x]:
                cogood[x] = row
            pending[x] += 1 + (pattern[(part + 1) % period] == x and (
                above > part + 2 or above == part + 2 and above % f == 0))
        row, below, part = row - 1, part, above
    return [seat if count else 0 for seat, count in zip(cogood, pending)]


def signature_report_twisted(lam: Partition, i, kind: CrystalKind) -> SignatureReport:
    """Signature of lam at residue i in the twisted reading order."""
    iv = _residue_value(i, kind.modulus)
    raw = tuple(entry for entry in node_scan(lam, kind)
                if entry.residue.value == iv)
    report = _signature(raw, [(entry, entry.letter) for entry in raw])
    if report.good is not None and report.good.tag != "R1":
        raise InternalConsistencyError(
            f"good node {report.good} of {lam} is not R1")
    if report.cogood is not None and report.cogood.tag != "A1":
        raise InternalConsistencyError(
            f"cogood node {report.cogood} of {lam} is not A1")
    return report


def _require_class(lam: Partition, kind: CrystalKind) -> None:
    if not in_crystal_class(lam, kind):
        cls = "restricted" if kind.is_odd else "double restricted"
        raise ValueError(f"{lam} is not a {cls} {kind.strict_f}-strict partition")


def _check_move(parts, row: int, kind: CrystalKind, add: bool) -> None:
    """Raise unless a box added at (or removed from) the end of row leaves a
    class member.  parts (a tuple or a list) is one, so only the two pairs
    the moved part makes with its neighbours can break the class rule."""
    f, bound = kind.strict_f, kind.strict_f * (1 if kind.is_odd else 2)
    new = (parts[row - 1] if row <= len(parts) else 0) + (1 if add else -1)
    if not (row <= len(parts) + 1 and _fits(new, parts[row] if row < len(parts) else 0, f, bound)
            and (row == 1 or _fits(parts[row - 2], new, f, bound))):
        move = "cogood addition" if add else "good removal"
        raise InternalConsistencyError(
            f"{move} left the class: {tuple(parts)} {'+' if add else '-'} row {row}")


def _moved(lam: Partition, row: int, kind: CrystalKind, add: bool) -> Partition | None:
    """lam with a box added at (removed from) the end of row, checked; None at row 0."""
    if row:
        _check_move(lam, row, kind, add)
    return _shifted(lam, row, 1 if add else -1)


def f_twisted(lam: Partition, i, kind: CrystalKind) -> Partition | None:
    """Lowering operator: add the cogood i-node (a single box), or None."""
    _require_class(lam, kind)
    return _moved(lam, _cogood_rows(lam, kind)[_residue_value(i, kind.modulus)], kind, True)


def e_twisted(lam: Partition, i, kind: CrystalKind) -> Partition | None:
    """Raising operator: remove the good i-node (a single box), or None."""
    _require_class(lam, kind)
    return _moved(lam, _good_rows(lam, kind)[_residue_value(i, kind.modulus)], kind, False)


def canonical_path_twisted(lam: Partition, kind: CrystalKind) -> tuple[int, ...]:
    """A residue word whose f_twisted replay from empty rebuilds lam; one
    letter per box, chosen by stripping good nodes at the smallest residue
    that has one."""
    _require_class(lam, kind)
    return _strip_good_nodes(lam, lambda parts: _good_rows(parts, kind), "class member",
                             lambda parts, row: _check_move(parts, row, kind, False))


def replay_twisted(word, kind: CrystalKind) -> Partition:
    """Apply f_twisted from the empty partition along a residue word."""
    return _replay(word, lambda parts, x: _cogood_rows(parts, kind)[x], kind.modulus,
                   lambda parts, row: _check_move(parts, row, kind, True))


def enumerate_twisted(kind: CrystalKind, max_depth: int) -> CrystalGraph:
    """Depths 0..max_depth of the twisted crystal with labeled edges.

    Depth equals box count since every lowering step adds one box.  Each
    BFS level is cross-checked against class_partitions, built from the
    class rules alone; a mismatch raises instead of being silently absorbed.
    """
    if max_depth < 0:
        raise ValueError(f"max_depth must be non-negative, got {max_depth}")
    moves = (lambda lam: _cogood_rows(lam, kind), lambda lam, row: _moved(lam, row, kind, True))
    return _crystal_graph(moves, kind.modulus, max_depth,
                          lambda n: class_partitions(n, kind),
                          f"class_partitions at {kind.parity} ell={kind.ell}")
