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

from .partitions import (
    CrystalKind,
    InternalConsistencyError,
    Node,
    Partition,
    Residue,
    _top_down,
    is_double_restricted_strict,
    is_restricted_strict,
    is_strict,
)
from .typea import (
    CrystalGraph,
    SignatureReport,
    _add_box,
    _crystal_graph,
    _lowering,
    _remove_box,
    _replay,
    _residue_value,
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
    mirror condition for additions.
    """
    f = kind.strict_f
    if not is_strict(lam, f):
        raise ValueError(f"{lam} is not {f}-strict")
    return tuple(TwistedNode(node, tag, Residue(x, kind.modulus))
                 for node, tag, x in _scan(lam, kind))


def _fits(upper: int, lower: int, f: int) -> bool:
    # Adjacent parts upper >= lower of an f-strict partition, equal only
    # when f divides them.
    return upper > lower or (upper == lower and upper % f == 0)


def _scan(lam: Partition, kind: CrystalKind) -> list[tuple[Node, str, int]]:
    """node_scan as (node, tag, residue value) triples.  Unchecked: lam must
    be f-strict, so a one- or two-box move at the end of a row keeps it
    f-strict exactly when the moved part still fits its neighbours."""
    f, pattern = kind.strict_f, kind.column_pattern
    parts = (lam[0] + 3 if lam else 3,) + lam + (0, 0)
    out = []
    for row in range(len(lam) + 1, 0, -1):
        above, part, below = parts[row - 1:row + 2]
        res = [pattern[(col - 1) % len(pattern)] for col in range(part - 1, part + 3)]
        if part and _fits(part - 1, below, f):
            if part >= 2 and _fits(part - 2, below, f) and res[0] == res[1]:
                out.append(((row, part - 1), "R2", res[0]))
            out.append(((row, part), "R1", res[1]))
        if _fits(above, part + 1, f):
            out.append(((row, part + 1), "A1", res[2]))
            if _fits(above, part + 2, f) and res[2] == res[3]:
                out.append(((row, part + 2), "A2", res[3]))
    return out


def _good_cogood_rows(lam: Partition, kind: CrystalKind) -> list[list[int]]:
    """Rows of the good and of the cogood i-node for every residue i (0 when
    there is none), from one node scan of a class member, selected as in
    typea._normal_conormal_rows; the good node must be R1, the cogood node A1."""
    m = kind.modulus
    good, cogood, pending = [None] * m, [None] * m, [0] * m
    for entry in _scan(lam, kind):
        x = entry[2]
        if entry[1][0] == "A":
            if not pending[x]:
                cogood[x] = entry
            pending[x] += 1
        elif pending[x]:
            pending[x] -= 1
        else:
            good[x] = entry
    cogood = [entry if count else None for entry, count in zip(cogood, pending)]
    rows = []
    for name, tag, entries in (("good", "R1", good), ("cogood", "A1", cogood)):
        for entry in entries:
            if entry and entry[1] != tag:
                raise InternalConsistencyError(f"{name} node {entry[0]} of {lam} is not {tag}")
        rows.append([entry[0][0] if entry else 0 for entry in entries])
    return rows


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


def _moved(lam: Partition, row: int, kind: CrystalKind, add: bool) -> Partition | None:
    """lam with a box added at (or removed from) the end of row, which must
    leave a class member; None when row is 0."""
    result = (_add_box if add else _remove_box)(lam, row)
    if row and (result is None or not in_crystal_class(result, kind)):
        move = "cogood addition" if add else "good removal"
        raise InternalConsistencyError(
            f"{move} left the class: {lam} {'+' if add else '-'} row {row}")
    return result


def _f_lowering(kind: CrystalKind):
    return _lowering(lambda lam: _good_cogood_rows(lam, kind)[1],
                     lambda lam, row: _moved(lam, row, kind, True))


def f_twisted(lam: Partition, i, kind: CrystalKind) -> Partition | None:
    """Lowering operator: add the cogood i-node (a single box), or None."""
    _require_class(lam, kind)
    row = _good_cogood_rows(lam, kind)[1][_residue_value(i, kind.modulus)]
    return _moved(lam, row, kind, True)


def e_twisted(lam: Partition, i, kind: CrystalKind) -> Partition | None:
    """Raising operator: remove the good i-node (a single box), or None."""
    _require_class(lam, kind)
    row = _good_cogood_rows(lam, kind)[0][_residue_value(i, kind.modulus)]
    return _moved(lam, row, kind, False)


def canonical_path_twisted(lam: Partition, kind: CrystalKind,
                           tie_break: str = "min") -> tuple[int, ...]:
    """A residue word whose f_twisted replay from empty rebuilds lam; one
    letter per box, chosen by stripping good nodes at the first residue (in
    tie_break order) that has one."""
    _require_class(lam, kind)
    return _strip_good_nodes(lam, lambda cur: _good_cogood_rows(cur, kind)[0],
                             lambda cur, row: _moved(cur, row, kind, False),
                             kind.modulus, tie_break, "class member")


def replay_twisted(word, kind: CrystalKind) -> Partition:
    """Apply f_twisted from the empty partition along a residue word."""
    return _replay(word, _f_lowering(kind), kind.modulus)


def enumerate_twisted(kind: CrystalKind, max_depth: int) -> CrystalGraph:
    """Depths 0..max_depth of the twisted crystal with labeled edges.

    Depth equals box count since every lowering step adds one box.  Each
    BFS level is cross-checked against class_partitions, built from the
    class rules alone; a mismatch raises instead of being silently absorbed.
    """
    if max_depth < 0:
        raise ValueError(f"max_depth must be non-negative, got {max_depth}")
    return _crystal_graph(_f_lowering(kind), kind.modulus, max_depth,
                          lambda n: class_partitions(n, kind),
                          f"class_partitions at {kind.parity} ell={kind.ell}")
