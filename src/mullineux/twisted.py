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
    StrictClass,
    is_strict,
    is_strict_class,
    partitions_of,
    residue_twisted,
)
from .typea import (
    CrystalGraph,
    SignatureReport,
    _add_boxes,
    _crystal_graph,
    _remove_boxes,
    _replay,
    _residue_order,
    _residue_value,
    _signature,
)

REMOVABLE_TAGS = ("R1", "R2")


@dataclass(frozen=True)
class TwistedNode:
    """A removable/addable box candidate with its pairing tag and residue."""

    node: Node
    tag: str
    residue: Residue

    @property
    def letter(self) -> str:
        return "R" if self.tag in REMOVABLE_TAGS else "A"


def in_crystal_class(lam: Partition, kind: CrystalKind) -> bool:
    """Membership in the kind's vertex class: restricted e-strict partitions
    for the odd kind, double restricted (ell+1)-strict for the even kind."""
    cls = StrictClass.RESTRICTED if kind.is_odd else StrictClass.DOUBLE_RESTRICTED
    return is_strict_class(lam, kind.strict_f, cls)


def class_partitions(n: int, kind: CrystalKind) -> list[Partition]:
    """The class members of size n, sorted lexicographically."""
    return sorted(p for p in partitions_of(n) if in_crystal_class(p, kind))


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
    out: list[TwistedNode] = []
    for row in range(len(lam) + 1, 0, -1):
        part = lam[row - 1] if row <= len(lam) else 0
        if row <= len(lam):
            single = _remove_boxes(lam, row, 1)
            single_ok = single is not None and is_strict(single, f)
            if part >= 2:
                double = _remove_boxes(lam, row, 2)
                if (single_ok and double is not None and is_strict(double, f)
                        and residue_twisted(part - 1, kind) == residue_twisted(part, kind)):
                    out.append(TwistedNode((row, part - 1), "R2",
                                           residue_twisted(part - 1, kind)))
            if single_ok:
                out.append(TwistedNode((row, part), "R1",
                                       residue_twisted(part, kind)))
        plus_one = _add_boxes(lam, row, 1)
        plus_one_ok = plus_one is not None and is_strict(plus_one, f)
        if plus_one_ok:
            out.append(TwistedNode((row, part + 1), "A1",
                                   residue_twisted(part + 1, kind)))
        plus_two = _add_boxes(lam, row, 2)
        if (plus_one_ok and plus_two is not None and is_strict(plus_two, f)
                and residue_twisted(part + 1, kind) == residue_twisted(part + 2, kind)):
            out.append(TwistedNode((row, part + 2), "A2",
                                   residue_twisted(part + 2, kind)))
    return tuple(out)


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


def f_twisted(lam: Partition, i, kind: CrystalKind) -> Partition | None:
    """Lowering operator: add the cogood i-node (a single box), or None."""
    _require_class(lam, kind)
    report = signature_report_twisted(lam, i, kind)
    if report.cogood is None:
        return None
    result = _add_boxes(lam, report.cogood.node[0], 1)
    if result is None or not in_crystal_class(result, kind):
        raise InternalConsistencyError(
            f"cogood addition left the class: {lam} + {report.cogood.node}")
    return result


def e_twisted(lam: Partition, i, kind: CrystalKind) -> Partition | None:
    """Raising operator: remove the good i-node (a single box), or None."""
    _require_class(lam, kind)
    report = signature_report_twisted(lam, i, kind)
    if report.good is None:
        return None
    result = _remove_boxes(lam, report.good.node[0], 1)
    if result is None or not in_crystal_class(result, kind):
        raise InternalConsistencyError(
            f"good removal left the class: {lam} - {report.good.node}")
    return result


def canonical_path_twisted(lam: Partition, kind: CrystalKind,
                           tie_break: str = "min") -> tuple[int, ...]:
    """A residue word whose f_twisted replay from empty rebuilds lam; one
    letter per box, chosen by stripping good nodes at the first residue (in
    tie_break order) that has one."""
    _require_class(lam, kind)
    order = _residue_order(kind.modulus, tie_break)
    word = []
    cur = lam
    while cur:
        for x in order:
            nxt = e_twisted(cur, x, kind)
            if nxt is not None:
                word.append(x)
                cur = nxt
                break
        else:
            raise InternalConsistencyError(
                f"nonempty class member {cur} has no good node")
    word.reverse()
    return tuple(word)


def replay_twisted(word, kind: CrystalKind) -> Partition:
    """Apply f_twisted from the empty partition along a residue word."""
    return _replay(word, lambda lam, x: f_twisted(lam, x, kind), kind.modulus)


def enumerate_twisted(kind: CrystalKind, max_depth: int) -> CrystalGraph:
    """Depths 0..max_depth of the twisted crystal with labeled edges.

    Depth equals box count since every lowering step adds one box.  Each
    BFS level is cross-checked against the class predicate filter; a
    mismatch raises instead of being silently absorbed.
    """
    if max_depth < 0:
        raise ValueError(f"max_depth must be non-negative, got {max_depth}")
    return _crystal_graph(lambda lam, x: f_twisted(lam, x, kind), kind.modulus, max_depth,
                          lambda n: class_partitions(n, kind), f"{kind.parity} ell={kind.ell}")
