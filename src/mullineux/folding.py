"""Diagram folding: folded Cartan matrices, residue-block expansion, and the
embedding of twisted-crystal vertices onto Mullineux-fixed partitions.

The degree-e affine type A Cartan matrix is folded along the involution
fixing 0 and swapping i with e - i.  A residue word in the twisted crystal
expands letter by letter into a type A residue word (one block per letter,
in the printed block order), and replaying the expansion builds a
Mullineux-fixed partition.  A replay step with no cogood node would
contradict the construction and raises instead of being skipped.
"""

from __future__ import annotations

from dataclasses import dataclass

from .partitions import (
    CrystalKind,
    InternalConsistencyError,
    Partition,
    residue_counts,
)
from .twisted import canonical_path_twisted
from .typea import ReplayError, replay_path


def affine_type_a_cartan(e: int) -> tuple[tuple[int, ...], ...]:
    """Affine Cartan matrix on e node labels (cyclic neighbours off-diagonal);
    the degenerate e=2 case has -2 in both off-diagonal slots."""
    if e < 2:
        raise ValueError(f"e must be at least 2, got {e}")
    if e == 2:
        return ((2, -2), (-2, 2))
    rows = []
    for i in range(e):
        row = [0] * e
        row[i] = 2
        row[(i + 1) % e] = -1
        row[(i - 1) % e] = -1
        rows.append(tuple(row))
    return tuple(rows)


@dataclass(frozen=True)
class FoldedCartan:
    """Folded matrix over orbit representatives 0..ell, with orbit data."""

    e: int
    ell: int
    matrix: tuple[tuple[int, ...], ...]
    orbit_sizes: tuple[int, ...]
    c_diag: tuple[int, ...]


def fold_cartan(e: int) -> FoldedCartan:
    """Fold the degree-e affine type A matrix along 0 <-> 0, i <-> e - i."""
    a = affine_type_a_cartan(e)

    def omega(i: int) -> int:
        return 0 if i == 0 else e - i

    for i in range(e):
        for j in range(e):
            if a[omega(i)][omega(j)] != a[i][j]:
                raise InternalConsistencyError(
                    f"folding involution is not a diagram automorphism at ({i},{j})")

    ell = e // 2
    reps = range(ell + 1)
    orbit_sizes = tuple(1 if omega(j) == j else 2 for j in reps)
    c = [[sum(a[i][j] for j in ({j0} | {omega(j0)}))
          for j0 in reps] for i in reps]
    c_diag = tuple(c[i][i] for i in reps)
    if any(v <= 0 for v in c_diag):
        raise InternalConsistencyError(
            f"non-positive orbit diagonal {c_diag} for e={e}")
    matrix = []
    for i in reps:
        row = []
        for j in reps:
            num = 2 * c[i][j]
            if num % c_diag[j]:
                raise InternalConsistencyError(
                    f"folded entry ({i},{j}) is not integral for e={e}")
            row.append(num // c_diag[j])
        matrix.append(tuple(row))
    return FoldedCartan(e, ell, tuple(matrix), orbit_sizes, c_diag)


def expand_residue(r, kind: CrystalKind) -> tuple[int, ...]:
    """Type A residue block replacing one twisted-crystal letter.

    Odd kind (e = 2*ell + 1): 0 stays a single arrow, a middle letter r
    becomes (r, e - r), and ell becomes (ell+1, ell, ell, ell+1).  Even kind
    (e = 2*ell): 0 and ell stay single arrows, a middle letter r becomes
    (r, e - r).
    """
    ell = kind.ell
    rv = int(r)
    if not 0 <= rv <= ell:
        raise ValueError(f"residue {rv} out of range 0..{ell}")
    if rv == 0 or rv == ell and not kind.is_odd:
        return (rv,)
    if rv == ell:
        return (ell + 1, ell, ell, ell + 1)
    return (rv, kind.e - rv)


def expand_word(word, kind: CrystalKind) -> tuple[int, ...]:
    """Concatenate the blocks of a twisted residue word, preserving order."""
    return tuple([x for r in word for x in expand_residue(r, kind)])


def unfold(lam: Partition, kind: CrystalKind) -> Partition:
    """Image of a twisted-crystal vertex in the type A good-node lattice.

    Expands a residue word for lam block by block and replays it by cogood
    addition from the empty partition; the result is Mullineux-fixed.
    """
    return _unfold(lam, kind)[1]


def _unfold(lam: Partition, kind: CrystalKind) -> tuple[tuple, Partition]:
    """The residue word of lam and the cogood replay of its block expansion."""
    word = canonical_path_twisted(lam, kind)
    try:
        return word, replay_path(expand_word(word, kind), kind.e)
    except ReplayError as exc:
        raise InternalConsistencyError(
            f"block expansion of {lam} ({kind.parity}, ell={kind.ell}) "
            f"failed to replay: {exc}") from exc


@dataclass(frozen=True)
class FoldCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class FoldReport:
    """Per-assertion outcome of the counting relations tied to unfolding."""

    source: Partition
    kind: CrystalKind
    word: tuple[int, ...]
    image: Partition
    checks: tuple[FoldCheck, ...]

    @property
    def ok(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_dict(self) -> dict:
        return {
            "source": list(self.source),
            "kind": self.kind.parity,
            "ell": self.kind.ell,
            "word": list(self.word),
            "image": list(self.image),
            "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                       for c in self.checks],
            "ok": self.ok,
        }


def _expected_residue_count(i: int, kind: CrystalKind, letter_counts) -> int:
    """a_i below ell, a_{e-i} above it, and at ell a_ell (even kind) or, at
    ell and ell + 1, 2 a_ell (odd kind)."""
    if kind.is_odd and i in (kind.ell, kind.ell + 1):
        return 2 * letter_counts[kind.ell]
    return letter_counts[min(i, kind.e - i)]


def check_fold_relations(lam: Partition, kind: CrystalKind) -> FoldReport:
    """Verify the residue tallies and size bookkeeping of the unfolded image.

    With n boxes in lam and a_r occurrences of letter r in its residue word,
    the image has residue profile determined coordinate-wise by the letter
    counts, and size 2n - a_0 + 2*a_ell (odd kind) or 2n - a_0 - a_ell
    (even kind); the middle tallies of the odd kind agree and are even, and
    the stated size/count parities hold.
    """
    word, image = _unfold(lam, kind)
    n = sum(lam)
    counts = tuple([word.count(r) for r in range(kind.modulus)])
    profile = residue_counts(image, kind.e)
    size = sum(image)
    ell = kind.ell

    checks = []
    for i in range(kind.e):
        expected = _expected_residue_count(i, kind, counts)
        checks.append(FoldCheck(
            f"residue_count_{i}", profile[i] == expected,
            f"N_{i}(image)={profile[i]}, expected {expected} from letter counts"))
    if kind.is_odd:
        checks.append(FoldCheck(
            "middle_counts_equal",
            profile[ell] == profile[ell + 1] == 2 * counts[ell],
            f"N_{ell}={profile[ell]}, N_{ell + 1}={profile[ell + 1]}, "
            f"2*a_{ell}={2 * counts[ell]}"))
        checks.append(FoldCheck(
            "middle_count_even", profile[ell] % 2 == 0,
            f"N_{ell}={profile[ell]}"))
        checks.append(FoldCheck(
            "size_minus_zero_count_even", (size - profile[0]) % 2 == 0,
            f"|image|-N_0={size - profile[0]}"))
        expected_size = 2 * n - counts[0] + 2 * counts[ell]
        checks.append(FoldCheck(
            "size_identity", size == expected_size,
            f"|image|={size}, 2n-a_0+2a_{ell}={expected_size}"))
    else:
        expected_size = 2 * n - counts[0] - counts[ell]
        checks.append(FoldCheck(
            "size_identity", size == expected_size,
            f"|image|={size}, 2n-a_0-a_{ell}={expected_size}"))
        checks.append(FoldCheck(
            "size_minus_end_counts_even",
            (size - profile[0] - profile[ell]) % 2 == 0,
            f"|image|-N_0-N_{ell}={size - profile[0] - profile[ell]}"))
    return FoldReport(lam, kind, word, image, tuple(checks))
