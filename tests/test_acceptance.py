"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time

import pytest
from helpers import all_partitions, unfold_by_largest, unfold_walk

from test_cli import COMMANDS, run_cli

from mullineux.bijections import distinct_to_symmetric, symmetric_to_distinct
from mullineux.characters import character_series, verify_identity
from mullineux.folding import check_fold_relations, fold_cartan, unfold
from mullineux.involution import (
    fixed_set,
    irr_alternating_count,
    mullineux,
    mullineux_map,
)
from mullineux.partitions import (
    CrystalKind,
    conjugate,
    e_regular_partitions,
    has_distinct_parts,
    is_symmetric,
    residue_twisted,
    residue_type_a,
)
from mullineux.twisted import class_partitions, enumerate_twisted
from mullineux.typea import signature_report

ALL_E = (2, 3, 4, 5, 6)
SMALL_ELLS = (1, 2, 3)


class criterion:
    def __init__(self, number, title):
        self.number = number
        self.title = title

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number}: {status} - {self.title}")
        return False


def kind_for(e):
    return CrystalKind.odd(e // 2) if e % 2 else CrystalKind.even(e // 2)


def test_c1_worked_signature_example():
    with criterion(1, "0-signature of (9,9,8,7,5,3,1) at e=3 is AARRRR, good (7,1)"):
        lam = (9, 9, 8, 7, 5, 3, 1)
        report = signature_report(lam, 0, 3)
        assert report.letters == "AARRRR"
        assert report.good == (7, 1)
        best = min(
            _timed(lambda: signature_report(lam, 0, 3)) for _ in range(200))
        assert best < 1e-3, f"signature took {best * 1e3:.3f} ms"


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


TYPEA_TABLE = [
    [0, 1, 2, 0, 1, 2, 0, 1, 2],
    [2, 0, 1, 2, 0, 1, 2, 0, 1],
    [1, 2, 0, 1, 2, 0, 1, 2],
    [0, 1, 2, 0, 1, 2, 0],
    [2, 0, 1, 2, 0],
    [1, 2, 0],
    [0],
]
ODD2_TABLE = [
    [0, 1, 2, 1, 0, 0, 1, 2, 1, 0],
    [0, 1, 2, 1, 0, 0, 1, 2, 1, 0],
    [0, 1, 2, 1, 0, 0],
    [0],
]
EVEN2_TABLE = [
    [0, 1, 2, 2, 1, 0, 0, 1, 2],
    [0, 1, 2, 2, 1, 0, 0, 1, 2],
    [0, 1, 2, 2, 1, 0, 0],
    [0],
]


def test_c2_residue_tables():
    with criterion(2, "printed residue tables reproduced cell-for-cell"):
        lam = (9, 9, 8, 7, 5, 3, 1)
        assert [[residue_type_a((r, c), 3).value for c in range(1, part + 1)]
                for r, part in enumerate(lam, start=1)] == TYPEA_TABLE
        odd2 = CrystalKind.odd(2)
        assert [[residue_twisted(c, odd2).value for c in range(1, part + 1)]
                for part in (10, 10, 6, 1)] == ODD2_TABLE
        even2 = CrystalKind.even(2)
        assert [[residue_twisted(c, even2).value for c in range(1, part + 1)]
                for part in (9, 9, 7, 1)] == EVEN2_TABLE


def test_c3_folded_cartan_matrices():
    with criterion(3, "folded Cartan matrices for e in {2,3,4,5}"):
        assert fold_cartan(2).matrix == ((2, -2), (-2, 2))
        assert fold_cartan(3).matrix == ((2, -4), (-1, 2))
        assert fold_cartan(4).matrix == ((2, -2, 0), (-1, 2, -1), (0, -2, 2))
        assert fold_cartan(5).matrix == ((2, -2, 0), (-1, 2, -2), (0, -1, 2))


def test_c4_mullineux_suite():
    with criterion(4, "involution/path-independence/degeneration suite, |lam| <= 12"):
        start = time.monotonic()
        for e in ALL_E:
            images = mullineux_map(e, 12)
            for lam, image in images.items():
                assert images[image] == lam, f"not an involution at {lam} (e={e})"
                assert mullineux(lam, e) == image
                if sum(lam) < e:
                    assert image == conjugate(lam)
                if e == 2:
                    assert image == lam
        elapsed = time.monotonic() - start
        assert elapsed <= 60, f"suite took {elapsed:.1f}s"


def test_c5_crystal_identification():
    with criterion(5, "BFS sets equal predicate classes and census matches series"):
        for ell in SMALL_ELLS:
            for kind in (CrystalKind.odd(ell), CrystalKind.even(ell)):
                graph = enumerate_twisted(kind, 12)  # raises on any BFS/filter gap
                for depth, level in enumerate(graph.levels):
                    assert list(level) == class_partitions(depth, kind)
                series = character_series(kind, 12)
                assert graph.level_sizes() == series
        assert enumerate_twisted(CrystalKind.odd(1), 6).level_sizes() == \
            (1, 1, 1, 1, 1, 2, 2)
        for ell in SMALL_ELLS:
            assert enumerate_twisted(CrystalKind.even(ell), 6).level_sizes() == \
                (1, 1, 1, 2, 2, 3, 4)


def test_c6_folding_suite():
    with criterion(6, "unfold images fixed+injective with exact relations; "
                      "fixed partitions of size <= 14 all reached"):
        start = time.monotonic()
        for ell in SMALL_ELLS:
            for kind in (CrystalKind.odd(ell), CrystalKind.even(ell)):
                images = {}
                for depth in range(9):
                    for lam in class_partitions(depth, kind):
                        report = check_fold_relations(lam, kind)
                        assert report.ok, (kind, lam,
                                           [c for c in report.checks if not c.passed])
                        assert mullineux(report.image, kind.e) == report.image
                        images[lam] = report.image
                assert len(set(images.values())) == len(images), f"{kind} not injective"
        for e in ALL_E:
            kind = kind_for(e)
            table = mullineux_map(e, 14)
            fixed = {lam for lam, img in table.items() if img == lam}
            reached = set()
            for depth in range(15):
                for lam in class_partitions(depth, kind):
                    image = unfold(lam, kind)
                    if sum(image) <= 14:
                        reached.add(image)
            assert fixed <= reached, f"e={e}: missing {sorted(fixed - reached)[:3]}"
        elapsed = time.monotonic() - start
        assert elapsed <= 300, f"suite took {elapsed:.1f}s"


@pytest.mark.parametrize("e, max_size", [(3, 56), (5, 48), (4, 40), (7, 40)])
def test_c6_unfold_walk_meets_the_symbol_route(e, max_size):
    # The paper's bijection size by size: the images of the pruned twisted
    # walk are exactly the fixed points that fixed_set lists from Mullineux
    # symbols (and, to 20 boxes, those of the brute-force map), and each is
    # the unfold of its vertex and the replay of its largest-residue word.
    kind = kind_for(e)
    images = unfold_walk(kind, max_size)
    for n in range(max_size + 1):
        level = sorted(image for image in images.values() if sum(image) == n)
        assert level == fixed_set(e, n), n
    brute = mullineux_map(e, 20)
    assert sorted(image for image in images.values() if sum(image) <= 20) == sorted(
        lam for lam, image in brute.items() if image == lam)
    for lam, image in images.items():
        assert unfold(lam, kind) == unfold_by_largest(lam, kind) == image, lam


def test_c7_counting_identities():
    with criterion(7, "series = crystal census = fixed-point sums "
                      "(odd to degree 8, even to degree 10)"):
        for kind, degree in ((CrystalKind.odd(1), 8), (CrystalKind.odd(2), 8),
                             (CrystalKind.even(1), 10), (CrystalKind.even(2), 10)):
            report = verify_identity(kind, degree)
            assert report.ok, report.first_failure()
            for row in report.rows:
                assert row.lhs == row.rhs_counts == row.rhs_crystal


def test_c8_bijection_suite():
    with criterion(8, "distinct<->symmetric round trips to sizes 20/25 with spot values"):
        assert distinct_to_symmetric((2, 1)) == (2, 2)
        assert distinct_to_symmetric((4, 2, 1)) == (4, 3, 3, 1)
        for n in range(21):
            for lam in all_partitions(n):
                if not has_distinct_parts(lam):
                    continue
                mu = distinct_to_symmetric(lam)
                assert is_symmetric(mu)
                assert symmetric_to_distinct(mu) == lam
        for n in range(26):
            for mu in all_partitions(n):
                if mu != conjugate(mu):
                    continue
                lam = symmetric_to_distinct(mu)
                assert has_distinct_parts(lam)
                assert distinct_to_symmetric(lam) == mu


def test_c9_alternating_count():
    with criterion(9, "alternating-group counts and integrality"):
        assert irr_alternating_count(3, 5) == 4
        assert irr_alternating_count(3, 2) == 1
        for e in ALL_E:
            for n in range(1, 13):
                count = irr_alternating_count(e, n)
                assert count >= 1
                assert 2 * count == len(e_regular_partitions(n, e)) + \
                    3 * sum(1 for lam in e_regular_partitions(n, e)
                            if mullineux(lam, e) == lam)


def test_c10_cli_determinism(tmp_path):
    with criterion(10, "every CLI command is byte-identical across runs, and verify "
                       "across cache-cold/cache-warm executions"):
        for args in COMMANDS:
            cold = run_cli(args, tmp_path)
            assert cold.returncode == 0, (args, cold.stderr)
            warm = run_cli(args, tmp_path)
            assert warm.returncode == 0, (args, warm.stderr)
            assert cold.stdout == warm.stdout, args
