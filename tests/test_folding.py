import pytest
from helpers import unfold_by_largest

from mullineux import folding
from mullineux.folding import (
    affine_type_a_cartan,
    check_fold_relations,
    expand_residue,
    expand_word,
    fold_cartan,
    unfold,
)
from mullineux.involution import mullineux
from mullineux.partitions import CrystalKind, residue_counts
from mullineux.twisted import class_partitions

ODD1, ODD2 = CrystalKind.odd(1), CrystalKind.odd(2)
EVEN1, EVEN2 = CrystalKind.even(1), CrystalKind.even(2)

FOLDED = {
    2: ((2, -2), (-2, 2)),
    3: ((2, -4), (-1, 2)),
    4: ((2, -2, 0), (-1, 2, -1), (0, -2, 2)),
    5: ((2, -2, 0), (-1, 2, -2), (0, -1, 2)),
}


def test_affine_cartan_shape():
    assert affine_type_a_cartan(2) == ((2, -2), (-2, 2))
    a = affine_type_a_cartan(5)
    for i in range(5):
        assert a[i][i] == 2
        for j in range(5):
            expected = -1 if (i - j) % 5 in (1, 4) else (2 if i == j else 0)
            assert a[i][j] == expected


@pytest.mark.parametrize("e", sorted(FOLDED))
def test_folded_matrices(e):
    folded = fold_cartan(e)
    assert folded.matrix == FOLDED[e]
    assert folded.ell == e // 2


@pytest.mark.parametrize("e", range(2, 11))
def test_folded_matrix_is_generalized_cartan(e):
    mat = fold_cartan(e).matrix
    size = len(mat)
    for i in range(size):
        assert mat[i][i] == 2
        for j in range(size):
            if i != j:
                assert mat[i][j] <= 0
                assert (mat[i][j] == 0) == (mat[j][i] == 0)


def test_orbit_data():
    folded = fold_cartan(5)
    assert folded.orbit_sizes == (1, 2, 2)
    assert folded.c_diag == (2, 2, 1)
    assert fold_cartan(4).orbit_sizes == (1, 2, 1)
    assert fold_cartan(2).orbit_sizes == (1, 1)


def test_expand_residue():
    assert expand_residue(2, ODD2) == (3, 2, 2, 3)
    assert expand_residue(1, EVEN2) == (1, 3)
    assert expand_residue(0, ODD2) == (0,)
    assert expand_residue(0, EVEN2) == (0,)
    assert expand_residue(1, ODD1) == (2, 1, 1, 2)
    assert expand_residue(1, EVEN1) == (1,)
    assert expand_residue(2, EVEN2) == (2,)
    with pytest.raises(ValueError):
        expand_residue(3, ODD2)


def test_expand_word_preserves_block_order():
    assert expand_word((0, 1), ODD1) == (0, 2, 1, 1, 2)
    assert expand_word((0, 1, 2), EVEN2) == (0, 1, 3, 2)


def test_unfold_spot_values():
    assert unfold((), ODD1) == ()
    assert unfold((1,), ODD1) == (1,)
    image = unfold((2,), ODD1)
    assert image == (3, 1, 1)
    assert mullineux(image, 3) == image


@pytest.mark.parametrize("kind", (ODD1, ODD2, EVEN1, EVEN2))
def test_unfold_is_path_independent(kind):
    for n in range(9):
        for lam in class_partitions(n, kind):
            assert unfold(lam, kind) == unfold_by_largest(lam, kind)


@pytest.mark.parametrize("kind", (ODD1, ODD2, CrystalKind.odd(3),
                                  EVEN1, EVEN2, CrystalKind.even(3)))
def test_images_fixed_injective_and_relations_hold(kind):
    images = {}
    for n in range(9):
        for lam in class_partitions(n, kind):
            report = check_fold_relations(lam, kind)
            assert report.ok, [c for c in report.checks if not c.passed]
            image = report.image
            assert mullineux(image, kind.e) == image
            images[lam] = image
    assert len(set(images.values())) == len(images)


def test_check_fold_relations_examples():
    report = check_fold_relations((2,), ODD1)
    assert report.image == (3, 1, 1)
    assert residue_counts(report.image, 3) == (1, 2, 2)
    assert sum(report.image) == 2 * 2 - 1 + 2 * 1
    assert report.ok

    report = check_fold_relations((1,), EVEN2)
    assert report.image == (1,) and report.ok

    report = check_fold_relations((2, 1), ODD1)
    assert report.word == (0, 1, 0)
    assert sum(report.image) == 2 * 3 - 2 + 2 * 1
    assert report.ok


def test_report_serializes():
    blob = check_fold_relations((2, 1), ODD1).to_dict()
    assert blob["ok"] is True
    assert blob["image"] == [4, 1, 1]
    assert {c["name"] for c in blob["checks"]} >= {"size_identity"}


@pytest.mark.parametrize("kind", (ODD1, ODD2, EVEN1, EVEN2))
def test_fold_check_strips_its_vertex_once(kind, monkeypatch):
    calls = []
    path = folding.canonical_path_twisted

    def counted(*args, **kwargs):
        calls.append(args)
        return path(*args, **kwargs)

    for n in range(8):
        for lam in class_partitions(n, kind):
            image = unfold(lam, kind)
            monkeypatch.setattr(folding, "canonical_path_twisted", counted)
            calls.clear()
            report = check_fold_relations(lam, kind)
            assert len(calls) == 1, lam
            monkeypatch.undo()
            assert report.image == image and report.word == path(lam, kind)
