import pytest
from helpers import (
    expand_residue,
    expand_word,
    fixed_column,
    peeled_symbol,
    string_length,
    twisted_content,
    unfold_by_largest,
    unfold_by_replay,
)

from mullineux import folding, twisted, typea
from mullineux.folding import (
    affine_type_a_cartan,
    check_fold_relations,
    fold_cartan,
    unfold,
)
from mullineux.involution import _fixed_columns, mullineux
from mullineux.partitions import CrystalKind, _fits, e_regular_partitions, residue_counts
from mullineux.twisted import (
    canonical_path_twisted,
    class_partitions,
    e_twisted,
    enumerate_twisted,
    f_twisted,
    in_crystal_class,
    signature_report_twisted,
)
from mullineux.typea import add_cogood, signature_report

ODD1, ODD2 = CrystalKind.odd(1), CrystalKind.odd(2)
EVEN1, EVEN2 = CrystalKind.even(1), CrystalKind.even(2)
# Largest size at which every class member is unfolded both ways, per kind.
REPLAY_SIZES = {ODD1: 24, ODD2: 22, EVEN1: 22, EVEN2: 20, CrystalKind.odd(3): 20,
                CrystalKind.odd(5): 20, CrystalKind.even(3): 20, CrystalKind.even(5): 18}

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


@pytest.mark.parametrize("kind", REPLAY_SIZES)
def test_unfold_is_path_independent(kind):
    # The symbol relabelling equals the paper's construction, the block
    # expansion replayed from the smallest- and from the largest-residue
    # word, and peeling its image gives back the columns c(p) of the parts.
    for n in range(REPLAY_SIZES[kind] + 1):
        for lam in class_partitions(n, kind):
            image = unfold(lam, kind)
            assert image == unfold_by_largest(lam, kind), lam
            assert image == unfold_by_replay(canonical_path_twisted(lam, kind), kind), lam
            assert peeled_symbol(image, kind.e) == tuple(fixed_column(p, kind.e) for p in lam)


@pytest.mark.parametrize("kind", REPLAY_SIZES)
def test_the_class_rule_is_the_fixed_column_rule(kind):
    # Parts p, q fit exactly when c(p) may sit just outside c(q) (for q = 0,
    # the terminator): the twisted and the symbol leg of verify read one rule.
    f = kind.strict_f
    bound = f if kind.is_odd else 2 * f
    columns = _fixed_columns(kind.e, fixed_column(60, kind.e)[0])
    for q in range(61):
        outside = {(a, rows) for rows, a, *_ in columns[fixed_column(q, kind.e)[1]]}
        for p in range(1, 61):
            assert _fits(p, q, f, bound) == (fixed_column(p, kind.e) in outside), (p, q)


@pytest.mark.parametrize("kind", (ODD1, EVEN1))
def test_non_int_parts_are_not_class_members(kind):
    assert not in_crystal_class((2.0,), kind)
    for call in (unfold, check_fold_relations, canonical_path_twisted,
                 lambda lam, kind: f_twisted(lam, 0, kind)):
        with pytest.raises(ValueError, match=r"^\(2\.0,\) is not a "):
            call((2.0,), kind)


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
    # unfold neither strips nor replays; the check strips once, for its word.
    calls, strips = [], []
    path, strip = folding._strip, twisted._strip_good_nodes

    def counted(*args, **kwargs):
        calls.append(args)
        return path(*args, **kwargs)

    def counted_strip(*args):
        strips.append(args)
        return strip(*args)

    def refuse(*args):
        raise AssertionError("a residue word was replayed")

    for n in range(8):
        for lam in class_partitions(n, kind):
            image = unfold(lam, kind)
            monkeypatch.setattr(folding, "_strip", counted)
            monkeypatch.setattr(twisted, "_strip_good_nodes", counted_strip)
            monkeypatch.setattr(twisted, "_replay", refuse)
            monkeypatch.setattr(typea, "_replay", refuse)
            calls.clear()
            strips.clear()
            assert unfold(lam, kind) == image
            assert not calls and not strips, lam
            report = check_fold_relations(lam, kind)
            assert len(calls) == len(strips) == 1, lam
            monkeypatch.undo()
            assert report.image == image
            assert report.word == canonical_path_twisted(lam, kind)


@pytest.mark.parametrize("kind, lam, message", [
    (ODD1, (1, 1), "(1, 1) is not a restricted 3-strict partition"),
    (ODD1, (5, 1), "(5, 1) is not a restricted 3-strict partition"),
    (EVEN1, (6, 1), "(6, 1) is not a double restricted 2-strict partition"),
    (EVEN2, (2, 2), "(2, 2) is not a double restricted 3-strict partition"),
], ids=("odd1-equal", "odd1-drop", "even1-drop", "even2-equal"))
def test_fold_check_validates_its_vertex_once(kind, lam, message, monkeypatch):
    # one class check at the boundary, whose message names the vertex and
    # the class; the strip and unfold behind it check nothing again
    checked, require = [], folding._require_class

    def counted(*args):
        checked.append(args)
        return require(*args)
    monkeypatch.setattr(folding, "_require_class", counted)
    monkeypatch.setattr(twisted, "_require_class", counted)
    with pytest.raises(ValueError) as excinfo:
        check_fold_relations(lam, kind)
    assert str(excinfo.value) == message
    assert checked == [(lam, kind)]
    checked.clear()
    member = class_partitions(6, kind)[-1]
    assert check_fold_relations(member, kind).ok
    assert checked == [(member, kind)]


@pytest.mark.parametrize("kind", [CrystalKind(parity, ell) for ell in (1, 2, 3, 5)
                                  for parity in ("odd", "even")], ids=str)
def test_vertex_weights_pair_with_the_folded_cartan_matrix(kind):
    # Kashiwara's axiom phi_i - eps_i = <h_i, wt> at every vertex, with
    # wt = Lambda_0 - sum_j c_j alpha_j, c_j the boxes of twisted residue j,
    # and <h_i, alpha_j> = A_ij read from fold_cartan as stored (its
    # transpose fails for every e but 2, so this pins the orientation).
    # eps and phi come from the node_scan report and again as the string
    # lengths of e_twisted and f_twisted, which read the row kernels.
    a = fold_cartan(kind.e).matrix
    for level in enumerate_twisted(kind, 14).levels:
        for lam in level:
            content = twisted_content(lam, kind)
            for i in range(kind.modulus):
                report = signature_report_twisted(lam, i, kind)
                assert report.epsilon == string_length(lam, lambda mu: e_twisted(mu, i, kind))
                assert report.phi == string_length(lam, lambda mu: f_twisted(mu, i, kind))
                assert report.phi - report.epsilon == (i == 0) - sum(
                    a[i][j] * content[j] for j in range(kind.modulus)), (lam, i)


@pytest.mark.parametrize("e", [2, 3, 4, 5, 7])
def test_kleshchev_weights_pair_with_the_affine_cartan_matrix(e):
    # The type A axiom on every Kleshchev vertex: phi_i - eps_i = delta_i0 -
    # sum_j A_ij c_j, with c = residue_counts and A = affine_type_a_cartan(e);
    # and the Mullineux image negates content: N_i(m(lam)) = N_{-i}(lam).
    a = affine_type_a_cartan(e)
    for n in range(13):
        for lam in e_regular_partitions(n, e):
            content = residue_counts(lam, e)
            for i in range(e):
                report = signature_report(lam, i, e)
                assert report.phi - report.epsilon == (i == 0) - sum(
                    a[i][j] * content[j] for j in range(e)), (lam, i)
            image = residue_counts(mullineux(lam, e), e)
            assert image == tuple(content[-i % e] for i in range(e)), lam


@pytest.mark.parametrize("kind", [CrystalKind(parity, ell) for ell in (1, 2, 3, 5)
                                  for parity in ("odd", "even")], ids=str)
def test_unfold_follows_every_arrow_by_its_block(kind):
    # The induction step of the relabelling, arrow by arrow (checked, not
    # proved): cogood additions along the type A block of x take unfold(lam)
    # to unfold(mu) for every arrow lam -x-> mu; unfold(()) = ().
    images = {(): unfold((), kind)}
    assert images[()] == ()
    for lam, mu, x in enumerate_twisted(kind, 16).edges:
        image = images[lam]
        for y in expand_residue(x, kind):
            image = add_cogood(image, y, kind.e)
            assert image is not None, (lam, mu, x)
        assert image == images.setdefault(mu, unfold(mu, kind)), (lam, mu, x)
