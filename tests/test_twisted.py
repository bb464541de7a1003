import random

import pytest

from helpers import (
    all_partitions,
    diagram,
    distinct_partitions,
    from_diagram,
    largest_residue_word,
)

from mullineux import twisted
from mullineux.partitions import (
    CrystalKind,
    InternalConsistencyError,
    Residue,
    is_double_restricted_strict,
    is_restricted_strict,
    is_strict,
    partitions_of,
    residue_twisted,
)
from mullineux.twisted import (
    canonical_path_twisted,
    class_partitions,
    e_twisted,
    enumerate_twisted,
    f_twisted,
    in_crystal_class,
    node_scan,
    replay_twisted,
    signature_report_twisted,
)

ODD1, ODD2 = CrystalKind.odd(1), CrystalKind.odd(2)
EVEN1, EVEN2 = CrystalKind.even(1), CrystalKind.even(2)
SMALL_KINDS = (ODD1, ODD2, EVEN1, EVEN2)


def brute_scan(lam, kind):
    """Tags recomputed straight from the definitions on cell sets."""
    f = kind.strict_f
    cells = diagram(lam)

    def strict_or_none(cs):
        mu = from_diagram(cs)
        return mu if mu is not None and is_strict(mu, f) else None

    res = {}

    def resv(node):
        return residue_twisted(node[1], kind).value

    found = []
    for a in cells:
        if strict_or_none(cells - {a}) is not None:
            found.append((a, "R1"))
        b = (a[0], a[1] + 1)
        if (b in cells and resv(a) == resv(b)
                and strict_or_none(cells - {b}) is not None
                and strict_or_none(cells - {a, b}) is not None):
            found.append((a, "R2"))
    width = (lam[0] if lam else 0) + 2
    for r in range(1, len(lam) + 2):
        for c in range(1, width + 1):
            b = (r, c)
            if b in cells:
                continue
            if strict_or_none(cells | {b}) is not None:
                found.append((b, "A1"))
            a = (r, c - 1)
            if (c >= 2 and a not in cells and resv(a) == resv(b)
                    and strict_or_none(cells | {a}) is not None
                    and strict_or_none(cells | {a, b}) is not None):
                found.append((b, "A2"))
    return sorted(found)


@pytest.mark.parametrize("kind", SMALL_KINDS)
def test_node_scan_matches_cell_oracle(kind):
    for n in range(11):
        for lam in all_partitions(n):
            if not is_strict(lam, kind.strict_f):
                continue
            scanned = node_scan(lam, kind)
            assert sorted((t.node, t.tag) for t in scanned) == brute_scan(lam, kind)
            # reading order: descending row, ascending column
            keys = [(-t.node[0], t.node[1]) for t in scanned]
            assert keys == sorted(keys)
            for t in scanned:
                assert t.residue == residue_twisted(t.node[1], kind)


def test_node_scan_rejects_non_strict():
    with pytest.raises(ValueError):
        node_scan((1, 1), ODD1)


@pytest.mark.parametrize("lam", [(2, 0), (3, 0), (2, 0, 0)])
def test_class_entry_points_reject_trailing_zeros(lam):
    assert not in_crystal_class(lam, ODD1)
    for call in (lambda: canonical_path_twisted(lam, ODD1), lambda: f_twisted(lam, 0, ODD1),
                 lambda: e_twisted(lam, 1, ODD1), lambda: node_scan(lam, ODD1)):
        with pytest.raises(ValueError):
            call()


def test_node_scan_spot_values():
    assert [(t.node, t.tag, t.residue.value) for t in node_scan((), ODD2)] == \
        [((1, 1), "A1", 0)]

    # the worked restricted 5-strict partition of 27
    scan = node_scan((10, 10, 6, 1), ODD2)
    removables = [(t.node, t.tag, t.residue.value) for t in scan if t.letter == "R"]
    addables = [(t.node, t.tag, t.residue.value) for t in scan if t.letter == "A"]
    assert removables == [((4, 1), "R1", 0), ((3, 5), "R2", 0),
                          ((3, 6), "R1", 0), ((2, 10), "R1", 0)]
    # (5,1) is not addable: a second part equal to 1 breaks 5-strictness
    assert addables == [((4, 2), "A1", 1), ((3, 7), "A1", 1), ((1, 11), "A1", 0)]

    # pair tags away from residue 0 exist in the even kinds
    even_scan = node_scan((3,), EVEN1)
    assert (((1, 2), "R2") in {(t.node, t.tag) for t in even_scan})
    assert residue_twisted(2, EVEN1).value == 1


@pytest.mark.parametrize("kind", SMALL_KINDS)
def test_pair_tags_only_at_pattern_doubling_residues(kind):
    allowed = {0} if kind.is_odd else {0, kind.ell}
    for n in range(11):
        for lam in all_partitions(n):
            if not is_strict(lam, kind.strict_f):
                continue
            for t in node_scan(lam, kind):
                if t.tag in ("R2", "A2"):
                    assert t.residue.value in allowed


def test_signature_twisted_spot_values():
    report = signature_report_twisted((2,), 0, ODD1)
    assert [(t.node, t.tag) for t in report.raw] == \
        [((2, 1), "A1"), ((1, 3), "A1"), ((1, 4), "A2")]
    assert report.cogood.node == (2, 1)
    assert report.phi == 3 and report.epsilon == 0

    report = signature_report_twisted((), 1, ODD2)
    assert report.raw == () and report.epsilon == report.phi == 0

    report = signature_report_twisted((2, 1), 0, ODD1)
    assert report.good.node == (2, 1)

    with pytest.raises(ValueError):
        signature_report_twisted((2,), Residue(0, 5), ODD1)


@pytest.mark.parametrize("kind", SMALL_KINDS)
def test_good_is_r1_and_cogood_is_a1(kind):
    for n in range(10):
        for lam in all_partitions(n):
            if not is_strict(lam, kind.strict_f):
                continue
            for i in range(kind.modulus):
                report = signature_report_twisted(lam, i, kind)
                if report.good is not None:
                    assert report.good.tag == "R1"
                if report.cogood is not None:
                    assert report.cogood.tag == "A1"


def test_operators_spot_values():
    assert f_twisted((), 0, ODD1) == (1,)
    assert f_twisted((), 1, ODD1) is None
    # the unrestricted 1-row growth is never taken
    assert f_twisted((2,), 0, ODD1) == (2, 1)
    assert e_twisted((2, 1), 0, ODD1) == (2,)
    with pytest.raises(ValueError):
        f_twisted((3,), 0, ODD1)  # (3) is outside the restricted class


@pytest.mark.parametrize("kind", SMALL_KINDS)
def test_operators_are_mutually_inverse_and_stay_in_class(kind):
    for n in range(11):
        for lam in class_partitions(n, kind):
            for i in range(kind.modulus):
                up = f_twisted(lam, i, kind)
                if up is not None:
                    assert in_crystal_class(up, kind)
                    assert e_twisted(up, i, kind) == lam
                down = e_twisted(lam, i, kind)
                if down is not None:
                    assert in_crystal_class(down, kind)
                    assert f_twisted(down, i, kind) == lam


@pytest.mark.parametrize("kind", SMALL_KINDS)
def test_canonical_path_twisted_replays(kind):
    for n in range(11):
        for lam in class_partitions(n, kind):
            word = canonical_path_twisted(lam, kind)
            assert len(word) == n
            assert replay_twisted(word, kind) == lam
            assert replay_twisted(largest_residue_word(
                lam, lambda cur, i: e_twisted(cur, i, kind), kind.modulus), kind) == lam


def test_canonical_path_twisted_examples():
    assert canonical_path_twisted((1,), ODD1) == (0,)
    assert canonical_path_twisted((2,), ODD1) == (0, 1)
    assert canonical_path_twisted((2, 1), ODD1) == (0, 1, 0)


def test_enumerate_twisted_examples():
    graph = enumerate_twisted(ODD1, 3)
    assert graph.levels == (((),), ((1,),), ((2,),), ((2, 1),))

    assert set(enumerate_twisted(EVEN2, 3).levels[3]) == {(3,), (2, 1)}
    assert set(enumerate_twisted(EVEN1, 4).levels[4]) == {(3, 1), (2, 2)}


def test_odd1_level_sizes():
    assert enumerate_twisted(ODD1, 6).level_sizes() == (1, 1, 1, 1, 1, 2, 2)


def test_enumerate_twisted_cross_check_fires(monkeypatch):
    def short_level_5(n, kind):
        level = class_partitions(n, kind)
        return level[1:] if n == 5 else level
    monkeypatch.setattr(twisted, "class_partitions", short_level_5)
    with pytest.raises(InternalConsistencyError) as excinfo:
        enumerate_twisted(ODD1, 6)
    assert str(excinfo.value) == (
        "level 5: reachable set differs from class_partitions at odd ell=1")


@pytest.mark.parametrize("kind", (EVEN1, EVEN2, CrystalKind.even(3)))
def test_even_levels_count_distinct_partitions(kind):
    graph = enumerate_twisted(kind, 12)
    for n in range(13):
        assert len(graph.levels[n]) == len(distinct_partitions(n))


def test_enumerate_twisted_edges_are_operator_arrows():
    graph = enumerate_twisted(ODD2, 6)
    for src, dst, x in graph.edges:
        assert f_twisted(src, x, ODD2) == dst
        assert e_twisted(dst, x, ODD2) == src


@pytest.mark.parametrize("kind", [CrystalKind.odd(ell) for ell in (1, 2, 3, 4)]
                         + [CrystalKind.even(ell) for ell in (1, 2, 3)], ids=str)
def test_good_cogood_rows_match_signature_report(kind):
    # the one-pass good-row and cogood-row kernels, on tuples and on the
    # lists the strip and the replay hold, against one node_scan report per
    # residue, which share no code: every member to 16 boxes, then 300 seeded
    # members of 20-40 boxes
    rng = random.Random(15)
    levels = {n: class_partitions(n, kind) for n in range(20, 41)}
    members = [lam for n in range(17) for lam in class_partitions(n, kind)]
    members += [rng.choice(levels[rng.randint(20, 40)]) for _ in range(300)]
    for lam in members:
        good, cogood = twisted._good_rows(lam, kind), twisted._cogood_rows(lam, kind)
        assert twisted._good_rows(list(lam), kind) == good, lam
        assert twisted._cogood_rows(list(lam), kind) == cogood, lam
        for i in range(kind.modulus):
            report = signature_report_twisted(lam, i, kind)
            assert good[i] == (report.good.node[0] if report.good else 0), (lam, i)
            assert cogood[i] == (report.cogood.node[0] if report.cogood else 0), (lam, i)


@pytest.mark.parametrize("kind", SMALL_KINDS + (CrystalKind.odd(3), CrystalKind.even(3)), ids=str)
def test_moved_raises_exactly_when_the_class_is_left(kind):
    # the guard reads two neighbour pairs; the diagram it builds, from cells,
    # must be a class member exactly when it does not raise
    for n in range(15):
        for lam in class_partitions(n, kind):
            for row in range(1, len(lam) + 2):
                end = lam[row - 1] if row <= len(lam) else 0
                for add, cells in ((True, diagram(lam) | {(row, end + 1)}),
                                   (False, diagram(lam) - {(row, end)} if end else None)):
                    mu = None if cells is None else from_diagram(cells)
                    if mu is not None and in_crystal_class(mu, kind):
                        assert twisted._moved(lam, row, kind, add) == mu
                    else:
                        with pytest.raises(InternalConsistencyError, match="left the class"):
                            twisted._moved(lam, row, kind, add)


@pytest.mark.parametrize("kind", [CrystalKind(parity, ell) for parity in ("odd", "even")
                                  for ell in (1, 2, 3)], ids=str)
def test_class_partitions_match_the_predicates(kind):
    member = is_restricted_strict if kind.is_odd else is_double_restricted_strict
    for n in range(25):
        assert class_partitions(n, kind) == sorted(
            lam for lam in partitions_of(n) if member(lam, kind.strict_f)), n


def test_class_partitions_edge_cases():
    assert class_partitions(0, ODD1) == [()]
    assert class_partitions(0, EVEN1) == [()]
    with pytest.raises(ValueError, match="n must be non-negative"):
        class_partitions(-1, ODD1)
