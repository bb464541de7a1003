import re

import pytest
from hypothesis import given

from conftest import ar_words_st, partitions_st
from helpers import (
    cancel_by_deletion,
    diagram,
    from_diagram,
    largest_residue_word,
)

from mullineux import typea
from mullineux.involution import mullineux
from mullineux.partitions import (
    CrystalKind,
    InternalConsistencyError,
    Residue,
    e_regular_partitions,
    is_e_regular,
    regular_counts,
)
from mullineux.twisted import e_twisted, f_twisted, replay_twisted, signature_report_twisted
from mullineux.typea import (
    ReplayError,
    add_cogood,
    addable_nodes,
    cancel_ar,
    canonical_path,
    enumerate_kleshchev,
    remove_good,
    removable_nodes,
    replay_path,
    signature_report,
)

RUNNING_EXAMPLE = (9, 9, 8, 7, 5, 3, 1)


def brute_removable(lam):
    cells = diagram(lam)
    return sorted(c for c in cells if from_diagram(cells - {c}) is not None)


def brute_addable(lam):
    cells = diagram(lam)
    width = (lam[0] if lam else 0) + 1
    out = []
    for r in range(1, len(lam) + 2):
        for c in range(1, width + 1):
            if (r, c) not in cells and from_diagram(cells | {(r, c)}) is not None:
                out.append((r, c))
    return sorted(out)


@given(partitions_st)
def test_boundary_nodes_match_cell_oracle(lam):
    assert sorted(removable_nodes(lam)) == brute_removable(lam)
    assert sorted(addable_nodes(lam)) == brute_addable(lam)


@given(ar_words_st)
def test_stack_cancellation_matches_iterated_deletion(word):
    pairs = list(enumerate(word))
    survivors = [pos for pos, _ in cancel_ar(pairs)]
    assert survivors == cancel_by_deletion(word)
    # reduced word always looks like R...RA...A
    letters = "".join(word[pos] for pos in survivors)
    assert "AR" not in letters


def test_signature_running_example():
    report = signature_report(RUNNING_EXAMPLE, 0, 3)
    assert report.letters == "AARRRR"
    assert report.normal == ((6, 3), (7, 1))
    assert report.good == (7, 1)
    assert report.epsilon == 2


def test_signature_small_cases():
    report = signature_report((), 0, 3)
    assert report.raw == (((1, 1), "A"),)
    assert report.cogood == (1, 1) and report.good is None

    report = signature_report((2, 1), 1, 3)
    assert report.raw == (((1, 2), "R"), ((3, 1), "A"))
    assert report.normal == ((1, 2),)
    assert report.conormal == ((3, 1),)


def test_signature_rejects_irregular_and_wrong_modulus():
    with pytest.raises(ValueError):
        signature_report((1, 1, 1), 0, 3)
    with pytest.raises(ValueError):
        signature_report((2,), Residue(0, 5), 3)
    assert signature_report((2,), Residue(1, 3), 3).good == (1, 2)


def test_remove_and_add_examples():
    assert remove_good(RUNNING_EXAMPLE, 0, 3) == (9, 9, 8, 7, 5, 3)
    assert remove_good((), 0, 3) is None
    assert remove_good((1,), 0, 3) == ()
    assert add_cogood((), 0, 3) == (1,)
    assert add_cogood((1,), 1, 3) == (2,)
    assert add_cogood((1, 1), 1, 3) == (2, 1)


@pytest.mark.parametrize("lam", [(1, 2), (2, 0), (0,), (3, -1), (2.5, 1)])
def test_entry_points_reject_non_partitions(lam):
    assert not is_e_regular(lam, 3)
    for call in (lambda: mullineux(lam, 3), lambda: canonical_path(lam, 3),
                 lambda: add_cogood(lam, 0, 3), lambda: remove_good(lam, 0, 3)):
        with pytest.raises(ValueError, match="is not 3-regular"):
            call()


@pytest.mark.parametrize("e", [2, 3, 4])
def test_remove_add_are_mutually_inverse(e):
    for n in range(9):
        for lam in e_regular_partitions(n, e):
            for x in range(e):
                up = add_cogood(lam, x, e)
                if up is not None:
                    assert is_e_regular(up, e)
                    assert remove_good(up, x, e) == lam
                down = remove_good(lam, x, e)
                if down is not None:
                    assert is_e_regular(down, e)
                    assert add_cogood(down, x, e) == lam


@pytest.mark.parametrize("e", [2, 3, 4, 5, 6])
def test_canonical_path_replays(e):
    for n in range(9):
        for lam in e_regular_partitions(n, e):
            word = canonical_path(lam, e)
            assert len(word) == n
            assert replay_path(word, e) == lam
            word_max = largest_residue_word(lam, lambda cur, x: remove_good(cur, x, e), e)
            assert replay_path(word_max, e) == lam


def test_canonical_path_examples():
    assert canonical_path((), 3) == ()
    assert canonical_path((2,), 3) == (0, 1)
    word = canonical_path((3, 1, 1), 3)
    assert word == (0, 1, 2, 2, 1)
    assert replay_path(word, 3) == (3, 1, 1)


def test_replay_error_carries_step():
    with pytest.raises(ReplayError, match="step 1"):
        replay_path((1,), 3)
    with pytest.raises(ReplayError, match="step 1"):
        replay_twisted((1,), CrystalKind.odd(2))
    # the list a replay grows is named as a partition tuple
    with pytest.raises(ReplayError, match=r"^step 2: no cogood 0-node on \(1,\)$"):
        replay_path((0, 0), 3)
    with pytest.raises(ReplayError, match=r"^step 3: no cogood 1-node on \(2,\)$"):
        replay_twisted((0, 1, 1), CrystalKind.odd(1))


def test_first_row_end_is_normal_whenever_removable():
    # nothing precedes (1, lam_1) top-down, so it survives cancellation
    for n in range(1, 10):
        for lam in e_regular_partitions(n, 3):
            if len(lam) > 1 and lam[0] == lam[1]:
                continue  # the first-row end is not removable at all
            x = (lam[0] - 1) % 3
            assert (1, lam[0]) in signature_report(lam, x, 3).normal


def test_every_nonempty_partition_has_a_good_node():
    for e in (2, 3, 4):
        for n in range(1, 10):
            for lam in e_regular_partitions(n, e):
                assert any(typea._good_rows(lam, e))


@given(partitions_st)
def test_signature_counts_match_bruteforce_definition(lam):
    e = 3
    if not is_e_regular(lam, e):
        return
    for x in range(e):
        report = signature_report(lam, x, e)
        survivors = cancel_by_deletion(report.letters)
        letters = [report.letters[i] for i in survivors]
        assert report.epsilon == letters.count("R")
        assert report.phi == letters.count("A")


def test_enumerate_kleshchev_levels():
    graph = enumerate_kleshchev(3, 6)
    assert graph.levels[0] == ((),)
    assert graph.levels[1] == ((1,),)
    assert set(graph.levels[2]) == {(2,), (1, 1)}
    assert len(graph.levels[6]) == 7
    assert graph.level_sizes() == tuple(
        len(e_regular_partitions(n, 3)) for n in range(7))

    two = enumerate_kleshchev(2, 4)
    assert set(two.levels[4]) == {(4,), (3, 1)}


def test_enumerate_kleshchev_cross_check_fires(monkeypatch):
    def short_level_4(e, n):
        # The walk's level counts, with level 4 a member short.
        return tuple(count - (d == 4) for d, count in enumerate(regular_counts(e, n)))
    monkeypatch.setattr(typea, "regular_counts", short_level_4)
    with pytest.raises(InternalConsistencyError) as excinfo:
        enumerate_kleshchev(3, 6)
    assert str(excinfo.value) == (
        "level 4: reachable set differs from e_regular_partitions at e=3")


@pytest.mark.parametrize("row", [2, 3])
def test_a_planted_kernel_is_stopped_by_the_regular_guard(row, monkeypatch):
    # At e = 3 the walk reaches (1, 1) on level 2.  A box at the end of row 2
    # leaves no partition, one in row 3 the 3-irregular (1, 1, 1); a kernel
    # that names either row is stopped at that arrow, by the guard.
    cogood_rows = typea._cogood_rows

    def planted(lam, e):
        rows = cogood_rows(lam, e)
        if lam == (1, 1):
            rows[0] = row
        return rows
    monkeypatch.setattr(typea, "_cogood_rows", planted)
    with pytest.raises(InternalConsistencyError) as excinfo:
        enumerate_kleshchev(3, 4)
    assert str(excinfo.value) == (
        f"cogood addition left the 3-regular partitions: (1, 1) + row {row}")


@pytest.mark.parametrize("e", range(2, 6))
def test_the_regular_guard_raises_exactly_when_the_class_is_left(e):
    # the guard reads the part above and the part e - 1 rows above; the
    # diagram it builds, from cells, must be e-regular exactly when it does
    # not raise
    for n in range(11):
        for lam in e_regular_partitions(n, e):
            for row in range(1, len(lam) + 3):
                end = lam[row - 1] if row <= len(lam) else 0
                mu = from_diagram(diagram(lam) | {(row, end + 1)})
                if mu is not None and is_e_regular(mu, e):
                    typea._check_regular_move(lam, row, e)
                else:
                    with pytest.raises(InternalConsistencyError, match="left the"):
                        typea._check_regular_move(lam, row, e)


def test_enumerate_kleshchev_edges_are_good_node_arrows():
    graph = enumerate_kleshchev(3, 5)
    for src, dst, x in graph.edges:
        assert remove_good(dst, x, 3) == src
    # every vertex above level 0 has an incoming edge
    targets = {dst for _, dst, _ in graph.edges}
    for level in graph.levels[1:]:
        for lam in level:
            assert lam in targets


@pytest.mark.parametrize("e", range(2, 8))
def test_good_cogood_rows_match_signature_report(e):
    # the good-row kernel and the cogood pass of the walks and the replay, on
    # tuples and on the lists the strip and the replay hold, against the
    # report built by sort and cancellation: every e-regular partition to 16
    # boxes, every residue
    for n in range(17):
        for lam in e_regular_partitions(n, e):
            good, cogoods = typea._good_rows(lam, e), typea._cogood_rows(lam, e)
            assert typea._good_rows(list(lam), e) == good, lam
            assert typea._cogood_rows(list(lam), e) == cogoods, lam
            for x in range(e):
                report = signature_report(lam, x, e)
                assert good[x] == (report.good[0] if report.good else 0), (lam, x)
                assert cogoods[x] == (report.cogood[0] if report.cogood else 0), (lam, x)


@pytest.mark.parametrize("e", range(2, 8))
def test_moves_match_signature_report(e):
    # the production moves read the kernel; the report is the reference route
    for n in range(13):
        for lam in e_regular_partitions(n, e):
            for x in range(e):
                report = signature_report(lam, x, e)
                cells = diagram(lam)
                down = from_diagram(cells - {report.good}) if report.good else None
                up = from_diagram(cells | {report.cogood}) if report.cogood else None
                assert remove_good(lam, x, e) == down, (lam, x)
                assert add_cogood(lam, Residue(x, e), e) == up, (lam, x)


def test_moves_reject_irregular_and_wrong_modulus():
    for move in (add_cogood, remove_good):
        with pytest.raises(ValueError, match="is not 3-regular"):
            move((1, 1, 1), 0, 3)
        with pytest.raises(ValueError, match="residue modulus 5"):
            move((2,), Residue(0, 5), 3)


@pytest.mark.parametrize("x", [0.9, 1.5, 2.7, "2", None, 1.0])
def test_every_residue_reader_takes_only_ints(x):
    # int(x) would read a float or a string as some residue; each entry point
    # that reads a residue names the value instead
    kind = CrystalKind.odd(1)
    readers = [lambda: add_cogood((), x, 3), lambda: remove_good((1,), x, 3),
               lambda: e_twisted((1,), x, kind), lambda: f_twisted((), x, kind),
               lambda: signature_report((), x, 3), lambda: signature_report_twisted((), x, kind),
               lambda: replay_path([0, x], 3), lambda: replay_twisted([0, x], kind)]
    for read in readers:
        with pytest.raises(ValueError, match=re.escape(f"int or a Residue, got {x!r}")):
            read()
    assert add_cogood((), True, 3) is None and add_cogood((), 0, 3) == (1,)
    assert f_twisted((), Residue(0, kind.modulus), kind) == (1,)
