import sys

import pytest
from helpers import (
    all_partitions,
    diagram,
    distinct_odd_counts,
    e_rim,
    fixed_counts_by_residues,
    fixed_levels,
    forbid_crystal,
    from_diagram,
    is_regular,
    largest_residue_word,
    mullineux_on_symbol,
    mullineux_symbol,
    peeled_symbol,
    random_e_regular_partitions,
    rim_parent,
    rim_tally,
    rule_symbols,
    stair,
    symmetric_partitions,
)

from mullineux import involution
from mullineux.characters import counts_table
from mullineux.involution import (
    _fixed_columns,
    _peel_rim,
    fixed_set,
    irr_alternating_count,
    mullineux,
    mullineux_map,
    regular_count,
)
from mullineux.partitions import (
    InternalConsistencyError,
    conjugate,
    e_regular_partitions,
    regular_counts,
    residue_counts,
)
from mullineux.typea import (
    CrystalGraph,
    add_cogood,
    canonical_path,
    enumerate_kleshchev,
    remove_good,
    replay_path,
    signature_report,
)


def test_spot_images():
    assert mullineux((), 3) == ()
    assert mullineux((2,), 3) == (1, 1)
    assert mullineux((3, 1, 1), 3) == (3, 1, 1)
    with pytest.raises(ValueError):
        mullineux((1, 1, 1), 3)


@pytest.mark.parametrize("e", [2, 3, 4, 5, 6])
def test_involution_and_path_independence(e):
    for n in range(10):
        for lam in e_regular_partitions(n, e):
            image = mullineux(lam, e)
            assert mullineux(image, e) == lam
            assert box_route(lam, e, "max") == image


@pytest.mark.parametrize("e", [3, 4, 5, 6])
def test_small_sizes_degenerate_to_conjugate(e):
    # below e every partition is e-regular and the involution is transpose
    for n in range(e):
        for lam in e_regular_partitions(n, e):
            assert mullineux(lam, e) == conjugate(lam)


def box_route(lam, e, order):
    """The reference: strip lam one good node at a time, at the smallest
    residue (canonical_path) or the largest (remove_good) that has one, then
    replay the negated reversed word one cogood node at a time."""
    word = canonical_path(lam, e) if order == "min" else largest_residue_word(
        lam, lambda cur, x: remove_good(cur, x, e), e)
    return replay_path(tuple(-x % e for x in word), e)


@pytest.mark.parametrize("e", range(2, 8))
def test_string_route_matches_the_box_route(e):
    # The symbol route (peel e-rims, rebuild rim parents) against the crystal.
    small = [lam for n in range(17) for lam in e_regular_partitions(n, e)]
    large = random_e_regular_partitions(e, 500, 40, 60, seed=e)
    for lam in small + large:
        for order in ("min", "max"):
            assert mullineux(lam, e) == box_route(lam, e, order), (lam, order)


# Near MAX_BOXES: the most rows per box at small e, then e = 1000 columns.
LARGE_SHAPES = [(e, stair(rows, e - 1)) for e, rows in
                ((2, 140), (3, 99), (4, 81), (7, 56), (11, 44), (31, 25))] + [
    (1000, stair(1, 999)), (1000, stair(2, 999)), (1000, stair(4, 999)),
    (1000, (20,) * 499), (1000, (9000,) + (1,) * 999)]


def test_large_shapes_match_the_box_route():
    # Deep images at a lowered recursion limit: no step recurses per row.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        images = [mullineux(lam, e) for e, lam in LARGE_SHAPES]
    finally:
        sys.setrecursionlimit(limit)
    assert images == [box_route(lam, e, "min") for e, lam in LARGE_SHAPES]


def report_replay(word, e):
    """Cogood additions from the empty partition, each the node that
    signature_report names, added to a cell set."""
    lam = ()
    for x in word:
        lam = from_diagram(diagram(lam) | {signature_report(lam, x, e).cogood})
    return lam


@pytest.mark.parametrize("e", range(2, 8))
def test_list_replay_matches_the_report_route(e):
    # replay_path grows one list of parts, reading the cogood row of each
    # letter from the all-residue pass; the reference rebuilds a cell set
    # from the sorted, cancelled report at every step.  Words: the negated
    # box-route words of the string-route shapes.
    lams = [lam for n in range(11) for lam in e_regular_partitions(n, e)]
    lams += random_e_regular_partitions(e, 30, 40, 60, seed=e)
    for lam in lams:
        word = tuple(-x % e for x in canonical_path(lam, e))
        assert replay_path(word, e) == report_replay(word, e) == mullineux(lam, e), lam


@pytest.mark.parametrize("e", range(2, 8))
def test_peel_rim_matches_the_cell_set_rim(e):
    for n in range(19):
        for lam in filter(lambda lam: is_regular(lam, e), all_partitions(n)):
            rim = e_rim(diagram(lam), e) if lam else set()
            parts = list(lam)
            size = _peel_rim(parts, e)
            assert (tuple(parts), size) == (from_diagram(diagram(lam) - rim), len(rim)), lam


def test_mullineux_never_walks_the_crystal(monkeypatch):
    lams = [lam for n in range(13) for lam in e_regular_partitions(n, 4)]
    lams += random_e_regular_partitions(4, 200, 40, 60, seed=0)
    expected = [box_route(lam, 4, "min") for lam in lams]
    forbid_crystal(monkeypatch)
    assert [mullineux(lam, 4) for lam in lams] == expected


def test_forbid_crystal_refuses_every_type_a_kernel(monkeypatch):
    # every route through a type A row kernel must raise once it is forbidden
    forbid_crystal(monkeypatch)
    for route in (lambda: canonical_path((2, 1), 3), lambda: replay_path((0,), 3),
                  lambda: add_cogood((), 0, 3), lambda: remove_good((1,), 0, 3),
                  lambda: mullineux_map(3, 2), lambda: enumerate_kleshchev(3, 1)):
        with pytest.raises(AssertionError, match="the crystal was walked"):
            route()


def test_mullineux_map_needs_a_cogood_step(monkeypatch):
    # An arrow () -> (1,) at residue 1 asks for a cogood 2-node of (), which has none.
    monkeypatch.setattr(involution, "enumerate_kleshchev", lambda e, max_n: CrystalGraph(
        (((),), ((1,),)), (((), (1,), 1),)))
    with pytest.raises(InternalConsistencyError,
                       match=r"negated word has no cogood step at \(\) \(e=3\)"):
        mullineux_map(3, 1)


def test_e2_is_identity():
    for n in range(11):
        for lam in e_regular_partitions(n, 2):
            assert mullineux(lam, 2) == lam


@pytest.mark.parametrize("e", [2, 3, 4])
def test_map_agrees_with_single_shot(e):
    images = mullineux_map(e, 10)
    assert len(images) == sum(regular_count(e, n) for n in range(11))
    assert mullineux_map(e, 0) == {(): ()}
    for n in range(11):
        for lam in e_regular_partitions(n, e):
            assert images[lam] == mullineux(lam, e)


def test_fixed_sets():
    assert fixed_set(3, 2) == []
    assert fixed_set(3, 5) == [(3, 1, 1)]
    assert residue_counts((3, 1, 1), 3) == (1, 2, 2)  # the profile `fixed --profile` prints
    # at e=2 everything is fixed
    for n in range(8):
        assert len(fixed_set(2, n)) == regular_count(2, n)


@pytest.mark.parametrize("e", [3, 4, 5, 6])
def test_nonfixed_partitions_pair_up(e):
    for n in range(11):
        kn = regular_count(e, n)
        assert (kn - len(fixed_set(e, n))) % 2 == 0


def test_fixed_set_never_walks_the_crystal(monkeypatch):
    expected = brute_fixed_levels(3, 36)[36]
    forbid_crystal(monkeypatch)
    assert fixed_set(3, 36) == expected
    assert len(fixed_set(2, 20)) == regular_count(2, 20)
    assert irr_alternating_count(5, 30) == (regular_count(5, 30) + 3 * len(fixed_set(5, 30))) // 2


def test_irr_alternating_count():
    assert irr_alternating_count(3, 5) == 4
    assert irr_alternating_count(3, 2) == 1
    assert irr_alternating_count(3, 1) == 2
    with pytest.raises(ValueError):
        irr_alternating_count(3, 0)


def test_e2_shortcut_equals_the_column_walk():
    # At e = 2 fixed_set lists K_n without the walk; the walk lists the same level.
    for n in range(31):
        assert fixed_set(2, n) == sorted(involution._fixed_partitions(2, n)), n


def test_e2_lists_k_n_once(monkeypatch):
    # At e = 2 the level is K_n itself; no smaller level is listed.
    calls = []

    def counted(n, e):
        calls.append((n, e))
        return e_regular_partitions(n, e)
    monkeypatch.setattr(involution, "e_regular_partitions", counted)
    assert len(fixed_set(2, 20)) == regular_count(2, 20)
    assert calls == [(20, 2)]
    calls.clear()
    # The count comes from the column automaton, which lists nothing.
    assert irr_alternating_count(2, 20) == 2 * regular_count(2, 20)
    assert calls == []


def brute_fixed_levels(e, max_n):
    """Per size, the sorted fixed points of the map over all of K_<=max_n."""
    levels = [[] for _ in range(max_n + 1)]
    for lam, image in mullineux_map(e, max_n).items():
        if image == lam:
            levels[sum(lam)].append(lam)
    return [sorted(level) for level in levels]


def fixed_counts(e, max_n):
    return [len(level) for level in brute_fixed_levels(e, max_n)]


@pytest.mark.parametrize("e, max_n", [(3, 40), (5, 32), (7, 30)])
def test_fixed_counts_match_andrews_bessenrodt_olsson(e, max_n):
    assert fixed_counts(e, max_n) == distinct_odd_counts(e, max_n)


@pytest.mark.parametrize("e", [4, 6])
def test_andrews_bessenrodt_olsson_count_fails_for_even_e(e):
    assert fixed_counts(e, 24) != distinct_odd_counts(e, 24)


def test_mullineux_map_rejects_negative_size():
    with pytest.raises(ValueError, match="max_n must be non-negative, got -5"):
        mullineux_map(3, -5)


@pytest.mark.parametrize("e", range(2, 8))
def test_rim_parent_inverts_rim_removal(e):
    # Each e-regular lam of at most 18 boxes is the one rim parent of what its
    # e-rim leaves; every other (mu, r, a) has none, e.g. (1, 1, 1) is its own
    # 3-rim but not 3-regular, and no lam of r < len(mu) rows contains mu
    # (the search this walk replaced gave (4,) for ((2, 1), 1, 2, 2)).
    parents = {}
    for n in range(1, 19):
        for lam in filter(lambda lam: is_regular(lam, e), all_partitions(n)):
            rim = e_rim(diagram(lam), e)
            parents[(from_diagram(diagram(lam) - rim), len(lam), len(rim))] = lam
    for n in range(19):
        for mu in filter(lambda mu: is_regular(mu, e), all_partitions(n)):
            for r in range(max(len(mu) - 2, 1), len(mu) + e + 1):
                for a in range(1, 19 - n):
                    assert rim_parent(mu, r, a, e) == parents.get((mu, r, a)), (mu, r, a)


@pytest.mark.parametrize("e, max_n", [(2, 30), (3, 40), (4, 28), (5, 32), (6, 24), (7, 40)])
def test_fixed_levels_match_brute_force(e, max_n):
    # The tests' reference for the column automaton, against the map itself.
    assert ([sorted(level) for level in fixed_levels(e, max_n)]
            == brute_fixed_levels(e, max_n))


def fixed_symbols(e, max_n):
    """Every column sequence, outermost first, of at most max_n nodes that the
    library's fixed-column table builds outward from the terminator."""
    columns, found, stack = _fixed_columns(e, max_n), set(), [((), 0, 0)]
    while stack:
        inner, r, n = stack.pop()
        found.add(inner[::-1])
        for rows, a, *_ in columns[r]:
            if n + a <= max_n:
                stack.append((inner + ((a, rows),), rows, n + a))
    return found


@pytest.mark.parametrize("e", [*range(2, 8), 50])
def test_fixed_columns_ascend_in_nodes(e):
    # _fixed_tallies and _fixed_partitions stop at the first column too big.
    for entries in _fixed_columns(e, 120):
        nodes = [a for _, a, *_ in entries]
        assert nodes == sorted(nodes) and len(set(nodes)) == len(nodes), nodes


@pytest.mark.parametrize("e", range(2, 8))
def test_column_rule_accepts_exactly_the_peeled_symbols(e):
    # Bessenrodt-Olsson's two inequalities accept the symbols of the
    # e-regular partitions and nothing else; the library's fixed columns are
    # the accepted symbols whose every column has s = r.
    max_n = 20
    peeled = {peeled_symbol(lam, e)
              for n in range(max_n + 1) for lam in e_regular_partitions(n, e)}
    accepted = rule_symbols(e, max_n)
    assert accepted == peeled
    assert fixed_symbols(e, max_n) == {
        symbol for symbol in accepted
        if all(a - r + (a % e != 0) == r for a, r in symbol)}


@pytest.mark.parametrize("e", range(2, 8))
def test_column_tallies_are_residue_counts(e):
    # A rim's residues are a column sum; the library's fixed columns carry
    # N_0 and N_ell of their rims.
    tallies = {(a, rows): (d0, dl) for entries in _fixed_columns(e, 20)
               for rows, a, d0, dl in entries}
    for n in range(17):
        for lam in e_regular_partitions(n, e):
            symbol = peeled_symbol(lam, e)
            profile = residue_counts(lam, e)
            total = [0] * e
            for a, r in symbol:
                total = [t + d for t, d in zip(total, rim_tally(a, r, e))]
            assert total == list(profile), lam
            if all(a - r + (a % e != 0) == r for a, r in symbol):
                fixed_total = [sum(tallies[column][i] for column in symbol) for i in (0, 1)]
                assert fixed_total == [profile[0], profile[e // 2]], lam


@pytest.mark.parametrize("e, max_n", [(2, 30), (3, 40), (4, 28), (5, 32), (6, 24), (7, 40)])
def test_column_automaton_matches_the_reference(e, max_n):
    # counts_table, fixed_set and irr_alternating_count read the column
    # automaton; the reference grows every fixed point as a rim parent.
    assert counts_table(e, max_n).counts == fixed_counts_by_residues(e, max_n)
    for n, level in enumerate(fixed_levels(e, max_n)):
        assert fixed_set(e, n) == sorted(level), n
        if n:
            assert 2 * irr_alternating_count(e, n) == regular_count(e, n) + 3 * len(level)


@pytest.mark.parametrize("e, max_n", [(3, 56), (5, 48)])
def test_fixed_levels_count_andrews_bessenrodt_olsson(e, max_n):
    levels = fixed_levels(e, max_n)
    assert [len(level) for level in levels] == distinct_odd_counts(e, max_n)
    for n, level in enumerate(levels):
        assert len(set(level)) == len(level)
        for lam in level:
            assert sum(lam) == n and is_regular(lam, e)
            symbol = mullineux_symbol(lam, e)
            assert mullineux_on_symbol(symbol, e) == symbol, lam


@pytest.mark.parametrize("e", [21, 1000])
def test_fixed_levels_past_e_are_self_conjugate(e):
    # Below e boxes the involution is the transpose.
    expected = [sorted(symmetric_partitions(n)) for n in range(21)]
    assert [sorted(level) for level in fixed_levels(e, 20)] == expected
    assert [fixed_set(e, n) for n in range(21)] == expected
    assert counts_table(e, 20).counts == fixed_counts_by_residues(e, 20)


def test_fixed_levels_reject_bad_arguments():
    # The column automaton checks its arguments for every route that reads it.
    with pytest.raises(ValueError, match="max_n must be non-negative, got -1"):
        counts_table(3, -1)
    for call in (lambda: counts_table(1, 5), lambda: fixed_set(1, 5),
                 lambda: irr_alternating_count(1, 5)):
        with pytest.raises(ValueError, match="e must be at least 2, got 1"):
            call()


def test_regular_count_matches_the_enumeration():
    for e in range(2, 8):
        for n in range(31):
            assert regular_count(e, n) == len(e_regular_partitions(n, e))
        assert regular_counts(e, 30) == tuple(regular_count(e, n) for n in range(31))
    assert regular_count(3, 200) == 22_724_322_109
    with pytest.raises(ValueError, match="e must be at least 2, got 1"):
        regular_count(1, -1)


@pytest.mark.parametrize("e, max_n", [(2, 22), (3, 18), (4, 18), (5, 18), (6, 18), (7, 18)])
def test_mullineux_acts_on_symbols_column_by_column(e, max_n):
    # The oracle peels e-rims off cell sets and never touches the crystal.
    for n in range(max_n + 1):
        for lam in all_partitions(n):
            if is_regular(lam, e):
                expected = mullineux_on_symbol(mullineux_symbol(lam, e), e)
                assert mullineux_symbol(mullineux(lam, e), e) == expected, lam
