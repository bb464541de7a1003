import pytest
from hypothesis import given

from conftest import partitions_st
from helpers import all_partitions, conjugate_by_columns, diagram

from mullineux.partitions import (
    CrystalKind,
    Residue,
    conjugate,
    e_regular_partitions,
    format_partition,
    has_distinct_parts,
    is_double_restricted_strict,
    is_e_regular,
    is_restricted_strict,
    is_strict,
    is_symmetric,
    parse_partition,
    partitions_of,
    residue_counts,
    residue_twisted,
    residue_type_a,
)


def test_parse_format_roundtrip():
    for text in ("-", "1", "9,9,8,7,5,3,1", "4,2,1"):
        assert format_partition(parse_partition(text)) == text


def test_parse_rejects_garbage():
    # int() reads the last six as 10, 3, 3, 3, (3, 1) and (3, 1): none is canonical.
    for text in ("2,3", "0", "a,b", "1,", "", "1_0", "+3", "\u0663", "\uff13", "3 ,1", "3, 1"):
        with pytest.raises(ValueError):
            parse_partition(text)
    # nor are leading zeros, which int() reads as 3, (3, 1), 0 and (10, 2)
    for text in ("03", "3,01", "00", "10,02"):
        with pytest.raises(ValueError, match=f"malformed partition literal: '{text}'"):
            parse_partition(text)
    # a lone zero is well formed and keeps its own message
    with pytest.raises(ValueError, match="parts must be positive, got 0"):
        parse_partition("0")
    assert parse_partition("10,1") == (10, 1)


def test_conjugate_examples():
    assert conjugate(()) == ()
    # oracle: count columns of the diagram
    assert conjugate_by_columns((4, 2, 1)) == (3, 2, 1, 1)
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
    assert conjugate((2, 2)) == (2, 2)


@given(partitions_st)
def test_conjugate_matches_column_count_and_is_involutive(lam):
    assert conjugate(lam) == conjugate_by_columns(lam)
    assert conjugate(conjugate(lam)) == lam
    assert sum(conjugate(lam)) == sum(lam)


def test_is_e_regular():
    assert not is_e_regular((2, 2, 2), 3)
    assert is_e_regular((9, 9, 8, 7, 5, 3, 1), 3)
    assert not is_e_regular((1, 1), 2)
    with pytest.raises(ValueError):
        is_e_regular((1,), 1)


def test_strict_classes_spot_values():
    assert is_restricted_strict((10, 10, 6, 1), 5)
    assert is_double_restricted_strict((9, 9, 7, 1), 3)
    # trailing gap 3 with 3 | 3 needs a strict bound, so (3) is not restricted
    assert not is_restricted_strict((3,), 3)
    assert is_strict((3,), 3)
    assert is_double_restricted_strict((3,), 3)
    with pytest.raises(ValueError):
        is_strict((2, 1), 1)


@pytest.mark.parametrize("f", [2, 3, 4, 5])
def test_restricted_implies_double_restricted(f):
    for n in range(21):
        for lam in all_partitions(n):
            if is_restricted_strict(lam, f):
                assert is_double_restricted_strict(lam, f)


def test_symmetric_and_distinct():
    assert is_symmetric((3, 2, 1)) and has_distinct_parts((3, 2, 1))
    # (2,1) conjugates to itself, so it is symmetric
    assert is_symmetric((2, 1)) and has_distinct_parts((2, 1))
    assert is_symmetric(()) and has_distinct_parts(())
    assert not is_symmetric((3, 1))
    assert not has_distinct_parts((2, 2))
    # only partitions: int parts, positive, weakly decreasing
    for lam in ((3, 0), (2, -1), (2.0,), (1, 2), (0,)):
        assert not has_distinct_parts(lam), lam
        assert not is_e_regular(lam, 2), lam
    assert not is_symmetric((1, 1, 0)) and not is_symmetric((1.0,))


def test_residue_type_a():
    assert residue_type_a((1, 1), 3) == Residue(0, 3)
    assert residue_type_a((2, 1), 3) == Residue(2, 3)
    assert residue_type_a((7, 1), 3) == Residue(0, 3)
    with pytest.raises(ValueError):
        residue_type_a((0, 1), 3)


def test_residue_moduli_do_not_mix():
    assert Residue(0, 3) != Residue(0, 5)
    assert int(Residue(7, 3)) == 1


def test_residue_twisted_patterns():
    odd2 = CrystalKind.odd(2)
    assert [residue_twisted(c, odd2).value for c in range(1, 11)] == \
        [0, 1, 2, 1, 0, 0, 1, 2, 1, 0]
    even2 = CrystalKind.even(2)
    assert [residue_twisted(c, even2).value for c in range(1, 10)] == \
        [0, 1, 2, 2, 1, 0, 0, 1, 2]
    for kind in (odd2, even2, CrystalKind.odd(1), CrystalKind.even(1)):
        assert residue_twisted(1, kind).value == 0


@pytest.mark.parametrize("ell", [1, 2, 3, 4])
@pytest.mark.parametrize("parity", ["odd", "even"])
def test_residue_twisted_periodicity(parity, ell):
    kind = CrystalKind(parity, ell)
    period = 2 * ell + 1 if parity == "odd" else 2 * ell + 2
    values = [residue_twisted(c, kind).value for c in range(1, 101)]
    for c in range(100 - period):
        assert values[c] == values[c + period]
    if parity == "odd":
        # palindromic within one period
        assert values[:period] == values[:period][::-1]


def test_residue_counts():
    assert residue_counts((), 5) == (0, 0, 0, 0, 0)
    assert residue_counts((3, 1, 1), 3) == (1, 2, 2)
    # hand tally of the 42-cell residue matrix, row by row:
    # (3,3,3)+(3,3,3)+(2,3,3)+(3,2,2)+(2,1,2)+(1,1,1)+(1,0,0)
    assert residue_counts((9, 9, 8, 7, 5, 3, 1), 3) == (15, 13, 14)


def test_residue_counts_match_the_per_box_tally():
    for n in range(25):
        for lam in all_partitions(n):
            cells = diagram(lam)
            for e in range(2, 9):
                tally = [0] * e
                for row, col in cells:
                    tally[(col - row) % e] += 1
                assert residue_counts(lam, e) == tuple(tally), (lam, e)


@given(partitions_st)
def test_residue_counts_sum_to_size(lam):
    for e in (2, 3, 5):
        assert sum(residue_counts(lam, e)) == sum(lam)


def test_partition_enumeration_matches_oracle():
    for n in range(13):
        assert sorted(partitions_of(n)) == sorted(all_partitions(n))
    assert e_regular_partitions(2, 3) == [(1, 1), (2,)]
    assert e_regular_partitions(4, 2) == [(3, 1), (4,)]


@pytest.mark.parametrize("e", range(2, 8))
def test_e_regular_partitions_match_the_filter(e):
    for n in range(21):
        assert e_regular_partitions(n, e) == sorted(
            lam for lam in partitions_of(n) if is_e_regular(lam, e)), (n, e)


def test_e_regular_partitions_edge_cases():
    assert e_regular_partitions(0, 3) == [()]
    for e in (1, 0, -2):
        with pytest.raises(ValueError, match="e must be at least 2"):
            e_regular_partitions(4, e)
    with pytest.raises(ValueError, match="e must be at least 2"):
        e_regular_partitions(0, 1)
    with pytest.raises(ValueError, match="n must be non-negative"):
        e_regular_partitions(-1, 3)

