import random

import pytest

from helpers import count_partitions_with_parts, forbid_crystal, rhs_from_counts

from mullineux.characters import (
    CountsTable,
    _fixed_side,
    character_series,
    counts_table,
    fixed_size_bound,
    verify_identity,
)
from mullineux.involution import mullineux_map
from mullineux.partitions import CrystalKind, residue_counts

ODD1, ODD2 = CrystalKind.odd(1), CrystalKind.odd(2)
EVEN1, EVEN2 = CrystalKind.even(1), CrystalKind.even(2)


def allowed_exponents(kind, trunc):
    out = []
    for i in range(1, trunc + 1, 2):
        if kind.is_odd and i % kind.e == 0:
            continue
        out.append(i)
    return out


def test_series_spot_values():
    assert character_series(EVEN1, 6) == (1, 1, 1, 2, 2, 3, 4)
    assert character_series(EVEN2, 6) == (1, 1, 1, 2, 2, 3, 4)
    assert character_series(ODD1, 6) == (1, 1, 1, 1, 1, 2, 2)
    assert character_series(ODD2, 0) == (1,)


@pytest.mark.parametrize("kind", (ODD1, ODD2, EVEN1, EVEN2, CrystalKind.odd(3)))
def test_series_matches_direct_partition_count(kind):
    trunc = 14
    series = character_series(kind, trunc)
    allowed = allowed_exponents(kind, trunc)
    for n in range(trunc + 1):
        assert series[n] == count_partitions_with_parts(n, allowed)


def test_counts_table_spot_values():
    table = counts_table(3, 8)
    assert table.count(1, 1, 0) == 1
    assert table.count(5, 1, 2) == 1
    assert all(table.count(2, m, mp) == 0 for m in range(3) for mp in range(3))
    with pytest.raises(ValueError):
        table.count(9, 0, 0)


def test_counts_table_parity_constraints():
    table = counts_table(5, 16)
    for (n, m, mp), count in table.counts.items():
        assert count > 0
        assert mp % 2 == 0 and (n - m) % 2 == 0
    table = counts_table(4, 14)
    for (n, m, mp) in table.counts:
        assert (n - m - mp) % 2 == 0


def test_rhs_from_counts_small_degrees():
    table = counts_table(3, fixed_size_bound(ODD1, 2))
    assert rhs_from_counts(ODD1, 0, table) == 1
    assert rhs_from_counts(ODD1, 2, table) == 1  # the single contribution is (3,1,1)


KINDS = [CrystalKind(parity, ell) for parity in ("odd", "even") for ell in (1, 2, 3)]


@pytest.mark.parametrize("kind", KINDS, ids=str)
def test_fixed_side_is_the_old_sum_term_for_term(kind):
    # The one pass over the table equals the lookups of every (m, m') at
    # every degree, on the real table and on random entries, most of which
    # no degree reads (off parity, or m, m' out of range).
    bound = fixed_size_bound(kind, 20)
    rng = random.Random(str(kind))
    noise = {(rng.randrange(bound + 1), rng.randrange(24), rng.randrange(44)):
             rng.randrange(1, 99) for _ in range(4000)}
    for table in (counts_table(kind.e, bound), CountsTable(kind.e, bound, noise)):
        expected = [rhs_from_counts(kind, n, table) for n in range(21)]
        for max_degree in range(21):
            assert _fixed_side(kind, max_degree, table) == expected[:max_degree + 1]
    assert any(expected) and sum(noise.values()) > sum(expected)


def test_verify_identity_small():
    for kind, deg in ((ODD1, 4), (EVEN1, 6), (EVEN2, 6)):
        report = verify_identity(kind, deg)
        assert report.ok
        assert report.first_failure() is None
        assert report.rows[0].lhs == 1


def test_verify_identity_catches_wrong_table():
    table = counts_table(3, fixed_size_bound(ODD1, 3))
    broken = dict(table.counts)
    broken[(5, 1, 2)] = 7
    poisoned = type(table)(table.e, table.max_size, broken)
    report = verify_identity(ODD1, 3, table=poisoned)
    assert not report.ok
    assert report.first_failure().degree == 2


def test_verify_identity_rejects_short_table():
    table = counts_table(3, 4)
    with pytest.raises(ValueError):
        verify_identity(ODD1, 3, table=table)


def test_three_way_agreement_with_precomputed_inputs():
    kind = ODD2
    degree = 5
    table = counts_table(kind.e, fixed_size_bound(kind, degree))
    report = verify_identity(kind, degree, table=table)
    assert report.ok
    for row in report.rows:
        assert row.lhs == row.rhs_counts == row.rhs_crystal


def test_negative_degree_is_rejected_by_the_bound():
    for call in (lambda: fixed_size_bound(ODD1, -1), lambda: verify_identity(EVEN1, -1)):
        with pytest.raises(ValueError, match="max_degree must be non-negative, got -1"):
            call()


def test_counts_table_never_walks_the_crystal(monkeypatch):
    # The table groups the fixed points of the brute-force map, which the
    # table's own route never builds.
    expected = {}
    for e in (2, 3, 4, 5):
        counts = expected[e] = {}
        for lam, image in mullineux_map(e, 28).items():
            if image == lam:
                profile = residue_counts(lam, e)
                key = (sum(lam), profile[0], profile[e // 2])
                counts[key] = counts.get(key, 0) + 1
    forbid_crystal(monkeypatch)
    for e, counts in expected.items():
        assert counts_table(e, 28).counts == counts
