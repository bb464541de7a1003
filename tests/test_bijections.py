import pytest
from hypothesis import given

from conftest import distinct_partitions_st
from helpers import diagram, distinct_partitions, from_diagram, symmetric_partitions

from mullineux.bijections import (
    distinct_to_symmetric,
    durfee_length,
    symmetric_to_distinct,
)
from mullineux.partitions import has_distinct_parts, is_symmetric


def test_durfee_length():
    assert durfee_length(()) == 0
    assert durfee_length((1,)) == 1
    assert durfee_length((3, 2, 1)) == 2
    assert durfee_length((4, 3, 3, 1)) == 3


def test_spot_values():
    assert distinct_to_symmetric(()) == ()
    assert distinct_to_symmetric((1,)) == (1,)
    assert distinct_to_symmetric((2, 1)) == (2, 2)
    assert distinct_to_symmetric((4, 2, 1)) == (4, 3, 3, 1)
    assert symmetric_to_distinct((1,)) == (1,)
    assert symmetric_to_distinct((2, 2)) == (2, 1)
    assert symmetric_to_distinct((3, 2, 1)) == (3, 1)


def test_domain_errors():
    # partitions outside the domain first, then tuples that are not
    # partitions (zero, negative, float or rising parts): refused at the
    # boundary, not mapped or met by an error from inside
    for lam in ((2, 2), (3, 0), (2, -1), (2.0,), (1, 2)):
        with pytest.raises(ValueError, match="does not have distinct parts"):
            distinct_to_symmetric(lam)
    for mu in ((3, 1), (2.0, 1.0), (1, 1, 0), (0,)):
        with pytest.raises(ValueError, match="is not symmetric"):
            symmetric_to_distinct(mu)


@given(distinct_partitions_st)
def test_image_is_symmetric_and_round_trips(lam):
    mu = distinct_to_symmetric(lam)
    assert is_symmetric(mu)
    assert symmetric_to_distinct(mu) == lam


@given(distinct_partitions_st)
def test_constructed_rows_weakly_decrease(lam):
    mu = distinct_to_symmetric(lam)
    assert all(mu[i] >= mu[i + 1] for i in range(len(mu) - 1))


def test_round_trip_exhaustive_distinct_side():
    seen = {}
    for n in range(21):
        for lam in distinct_partitions(n):
            mu = distinct_to_symmetric(lam)
            assert is_symmetric(mu)
            assert symmetric_to_distinct(mu) == lam
            assert mu not in seen, f"{lam} and {seen[mu]} collide"
            seen[mu] = lam


def test_round_trip_exhaustive_symmetric_side():
    for n in range(26):
        for mu in symmetric_partitions(n):
            lam = symmetric_to_distinct(mu)
            assert has_distinct_parts(lam)
            assert distinct_to_symmetric(lam) == mu


def test_size_change_is_real():
    # the bijection is between the infinite families, not size-by-size
    assert sum(distinct_to_symmetric((4, 2, 1))) != sum((4, 2, 1))


def test_image_diagram_contains_input_head():
    # rows above the diagonal are the input parts shifted right
    lam = (5, 3, 2)
    mu = distinct_to_symmetric(lam)
    cells = diagram(mu)
    assert from_diagram(cells) == mu
    for i, part in enumerate(lam):
        assert (i + 1, part + i) in cells
