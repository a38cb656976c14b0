import random

import pytest

from snakemod import Interval, as_interval, is_connected_pair, overlaps


def test_well_formed_bounds():
    assert Interval(0, 4).is_well_formed(4)
    assert not Interval(-1, 4).is_well_formed(3)  # length 5 > n + 1 = 4
    assert Interval(2, 2).is_well_formed(1)
    assert not Interval(3, 1).is_well_formed(5)


def test_boundary_lengths():
    assert Interval(1, 1).is_boundary(2)
    assert Interval(0, 3).is_boundary(2)
    assert not Interval(0, 2).is_boundary(2)


def test_overlap_examples():
    assert not overlaps(Interval(0, 4), Interval(1, 2))  # nested
    assert overlaps(Interval(-1, 1), Interval(0, 4))
    assert not overlaps(Interval(0, 3), Interval(0, 3))  # strictness


def test_overlap_is_symmetric():
    pairs = [((0, 4), (-1, 1)), ((0, 1), (1, 2)), ((2, 5), (1, 2))]
    for a, b in pairs:
        assert overlaps(Interval(*a), Interval(*b)) == overlaps(Interval(*b), Interval(*a))


def test_connected_pair_examples():
    assert is_connected_pair(Interval(0, 4), Interval(-1, 1), 4)
    # the crossed interval [-1, 4] is too long at rank 3
    assert not is_connected_pair(Interval(0, 4), Interval(-1, 1), 3)
    assert not is_connected_pair(Interval(0, 3), Interval(-5, -2), 8)


def test_zero_length_never_overlaps():
    probe = Interval(1, 1)
    for a in range(-2, 3):
        for b in range(a, a + 4):
            assert not overlaps(probe, Interval(a, b))


def test_mirror_involution():
    iv = Interval(-3, 2)
    assert iv.mirrored() == Interval(-2, 3)
    assert iv.mirrored().mirrored() == iv


class TestValueType:
    """An interval is the immutable pair (i, j): same hash, order and repr as that pair."""

    def test_hash_is_the_pairs(self):
        for i, j in [(0, 0), (-3, 2), (5, 1), (10**6, -(10**6))]:
            assert hash(Interval(i, j)) == hash((i, j))

    def test_sorts_as_pairs(self):
        rng = random.Random(3)
        pairs = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(200)]
        assert [iv.as_pair() for iv in sorted(Interval(*p) for p in pairs)] == sorted(pairs)

    def test_repr(self):
        assert repr(Interval(-1, 2)) == "Interval(i=-1, j=2)"

    @pytest.mark.parametrize("field", ["i", "j"])
    def test_fields_are_read_only(self, field):
        iv = Interval(0, 1)
        with pytest.raises(AttributeError):
            setattr(iv, field, 5)
        assert iv == Interval(0, 1)

    def test_as_interval_keeps_an_interval(self):
        iv = Interval(-2, 3)
        assert as_interval(iv) is iv
        assert as_interval([-2, 3]) == iv and type(as_interval((-2, 3))) is Interval
