"""The value types behave as immutable records of their fields.

``AlternatingSnake``, ``RingElement``, ``StandardExpansion`` and ``KLTable``
print, compare, hash, copy and pickle by their fields and refuse
assignment; a snake's run directions match its intervals however it was made,
and a snake made from a snake is one.
"""

import copy
import pickle
import random

import pytest

import corpus
from snakemod import (
    AlternatingSnake,
    Interval,
    InvalidSnakeError,
    RingElement,
    diagnose,
    fundamental_class,
    kl_table,
    standard_expansion,
    step_direction,
)

PAIR = AlternatingSnake.build([[0, 2], [-1, 1]], [1, 2], 2)
PAIR_REPR = "AlternatingSnake(n=2, intervals=(Interval(i=0, j=2), Interval(i=-1, j=1)), breaks=(1, 2))"

VALUES = {
    "snake": (PAIR, ("n", "intervals", "breaks"), PAIR_REPR),
    "ring": (
        fundamental_class(Interval(0, 2), 2) - RingElement.one(2),
        ("n", "terms"),
        "RingElement(n=2, terms=((LWeight(n=2, gens=()), -1), "
        "(LWeight(n=2, gens=((Interval(i=0, j=2), 1),)), 1)))",
    ),
    "expansion": (
        standard_expansion(PAIR),
        ("snake", "terms", "sigma_count"),
        f"StandardExpansion(snake={PAIR_REPR}, "
        "terms=((LWeight(n=2, gens=((Interval(i=-1, j=1), 1), (Interval(i=0, j=2), 1))), 1), "
        "(LWeight(n=2, gens=((Interval(i=0, j=1), 1),)), -1)), sigma_count=2)",
    ),
    "kl": (
        kl_table(PAIR),
        ("mu_plus_rho", "lambda_plus_rho", "rows"),
        "KLTable(mu_plus_rho=(0, -1), lambda_plus_rho=(2, 1), rows=(((-1, 0), -1), ((0, -1), 1)))",
    ),
}


@pytest.mark.parametrize("name", VALUES)
class TestRecord:
    def test_repr(self, name):
        value, _, text = VALUES[name]
        assert repr(value) == text

    def test_copy_and_pickle_round_trip(self, name):
        value, _, _ = VALUES[name]
        assert value == copy.copy(value) == copy.deepcopy(value) == pickle.loads(pickle.dumps(value))

    def test_hash_is_the_field_tuples(self, name):
        value, fields, _ = VALUES[name]
        assert hash(value) == hash(tuple(getattr(value, f) for f in fields))

    def test_equal_only_to_its_own_class(self, name):
        value, fields, _ = VALUES[name]
        same = type(value)(*(getattr(value, f) for f in fields))
        assert value == same and value is not same
        assert value != tuple(getattr(value, f) for f in fields)
        assert value.__eq__(object()) is NotImplemented

    def test_assignment_and_deletion_raise(self, name):
        value, fields, _ = VALUES[name]
        with pytest.raises(AttributeError):
            setattr(value, fields[0], None)
        with pytest.raises(AttributeError):
            delattr(value, fields[0])
        with pytest.raises(AttributeError):
            value.extra = 1
        assert repr(value) == VALUES[name][2]


def assert_directions(s: AlternatingSnake) -> None:
    """Every step of run m points the way ``directions[m - 1]`` says."""
    assert len(s.directions) == s.k
    for m, d in enumerate(s.directions, 1):
        lo, hi = s.breaks[m - 1], s.breaks[m]
        assert {step_direction(s.interval(t), s.interval(t + 1)) for t in range(lo, hi)} == {d}


class TestDirections:
    def test_single_run(self):
        assert AlternatingSnake.single_run([[0, 2], [-1, 1], [-2, 0]], 3).directions == ("left",)
        assert AlternatingSnake.single_run([[0, 2], [1, 3]], 3).directions == ("right",)
        assert AlternatingSnake.single_run([[0, 2]], 3).directions == ()

    def test_mirror_flips_and_reverse_reads_backwards(self):
        s = AlternatingSnake.build([[0, 4], [-1, 1], [1, 2], [2, 3]], [1, 2, 4], 5)
        assert s.directions == ("left", "right")
        assert s.mirror().directions == ("right", "left")
        assert s.reverse().directions == ("left", "right")
        assert s.reverse().intervals == s.intervals[::-1]

    def test_pickle_keeps_directions(self):
        s = AlternatingSnake.build([[0, 4], [-1, 1], [1, 2], [2, 3]], [1, 2, 4], 5)
        assert pickle.loads(pickle.dumps(s)).directions == s.directions

    @pytest.mark.parametrize("seed", [0, 1])
    def test_every_segment_and_symmetry(self, seed):
        # mirror, reverse and segment build their images unchecked, so each must be a snake
        for s in source_snakes(seed):
            assert_directions(s)
            for t in derived(s):
                assert diagnose(t.intervals, t.breaks, t.n) == []
                built = AlternatingSnake.build(t.intervals, t.breaks, t.n)
                assert t == built and t.directions == built.directions
                assert_directions(t)


def source_snakes(seed: int) -> list[AlternatingSnake]:
    """Stable snakes, prime and not, unstable snakes, and a lone interval."""
    rng = random.Random(seed)
    unstable: list[AlternatingSnake] = []
    while len(unstable) < 20:
        try:
            s = AlternatingSnake.build(*corpus.random_shape(rng))
        except InvalidSnakeError:
            continue
        if not s.is_stable():
            unstable.append(s)
    return [
        *corpus.stable_corpus(seed, 40),
        *corpus.nonprime_stable_corpus(seed, 20),
        *unstable,
        AlternatingSnake.build([[0, 2]], [1], 2),
    ]


def derived(s: AlternatingSnake):
    """The mirror, the reversal and every segment of ``s``."""
    yield s.mirror()
    yield s.reverse()
    for p in range(s.r):
        for q in range(p + 1, s.r + 1):
            yield s.segment(p, q)
