import random
import re

import pytest

import corpus
import snakemod.snakes as snakes_module
from snakemod import (
    AlternatingSnake,
    Interval,
    InvalidSnakeError,
    LWeight,
    UnsupportedSnakeError,
    cross_adjacent,
    diagnose,
    is_connected_pair,
    leq,
    overlaps,
    rectangle_root_product,
)


@pytest.fixture
def example_one():
    return AlternatingSnake.build([[0, 4], [-1, 1], [1, 2], [2, 3]], [1, 2, 4], 5)


class TestValidation:
    def test_example_one(self, example_one):
        assert example_one.directions == ("left", "right")

    def test_repeated_interval(self):
        problems = diagnose([[0, 2], [0, 2]], [1, 2], 2)
        # equal intervals also leave the run with no strict direction
        assert {p.code for p in problems} == {"alt-1", "alt0"}
        assert next(p for p in problems if p.code == "alt-1").positions == (1, 2)

    def test_nested_across_break_is_fine(self):
        s = AlternatingSnake.build([[0, 4], [-1, 1], [0, 3]], [1, 2, 3], 5)
        assert s.directions == ("left", "right")

    def test_empty_interval_tuple(self):
        problems = diagnose([], [1], 3)
        assert [(p.code, p.positions) for p in problems] == [("malformed", ())]

    def test_malformed_interval(self):
        problems = diagnose([[0, 7], [-1, 1]], [1, 2], 5)
        assert any(p.code == "malformed" for p in problems)

    def test_bad_breaks(self):
        assert any(p.code == "breaks" for p in diagnose([[0, 2], [-1, 1]], [1, 3], 4))
        assert any(p.code == "breaks" for p in diagnose([[0, 2], [-1, 1]], [2], 4))
        assert any(p.code == "breaks" for p in diagnose([[0, 2]], [1, 1], 4))

    def test_non_monotone_run(self):
        problems = diagnose([[0, 2], [-1, 3]], [1, 2], 4)
        assert [p.code for p in problems] == ["alt0"]

    def test_alternation_violation(self):
        # two descending runs in a row
        problems = diagnose([[5, 9], [3, 7], [1, 5]], [1, 2, 3], 8)
        assert any(p.code == "alt1" for p in problems)

    def test_overlap_across_break(self):
        problems = diagnose([[0, 4], [-1, 1], [2, 5]], [1, 2, 3], 5)
        assert any(p.code == "alt2" and p.positions == (1, 2, 3) for p in problems)
        # every straddling pair once per break between them, break by break
        problems = diagnose([[0, 2], [-3, 0], [1, 4], [3, 6], [-1, 1]], [1, 2, 4, 5], 4)
        assert [p.positions for p in problems if p.code == "alt2"] == [
            (1, 2, 3),
            (1, 2, 5),
            (1, 4, 5),
            (2, 4, 5),
            (3, 4, 5),
        ]

    def test_alt2_matches_all_pairs(self):
        rng = random.Random(11)
        for _ in range(2000):
            r = rng.randint(3, 8)
            ivs = [(i, i + rng.randint(0, 5)) for i in (rng.randint(-5, 5) for _ in range(r))]
            breaks = [1, *sorted(rng.sample(range(2, r), rng.randint(1, r - 2))), r]
            expected = [
                (s, rm, l)
                for rm in breaks[1:-1]
                for s in range(1, rm)
                for l in range(rm + 1, r + 1)
                if overlaps(Interval(*ivs[s - 1]), Interval(*ivs[l - 1]))
            ]
            assert [p.positions for p in diagnose(ivs, breaks, 6) if p.code == "alt2"] == expected

    def test_overlap_tested_only_from_lower_endpoints(self, monkeypatch):
        # a pair is tested only when the later-starting interval's [i, j) holds the
        # other's upper endpoint: neither the disjoint zigzag nor nested input has one
        calls = []
        real = snakes_module.overlaps
        monkeypatch.setattr(snakes_module, "overlaps", lambda a, b: calls.append(1) or real(a, b))
        s = zigzag(400)
        assert diagnose(s.intervals, s.breaks, s.n) == []
        assert len(calls) <= s.r
        calls.clear()
        r = 400
        nested = [[-t, t] for t in range(1, r + 1)]
        problems = diagnose(nested, list(range(1, r + 1)), 2 * r + 2)
        assert problems and not any(p.code == "alt2" for p in problems)
        assert len(calls) <= r

    def test_build_raises_with_diagnostics(self):
        with pytest.raises(InvalidSnakeError) as exc:
            AlternatingSnake.build([[0, 2], [0, 2]], [1, 2], 2)
        assert exc.value.diagnostics[0].code == "alt-1"

    def test_build_reads_one_shot_iterables_once(self):
        pair = AlternatingSnake.build([[0, 2], [-1, 1]], [1, 2], 2)
        s = AlternatingSnake.build((p for p in [[0, 2], [-1, 1]]), iter([1, 2]), 2)
        assert s == pair
        with pytest.raises(InvalidSnakeError) as exc:
            AlternatingSnake.build((p for p in [[0, 2], [0, 2]]), iter([1, 2]), 2)
        assert exc.value.diagnostics[0].code == "alt-1"

    def test_diagnostic_is_a_read_only_tuple(self):
        d = diagnose([[0, 2], [0, 2]], [1, 2], 2)[0]
        fields = ("alt-1", (1, 2), "positions 1 and 2 carry the same interval")
        assert d == fields and hash(d) == hash(fields)
        assert repr(d) == (
            "Diagnostic(code='alt-1', positions=(1, 2), "
            "message='positions 1 and 2 carry the same interval')"
        )
        for name in d._fields:
            with pytest.raises(AttributeError):
                setattr(d, name, None)
        assert d.to_json() == {"code": "alt-1", "positions": [1, 2], "message": fields[2]}

    def test_singleton_breaks(self):
        s = AlternatingSnake.build([[0, 2]], [1], 3)
        assert s.k == 0 and s.directions == ()


class TestIntegerInput:
    """Intervals, breaks and n are ints: nothing is rounded, and no bool or string passes."""

    @pytest.mark.parametrize(
        "intervals, breaks, n, bad",
        [
            ([[0, 2.9]], [1], 2, "[0, 2.9]"),
            ([[0, True]], [1], 2, "[0, True]"),
            ([["0", 2]], [1], 2, "['0', 2]"),
            ([[0, 2]], [1.7], 2, "1.7"),
            ([[0, 2]], [True], 2, "True"),
            ([[0, 2], [-1, 1]], [1, 2.0], 2, "2.0"),
            ([[0, 2]], [1], 2.5, "2.5"),
            ([[0, 2]], [1], True, "True"),
            ([[0, 2]], [1], "2", "'2'"),
        ],
    )
    def test_build_refuses_non_integers(self, intervals, breaks, n, bad):
        for f in (diagnose, AlternatingSnake.build):
            with pytest.raises(ValueError, match=f"not {re.escape(bad)}$") as exc:
                f(intervals, breaks, n)
            assert not isinstance(exc.value, InvalidSnakeError)

    @pytest.mark.parametrize(
        "key, value, bad",
        [("n", 2.5, "2.5"), ("n", True, "True"), ("breaks", [1.7], "1.7"), ("intervals", [[0, 2.9]], "[0, 2.9]")],
    )
    def test_from_json_refuses_non_integers(self, key, value, bad):
        data = {"n": 2, "intervals": [[0, 2]], "breaks": [1], key: value}
        with pytest.raises(ValueError, match=f"not {re.escape(bad)}$"):
            AlternatingSnake.from_json(data)


class TestSegments:
    def test_example_prefix(self, example_one):
        seg = example_one.segment(0, 2)
        assert [iv.as_pair() for iv in seg.intervals] == [(0, 4), (-1, 1)]
        assert seg.breaks == (1, 2)

    def test_whole(self, example_one):
        assert example_one.segment(0, 4) == example_one

    def test_tail_merges_breaks(self, example_one):
        seg = example_one.segment(1, 4)
        assert [iv.as_pair() for iv in seg.intervals] == [(-1, 1), (1, 2), (2, 3)]
        assert seg.breaks == (1, 3)
        assert seg.directions == ("right",)

    def test_out_of_range(self, example_one):
        with pytest.raises(IndexError):
            example_one.segment(2, 1)

    @pytest.mark.parametrize("p", [0, -1, 5])
    def test_interval_rejects_out_of_range(self, example_one, p):
        # 0 and negative positions would otherwise wrap to the last interval
        with pytest.raises(IndexError, match=r"out of range 1\.\.4"):
            example_one.interval(p)

    def test_random_segments_validate(self):
        # segment does not check its result, so every stretch is checked here
        for s in corpus.stable_corpus(17, 40) + corpus.nonprime_stable_corpus(18, 40):
            for p in range(s.r):
                for q in range(p + 1, s.r + 1):
                    seg = s.segment(p, q)
                    assert seg.r == q - p
                    assert diagnose(seg.intervals, seg.breaks, seg.n) == []


class TestReverseAndMirror:
    def test_reverse_example(self, example_one):
        rev = example_one.reverse()
        assert [iv.as_pair() for iv in rev.intervals] == [(2, 3), (1, 2), (-1, 1), (0, 4)]
        assert rev.breaks == (1, 3, 4)

    def test_reverse_involution(self, example_one):
        assert example_one.reverse().reverse() == example_one

    def test_reverse_singleton(self):
        s = AlternatingSnake.build([[0, 2]], [1], 3)
        assert s.reverse() == s

    def test_reverse_preserves_weight(self, example_one):
        assert example_one.reverse().weight() == example_one.weight()

    def test_mirror_example(self, example_one):
        mir = example_one.mirror()
        assert [iv.as_pair() for iv in mir.intervals] == [(-4, 0), (-1, 1), (-2, -1), (-3, -2)]
        assert mir.breaks == (1, 2, 4)
        assert mir.directions == ("right", "left")

    def test_mirror_involution(self, example_one):
        assert example_one.mirror().mirror() == example_one

    def test_symmetries_preserve_predicates(self):
        for s in corpus.stable_corpus(23, 40):
            for image in (s.reverse(), s.mirror()):
                assert image.is_connected() == s.is_connected()
            assert s.mirror().is_stable() == s.is_stable()


class TestPredicates:
    def test_example_connected_stable_prime(self, example_one):
        assert example_one.is_connected()
        assert example_one.is_stable()
        assert example_one.is_prime()

    def test_disconnected_pair(self):
        s = AlternatingSnake.single_run([[0, 3], [-5, -2]], 8)
        assert not s.is_connected()
        assert not s.is_prime()

    def test_single_runs_trivially_stable(self):
        for s in [
            AlternatingSnake.single_run([[0, 3], [-5, -2]], 8),
            AlternatingSnake.build([[0, 2]], [1], 3),
        ]:
            assert s.is_stable()

    def test_equal_upper_endpoints_not_prime(self):
        s = AlternatingSnake.build([[0, 4], [-2, 1], [1, 4]], [1, 2, 3], 5)
        assert s.is_connected()
        assert not s.is_prime()

    def test_connected_singleton(self):
        assert AlternatingSnake.build([[0, 2]], [1], 3).is_connected()


def paper_prime_criterion(s: AlternatingSnake) -> bool:
    """Every neighbouring pair connected, and no inner break whose outer intervals share an endpoint."""
    if not all(is_connected_pair(a, b, s.n) for a, b in zip(s.intervals, s.intervals[1:])):
        return False
    for rm in s.breaks[1:-1]:
        lo, hi = s.interval(rm - 1), s.interval(rm + 1)
        if lo.i == hi.i or lo.j == hi.j:
            return False
    return True


class TestPrimeCriterion:
    """``is_prime`` is "no cut positions"; the paper's criterion is written out as its oracle."""

    def test_seeded_sweep(self):
        rng = random.Random(5)
        snakes = []
        while len(snakes) < 5000:
            try:
                snakes.append(AlternatingSnake.build(*corpus.random_shape(rng)))
            except InvalidSnakeError:
                pass
        got = [s.is_prime() for s in snakes]
        assert got == [paper_prime_criterion(s) for s in snakes]
        kinds = {(p, s.is_stable()) for p, s in zip(got, snakes)}
        assert kinds == {(True, True), (True, False), (False, True), (False, False)}


class TestPrimeDecomposition:
    def test_disconnected_cut(self):
        s = AlternatingSnake.single_run([[0, 3], [-5, -2]], 8)
        factors = s.prime_factors()
        assert [f.r for f in factors] == [1, 1]
        assert s.cut_positions() == (1,)

    def test_equal_endpoint_cut(self):
        s = AlternatingSnake.build([[0, 4], [-2, 1], [1, 4]], [1, 2, 3], 5)
        assert s.cut_positions() == (2,)
        first, second = s.prime_factors()
        assert [iv.as_pair() for iv in first.intervals] == [(0, 4), (-2, 1)]
        assert [iv.as_pair() for iv in second.intervals] == [(1, 4)]

    def test_prime_input_is_singleton(self, example_one):
        assert example_one.prime_factors() == (example_one,)

    def test_factors_are_prime_and_concatenate(self):
        for s in corpus.stable_corpus(31, 60):
            factors = s.prime_factors()
            assert all(f.is_prime() for f in factors)
            glued = [iv for f in factors for iv in f.intervals]
            assert glued == list(s.intervals)

    def test_reversal_reverses_factors(self):
        for s in corpus.stable_corpus(37, 40):
            lhs = [list(f.intervals) for f in s.reverse().prime_factors()]
            rhs = [list(f.reverse().intervals) for f in s.prime_factors()[::-1]]
            assert lhs == rhs

    def test_mirror_factors_termwise(self):
        for s in corpus.stable_corpus(41, 40):
            lhs = [list(f.intervals) for f in s.mirror().prime_factors()]
            rhs = [list(f.mirror().intervals) for f in s.prime_factors()]
            assert lhs == rhs

    def test_within_prime_factor(self, example_one):
        assert example_one.within_prime_factor(1, 4)
        split = AlternatingSnake.single_run([[0, 3], [-5, -2]], 8)
        assert not split.within_prime_factor(1, 2)
        two_cut = AlternatingSnake.build([[0, 4], [-2, 1], [1, 4]], [1, 2, 3], 5)
        assert two_cut.within_prime_factor(1, 2)
        assert not two_cut.within_prime_factor(2, 3)

    @pytest.mark.parametrize("lo, hi", [(0, 2), (3, 2), (4, 5)])
    def test_within_prime_factor_out_of_range(self, example_one, lo, hi):
        with pytest.raises(IndexError):
            example_one.within_prime_factor(lo, hi)

    def test_validates_no_factor_again(self, monkeypatch):
        # a stretch, mirror or reversal of a valid snake is valid, so each is built unchecked
        r = 200
        runs = [
            AlternatingSnake.single_run([[-3 * t, -3 * t + 1] for t in range(r)], 3),
            zigzag(r),
            *corpus.nonprime_stable_corpus(43, 40),
        ]
        validated = []
        real = snakes_module.diagnose

        def counting(intervals, breaks, n):
            validated.append(len(intervals))
            return real(intervals, breaks, n)

        monkeypatch.setattr(snakes_module, "diagnose", counting)
        for s in runs:
            factors = s.prime_factors()
            assert len(factors) > 1
            assert sum(f.r for f in factors) == s.r
            s.mirror()
            s.reverse()
        assert validated == []

    def test_scan_matches_first_cut_recursion(self):
        for s in corpus.stable_corpus(47, 150) + corpus.nonprime_stable_corpus(53, 150):
            factors = s.prime_factors()
            assert all(f.cut_positions() == () for f in factors)
            cuts = s.cut_positions()
            if cuts:
                c = cuts[0]
                assert factors == (s.segment(0, c), *s.segment(c, s.r).prime_factors())


class TestCheckedOnce:
    """Input is checked once: each interval, and the snake as a whole."""

    @pytest.fixture
    def checks(self, monkeypatch):
        calls = []

        def counted(name):
            real = getattr(snakes_module, name)
            return lambda *args: calls.append(name) or real(*args)

        for name in ("as_interval", "diagnose"):
            monkeypatch.setattr(snakes_module, name, counted(name))
        return calls

    def test_each_interval_once(self, checks):
        for s in corpus.stable_corpus(59, 30):
            pairs = [list(iv) for iv in s.intervals]
            for make in (
                lambda: AlternatingSnake.build(pairs, s.breaks, s.n),
                lambda: AlternatingSnake.build(iter(pairs), iter(s.breaks), s.n),
                lambda: AlternatingSnake.from_json(s.to_json()),
            ):
                checks.clear()
                assert make() == s
                assert checks.count("as_interval") == s.r and checks.count("diagnose") == 1

    @pytest.mark.parametrize("r", [1, 3, 7])
    def test_single_run_checks_each_interval_once(self, checks, r):
        s = AlternatingSnake.single_run(([-t, -t + 1] for t in range(r)), 1)
        assert s.r == r and s.breaks == ((1,) if r == 1 else (1, r))
        assert checks.count("as_interval") == r and checks.count("diagnose") == 1


def zigzag(r: int, step: int = 4) -> AlternatingSnake:
    """Disjoint unit intervals on slots that go down `step` places, then up."""
    slots = [0]
    while len(slots) < r:
        down = (len(slots) - 1) // step % 2 == 0
        slots.append(min(slots) - 1 if down else max(slots) + 1)
    breaks = (1, *range(1 + step, r, step), r)
    return AlternatingSnake.build([[3 * x, 3 * x + 1] for x in slots], breaks, 3)


class TestCrossAdjacent:
    def test_example_one(self, example_one):
        crossed, gamma = cross_adjacent(example_one, 1)
        assert [iv.as_pair() for iv in crossed] == [(-1, 4), (0, 1), (1, 2), (2, 3)]
        assert gamma == rectangle_root_product(Interval(-1, 1), Interval(0, 4), 5)

    def test_connected_pair(self):
        s = AlternatingSnake.single_run([[0, 2], [-1, 1]], 4)
        crossed, _ = cross_adjacent(s, 1)
        assert [iv.as_pair() for iv in crossed] == [(-1, 2), (0, 1)]

    def test_cut_point_rejected(self):
        s = AlternatingSnake.single_run([[0, 3], [-5, -2]], 8)
        with pytest.raises(UnsupportedSnakeError):
            cross_adjacent(s, 1)

    def test_out_of_range(self, example_one):
        with pytest.raises(IndexError):
            cross_adjacent(example_one, 4)

    def test_weight_identity_and_order(self):
        checked = 0
        for s in corpus.stable_corpus(43, 50):
            for p in range(1, s.r):
                if not s.within_prime_factor(p, p + 1):
                    continue
                crossed, gamma = cross_adjacent(s, p)
                w_tau = LWeight.from_generators(((iv, 1) for iv in crossed), s.n)
                assert w_tau == s.weight() * gamma.inverse()
                assert leq(w_tau, s.weight())
                checked += 1
        assert checked > 50


class TestTripleNonOverlap:
    # a connected pair plus a spectator overlapping neither keeps its
    # distance from both crossed intervals
    def test_property(self):
        rng = random.Random(47)
        found = 0
        while found < 300:
            n = rng.randint(2, 8)
            i2 = rng.randint(-5, 5)
            i3 = rng.randint(i2 + 1, i2 + n)
            j2 = rng.randint(i3, i2 + n)
            j3 = rng.randint(j2 + 1, i2 + n + 1)
            a, b = Interval(i2, j2), Interval(i3, j3)
            if not is_connected_pair(a, b, n):
                continue
            base = rng.randint(-9, 9)
            spect = Interval(base, base + rng.randint(0, n + 1))
            if overlaps(spect, a) or overlaps(spect, b):
                continue
            for cross in (Interval(a.i, b.j), Interval(b.i, a.j)):
                assert not overlaps(spect, cross)
            found += 1


class TestStableContainment:
    # connected snakes with one break are stable exactly when the interval
    # after the break nests inside the one before it
    def test_nested_family_side(self):
        rng = random.Random(53)
        seen = 0
        while seen < 60:
            s, _ = corpus.random_nested(rng, k_max=2)
            if s.k != 2:
                continue
            r1 = s.breaks[1]
            lo, hi = s.interval(r1 - 1), s.interval(r1 + 1)
            assert lo.i <= hi.i < hi.j <= lo.j
            for t in range(r1 + 1, s.r + 1):
                assert lo.i <= s.interval(t).i <= s.interval(t).j <= lo.j
            seen += 1

    def test_biconditional_on_hand_instances(self):
        cases = [
            ([[0, 4], [-1, 1], [0, 3]], 5),
            ([[-1, 0], [-3, -1], [-2, 1]], 4),
            ([[1, 6], [0, 3], [1, 4], [2, 5]], 5),
            ([[0, 2], [-2, 1], [-1, 3]], 4),
        ]
        for pairs, n in cases:
            s = AlternatingSnake.build(pairs, [1, 2] + [len(pairs)], n)
            assert s.is_connected() and s.k == 2
            r1 = s.breaks[1]
            lo, hi = s.interval(r1 - 1), s.interval(r1 + 1)
            contained = lo.i <= hi.i < hi.j <= lo.j
            assert s.is_stable() == contained
