import inspect
import random
import sys
import time
import tracemalloc
from math import comb, prod

import pytest

import corpus
from corpus import (
    corner_set,
    dominant_ell_weights,
    enumerate_paths,
    noncrossing_tuples,
    path_weight,
)
from snakemod import (
    AlternatingSnake,
    Interval,
    LWeight,
    MalformedIntervalError,
    UnsupportedSnakeError,
    ell_root,
    ell_weights,
    is_connected_pair,
    paths,
    root_decompose,
    snake_dimension,
)


class TestEnumeration:
    def test_rank_one_pair(self):
        paths = enumerate_paths(Interval(0, 1), 1)
        assert sorted(p.values for p in paths) == [(2, 1, 2), (2, 3, 2)]

    def test_forced_path(self):
        paths = enumerate_paths(Interval(0, 0), 2)
        assert len(paths) == 1
        assert paths[0].values == (0, 1, 2, 3)

    def test_counts_are_binomial(self):
        for n in range(1, 9):
            for d in range(0, n + 2):
                for i in (-2, 0, 3):
                    assert len(enumerate_paths(Interval(i, i + d), n)) == comb(n + 1, d)

    def test_endpoints(self):
        for p in enumerate_paths(Interval(-1, 2), 3):
            assert p.values[0] == 4 and p.values[-1] == 2
            assert all(abs(a - b) == 1 for a, b in zip(p.values, p.values[1:]))

    def test_malformed_rejected(self):
        with pytest.raises(MalformedIntervalError):
            enumerate_paths(Interval(0, 4), 2)


class TestCorners:
    def test_local_minimum(self):
        (path,) = [p for p in enumerate_paths(Interval(0, 1), 1) if p.values[1] == 1]
        c = corner_set(path)
        assert c.plus == (Interval(0, 1),) and c.minus == ()

    def test_local_maximum(self):
        (path,) = [p for p in enumerate_paths(Interval(0, 1), 1) if p.values[1] == 3]
        c = corner_set(path)
        assert c.plus == () and c.minus == (Interval(1, 2),)

    def test_monotone_path_has_no_corners(self):
        for iv in (Interval(0, 0), Interval(0, 4)):
            for p in enumerate_paths(iv, 3):
                if all(b < a for a, b in zip(p.values, p.values[1:])) or all(
                    b > a for a, b in zip(p.values, p.values[1:])
                ):
                    c = corner_set(p)
                    assert c.plus == () and c.minus == ()

    def test_max_corner_offset(self):
        # every maximum corner [m, l] satisfies m + l > i + j
        for n in range(1, 6):
            for d in range(0, n + 2):
                iv = Interval(-1, -1 + d)
                for p in enumerate_paths(iv, n):
                    for m in corner_set(p).minus:
                        assert m.i + m.j > iv.i + iv.j

    def test_corner_pairing_across_interval(self):
        # [m, l] occurs as a minimum corner iff [m+1, l+1] occurs as a maximum
        for n in range(1, 7):
            for d in range(0, n + 2):
                iv = Interval(0, d)
                plus, minus = set(), set()
                for p in enumerate_paths(iv, n):
                    c = corner_set(p)
                    plus.update(c.plus)
                    minus.update(c.minus)
                assert {Interval(m.i + 1, m.j + 1) for m in plus} == minus


class TestPathWeight:
    def test_rank_one_values(self):
        lo, hi = sorted(enumerate_paths(Interval(0, 1), 1), key=lambda p: p.values[1])
        assert path_weight(lo) == LWeight.generator(0, 1, 1)
        assert path_weight(hi) == LWeight.generator(1, 2, 1).inverse()

    def test_root_drop_identity(self):
        # the lower path weight equals the top weight with one root removed
        top = LWeight.generator(0, 1, 1)
        dropped = top * ell_root(Interval(0, 1), 1).inverse()
        assert dropped == LWeight.generator(1, 2, 1).inverse()

    def test_monotone_path_weight_trivial(self):
        for p in enumerate_paths(Interval(0, 3), 2):
            if p.values[1] == p.values[0] - 1 and p.values[2] == p.values[1] - 1:
                assert path_weight(p).is_identity


class TestMaxCornerConnectivity:
    def test_connected_iff_max_corner(self):
        # over all paths of [i2, j2], the higher interval appears as a
        # maximum corner exactly when the pair is connected
        for n in range(1, 7):
            for d2 in range(0, n + 2):
                base = Interval(0, d2)
                minus = set()
                for p in enumerate_paths(base, n):
                    minus.update(corner_set(p).minus)
                for i1 in range(-n - 2, n + 3):
                    for d1 in range(0, n + 2):
                        probe = Interval(i1, i1 + d1)
                        if probe.i + probe.j <= base.i + base.j:
                            continue
                        assert (probe in minus) == is_connected_pair(probe, base, n)


class TestTuples:
    def test_worked_pair_count(self):
        s = AlternatingSnake.single_run([[0, 2], [-1, 1]], 2)
        tuples = noncrossing_tuples(s)
        assert len(tuples) == 6
        assert tuples == corpus.stacked_tuples(s)

    def test_tuples_and_weights_match_brute_force(self):
        # the product of the layers filtered pointwise: same tuples, same order
        rng = random.Random(151)
        for _ in range(60):
            s = corpus.random_single_run(rng, rng.randint(1, 4), rng.randint(1, 3), rng.random() < 0.5)
            brute = corpus.stacked_tuples(s)
            assert noncrossing_tuples(s) == brute, str(s)
            top = LWeight.identity(s.n)
            assert ell_weights(s) == {prod(map(path_weight, tup), start=top) for tup in brute}, str(s)

    def test_singleton(self):
        s = AlternatingSnake.build([[0, 1]], [1], 1)
        assert snake_dimension(s) == 2

    def test_separated_product(self):
        s = AlternatingSnake.single_run([[0, 1], [-20, -19]], 1)
        assert snake_dimension(s) == comb(2, 1) ** 2

    def test_multi_run_refused(self):
        s = AlternatingSnake.build([[0, 4], [-1, 1], [1, 2], [2, 3]], [1, 2, 4], 5)
        with pytest.raises(UnsupportedSnakeError):
            noncrossing_tuples(s)
        for route in (ell_weights, snake_dimension):
            with pytest.raises(UnsupportedSnakeError):
                route(s)

    def test_count_matches_enumeration(self):
        rng = random.Random(127)
        for _ in range(20):
            s = corpus.random_left_run(rng, rng.randint(1, 4), rng.randint(1, 3))
            assert snake_dimension(s) == corpus.path_count(s) == len(noncrossing_tuples(s))

    def test_ascending_run_matches_reversal(self):
        rng = random.Random(131)
        for _ in range(20):
            s = corpus.random_connected_left_run(rng, rng.randint(2, 5), rng.randint(2, 3))
            asc = s.reverse()
            assert asc.first_direction() == "right"
            assert snake_dimension(asc) == snake_dimension(s)
            assert ell_weights(asc) == ell_weights(s)


def ladder(r: int) -> AlternatingSnake:
    """The connected descending staircase at n = r + 2 with half-rank intervals."""
    n = r + 2
    return AlternatingSnake.single_run([(-x, -x + (n + 1) // 2) for x in range(r)], n)


def connected_run(r: int) -> AlternatingSnake:
    """The connected descending run [[-t, -t + 2]] at n = r + 2."""
    return AlternatingSnake.single_run([(-t, -t + 2) for t in range(r)], r + 2)


class TestDimension:
    def test_builds_no_paths(self, monkeypatch):
        # the layer rule and the corner rule are all the path-building code there is
        built = []

        def counting(name, f):
            return lambda *args: built.append(name) or f(*args)

        for name in ("_layer", "_corners"):
            monkeypatch.setattr(paths, name, counting(name, getattr(paths, name)))
        assert snake_dimension(ladder(8)) == 7_997_986_868_872
        assert built == []

    def test_ladders_match_path_count(self):
        for r in range(2, 8):
            for s in (ladder(r), ladder(r).mirror(), connected_run(r), connected_run(r).mirror()):
                assert snake_dimension(s) == corpus.path_count(s), str(s)

    def test_connected_run_same_in_both_directions(self):
        # the descending run eliminates along its columns, its mirror along its rows
        for r in (*range(1, 12), 20, 40, 80, 160):
            s = connected_run(r)
            assert snake_dimension(s) == snake_dimension(s.mirror()), r

    def test_descending_connected_run_time_bounded(self):
        # each pivot clears its index from the few later slots listing it
        # (about 0.5 s at r = 320, Python 3.11, 2 CPUs)
        s = connected_run(320)
        start = time.perf_counter()
        assert snake_dimension(s) > 0
        assert time.perf_counter() - start < 5

    def test_long_disconnected_run_is_a_product(self):
        # lengths 0..4 at n = 3, each interval well below the previous one
        ivs = [(-5 * t, -5 * t + t % 5) for t in range(1000)]
        s = AlternatingSnake.single_run(ivs, 3)
        assert not s.is_connected()
        assert snake_dimension(s) == prod(comb(4, j - i) for i, j in ivs)

    def test_prefix_and_suffix_dimensions_never_decrease(self):
        # a run has at least as many tuples as any of its prefixes and suffixes,
        # in either run direction
        rng = random.Random(3)
        runs = [
            corpus.random_single_run(rng, rng.randint(1, 9), rng.randint(1, 9), rng.random() < 0.5)
            for _ in range(400)
        ]
        runs += [f(r) for r in range(1, 9) for f in (ladder, connected_run)]
        runs += [s.mirror() for s in runs[400:]]
        assert {s.first_direction() for s in runs if s.r > 1} == {"left", "right"}
        for s in runs:
            for part in (lambda c: s.segment(0, c), lambda c: s.segment(s.r - c, s.r)):
                dims = [snake_dimension(part(c)) for c in range(1, s.r + 1)]
                assert dims == sorted(dims), str(s)

    def test_long_connected_run_deeper_than_recursion_limit(self):
        r = 1100
        s = AlternatingSnake.single_run([(-t, -t + 1) for t in range(r)], 1)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + r // 2)
        try:
            dim = snake_dimension(s)
        finally:
            sys.setrecursionlimit(limit)
        assert dim == r + 1

    def test_long_connected_run_within_budget_of_path_count(self):
        # The path count is O(r) on this shape, and so is the elimination: the
        # snake matrix stores only its 3r - 2 nonzeros.  Dense storage measured
        # about 15x the path count here.
        s = AlternatingSnake.single_run([(-t, -t + 1) for t in range(1100)], 1)
        best = {snake_dimension: float("inf"), corpus.path_count: float("inf")}
        for _ in range(3):
            for f in best:
                start = time.perf_counter()
                assert f(s) == 1101
                best[f] = min(best[f], time.perf_counter() - start)
        assert best[snake_dimension] < 3 * best[corpus.path_count]


class TestWeights:
    def test_rank_one_weight_set(self):
        s = AlternatingSnake.build([[0, 1]], [1], 1)
        assert ell_weights(s) == {
            LWeight.generator(0, 1, 1),
            LWeight.generator(1, 2, 1).inverse(),
        }

    def test_dominant_weight_unique(self):
        rng = random.Random(137)
        checked = 0
        while checked < 40:
            s = corpus.random_left_run(rng, rng.randint(2, 6), rng.randint(1, 4))
            if snake_dimension(s) > 20_000:
                continue
            assert dominant_ell_weights(s) == {s.weight()}
            checked += 1

    def test_weights_sit_below_top(self):
        from snakemod import leq

        rng = random.Random(139)
        for _ in range(25):
            s = corpus.random_left_run(rng, rng.randint(2, 5), rng.randint(1, 3))
            top = s.weight()
            for w in ell_weights(s):
                assert root_decompose(top * w.inverse()) is not None
                assert leq(w, top)


def steps(s: AlternatingSnake) -> int:
    """The layers and down steps of one stacked tuple of the single run ``s``."""
    return s.r + sum(iv.length for iv in s.intervals)


class TestStepLimit:
    """ell_weights refuses a run whose dimension times its steps per tuple passes the limit."""

    def test_refuses_exactly_past_the_limit(self, monkeypatch):
        monkeypatch.setattr(paths, "CHARACTER_MAX_STEPS", 2_000)
        rng = random.Random(163)
        runs = [
            corpus.random_single_run(rng, rng.randint(1, 6), rng.randint(1, 6), rng.random() < 0.5)
            for _ in range(150)
        ]
        runs += [f(r) for r in range(1, 6) for f in (ladder, connected_run)]
        refused = 0
        for s in runs:
            dim = snake_dimension(s)
            if dim * steps(s) > 2_000:
                with pytest.raises(UnsupportedSnakeError, match="the limit is 2000$"):
                    ell_weights(s)
                refused += 1
            else:
                assert len(ell_weights(s)) == dim, str(s)
        assert 0 < refused < len(runs)

    def test_one_interval_refused_exactly_past_the_limit(self, monkeypatch):
        # one layer is counted as C(n + 1, length) without a walk, on either side of its middle
        monkeypatch.setattr(paths, "CHARACTER_MAX_STEPS", 2_000)
        answered = refused = 0
        for n in range(40):
            for length in range(n + 2):
                s = AlternatingSnake.single_run([[0, length]], n)
                if comb(n + 1, length) * (length + 1) > 2_000:
                    with pytest.raises(UnsupportedSnakeError, match="the limit is 2000$"):
                        ell_weights(s)
                    refused += 1
                else:
                    assert len(ell_weights(s)) == comb(n + 1, length), str(s)
                    answered += 1
        assert answered > 100 and refused > 100

    def test_one_long_path_at_the_limit(self):
        # [[0, n + 1]] has one path of n + 1 down steps, so n + 2 steps
        ok = AlternatingSnake.single_run([[0, 399_999]], 399_998)
        assert ell_weights(ok) == {LWeight.identity(399_998)}
        with pytest.raises(UnsupportedSnakeError, match="at least 1 of them, 400001 steps"):
            ell_weights(AlternatingSnake.single_run([[0, 400_000]], 399_999))

    def test_refusal_labels_at_most_the_cap_per_list(self, monkeypatch):
        # each layer list is counted before any of its paths is coded
        monkeypatch.setattr(paths, "CHARACTER_MAX_STEPS", 2_000)
        log = []
        corners, layer = paths._corners, paths._layer
        monkeypatch.setattr(paths, "_corners", lambda *args: log.append(0) or corners(*args))
        monkeypatch.setattr(paths, "_layer", lambda *args: log.append(None) or layer(*args))
        cases = [
            AlternatingSnake.single_run([[0, 1]], 20_000),
            AlternatingSnake.single_run([[0, 1], [-1, 0]], 300),
            ladder(4),
            ladder(4).mirror(),
            connected_run(40),
        ]
        for s in cases:
            log.clear()
            with pytest.raises(UnsupportedSnakeError):
                ell_weights(s)
            labelled = [0]
            for entry in log:
                if entry is None:
                    labelled.append(0)
                else:
                    labelled[-1] += 1
            assert max(labelled) <= 2_000 // steps(s) + 1, str(s)

    def test_refusal_builds_no_weight(self, monkeypatch):
        # the pair's tuples of 4 steps pass cap = 100,000 only in the last layer's
        # tally, which counts every list of that layer before any weight is built
        s = AlternatingSnake.single_run([[0, 1], [-1, 0]], 446)
        assert snake_dimension(s) * steps(s) > paths.CHARACTER_MAX_STEPS
        built = []
        monkeypatch.setattr(paths, "LWeight", lambda *args: built.append(None) or LWeight(*args))
        with pytest.raises(UnsupportedSnakeError) as refusal:
            ell_weights(s)
        assert built == []
        # the tally adds whole lists of the last layer
        assert "at least 100128 of them" in str(refusal.value)

    def test_deep_refusal_stacks_at_most_the_cap(self, monkeypatch):
        # the first layer of [[-t, -t + 1] for t < r] at n + 1 = cap holds cap paths, so
        # it passes the count; the second layer's list below the path (k,) holds the
        # k + 1 paths (0,) .. (k,), and the layer's tally refuses at 1 + 2 + ... + 14 =
        # 105 > cap = 100 instead of listing every layer first (33 MB and 1 s at r = 200
        # for a walk that counted only the tuples it reached)
        monkeypatch.setattr(paths, "CHARACTER_MAX_STEPS", 40_000)
        r = 200
        cap = 40_000 // (2 * r)
        s = AlternatingSnake.single_run([[-t, -t + 1] for t in range(r)], cap - 1)
        tracemalloc.start()
        try:
            with pytest.raises(UnsupportedSnakeError, match="at least 105 of them"):
                ell_weights(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


def join_cases() -> list[AlternatingSnake]:
    """Random single runs in both directions, then the ladder rungs up to r = 4."""
    rng = random.Random(157)
    runs = [
        corpus.random_single_run(rng, rng.randint(1, 5), rng.randint(1, 4), rng.random() < 0.5)
        for _ in range(40)
    ]
    runs = [s for s in runs if snake_dimension(s) <= 5_000]
    assert {s.first_direction() for s in runs if s.r > 1} == {"left", "right"}
    return runs + [ladder(r) for r in range(1, 5)] + [ladder(3).mirror()]


class TestCornerJoin:
    """ell_weights joins the layers' corners without summing them."""

    def test_layers_share_no_corner(self):
        corners = {}
        for s in join_cases():
            for tup in noncrossing_tuples(s):
                seen: set = set()
                for path in tup:
                    if path not in corners:
                        c = corner_set(path)
                        corners[path] = {*c.plus, *c.minus}
                    assert seen.isdisjoint(corners[path]), str(s)
                    seen |= corners[path]

    def test_exponents_are_units(self):
        for s in join_cases():
            assert all(e in (1, -1) for w in ell_weights(s) for _, e in w.gens), str(s)

    def test_matches_summing_route(self):
        # the last two have corners past every upper endpoint j_t
        cases = [
            ladder(4).mirror(),
            AlternatingSnake.single_run([[0, 1], [-1, 0]], 120),
            AlternatingSnake.single_run([[0, 3]], 3),
            AlternatingSnake.single_run([[3, 5]], 9),
            AlternatingSnake.single_run([[1, 2], [2, 3], [3, 5], [4, 8]], 4),
        ]
        for s in join_cases() + cases:
            assert ell_weights(s) == corpus.summed_ell_weights(s), str(s)

    def test_corners_once_per_layer_path(self, monkeypatch):
        s = ladder(4)
        calls = []
        corners = paths._corners

        def counting(downs, j, n):
            calls.append((j, downs))
            return corners(downs, j, n)

        monkeypatch.setattr(paths, "_corners", counting)
        weights = ell_weights(s)
        layer_paths = {
            (iv.j, downs)
            for stack in corpus._stacked_downs(s.intervals, s.n)
            for iv, downs in zip(s.intervals, stack)
        }
        assert len(weights) == 24_696
        assert len(set(calls)) == len(calls) and set(calls) <= layer_paths
        assert len(calls) < len(weights)

    @pytest.mark.parametrize("ivs, n, count", [([[0, 1]], 20_000, 20_001), ([[3, 5]], 200, comb(201, 2))])
    def test_one_interval_keeps_no_path(self, ivs, n, count):
        # one layer has nothing to merge: each path's corners become its weight, and
        # only one shared pair per corner outlives the path, so the peak stays near
        # the weights returned (1.74x them at n = 20,000 with a code list and a
        # label-memo entry kept per path)
        s = AlternatingSnake.single_run(ivs, n)
        tracemalloc.start()
        try:
            weights = ell_weights(s)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(weights) == count
        assert peak < 1.25 * retained


class TestCrossOracle:
    def test_worked_case(self):
        from snakemod import det_laplace, snake_matrix

        s = AlternatingSnake.single_run([[0, 2], [-1, 1]], 2)
        assert corpus.path_count(s) == 6
        assert snake_dimension(s) == 6
        assert det_laplace(snake_matrix(s)).dimension() == 6

    def test_corpus(self):
        from snakemod import det_laplace, snake_matrix

        rng = random.Random(149)
        for _ in range(40):
            n = rng.randint(2, 6)
            r = rng.randint(1, 4)
            s = corpus.random_left_run(rng, n, r)
            dim = corpus.path_count(s)
            assert snake_dimension(s) == dim, str(s)
            assert det_laplace(snake_matrix(s)).dimension() == dim, str(s)
