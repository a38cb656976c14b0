import inspect
import itertools
import math
import random
import sys
import time
import tracemalloc

import pytest

import corpus
from corpus import entry
from snakemod import (
    AlternatingSnake,
    determinant,
    Interval,
    RingElement,
    InternalCheckError,
    SnakeMatrix,
    StandardExpansion,
    UnsupportedSnakeError,
    derived_snake,
    det_laplace,
    det_leibniz,
    expansion_dominated,
    fundamental_class,
    kl_table,
    minor_identity_holds,
    nonzero_permutations,
    snake_matrix,
    split_identity_holds,
    standard_expansion,
    weyl_class,
)
from snakemod.category_o import _lambda_order, _rows
from snakemod.determinant import DET_MAX_STEPS, _exact, _weight_terms, det_dimension, signed_sum
from snakemod.lweight import LWeight
from snakemod.paths import snake_dimension


def pattern_lines(m):
    return ["".join("x" if cell else "." for cell in row) for row in corpus.pattern(m)]


GOLDEN_FIVE_FULL_BREAKS = [
    "xxx..",
    "xxx..",
    ".xxxx",
    ".xxxx",
    "...xx",
]

GOLDEN_FIVE_SKIP_BREAK = [
    "xxxx.",
    "xxxx.",
    ".xxx.",
    ".xxxx",
    ".xxxx",
]


@pytest.fixture
def example_one():
    return AlternatingSnake.build([[0, 4], [-1, 1], [1, 2], [2, 3]], [1, 2, 4], 5)


@pytest.fixture
def pair_snake():
    return AlternatingSnake.single_run([[0, 2], [-1, 1]], 2)


class TestMatrixPattern:
    def test_fully_broken_five(self):
        s = AlternatingSnake.build(
            [[-1, 0], [-3, -1], [-2, 1], [-4, 0], [-3, 2]], [1, 2, 3, 4, 5], 5
        )
        assert s.directions[0] == "left"
        assert pattern_lines(snake_matrix(s)) == GOLDEN_FIVE_FULL_BREAKS

    def test_skipped_break_five(self):
        s = AlternatingSnake.build(
            [[1, 6], [0, 3], [1, 4], [2, 5], [1, 2]], [1, 2, 4, 5], 5
        )
        assert s.directions[0] == "left"
        assert pattern_lines(snake_matrix(s)) == GOLDEN_FIVE_SKIP_BREAK

    def test_single_run_full_matrix(self):
        # connected single run: every well-formed pairing appears
        s = AlternatingSnake.single_run([[0, 3], [-1, 2], [-2, 1]], 4)
        assert s.is_connected()
        m = snake_matrix(s)
        for p in range(1, 4):
            for l in range(1, 4):
                iv = Interval(s.interval(p).i, s.interval(l).j)
                assert (entry(m, p, l) is not None) == iv.is_well_formed(4)

    def test_diagonal_always_present(self):
        for s in corpus.stable_corpus(73, 40):
            m = snake_matrix(s)
            assert all(entry(m, p, p) is not None for p in range(1, s.r + 1))

    def test_mirror_transposes_the_matrix(self):
        # entry (p, l) of the mirrored snake's matrix is the mirror of
        # entry (l, p); determinants of transposes then agree for free
        for s in corpus.stable_corpus(137, 40):
            m = snake_matrix(s)
            mm = snake_matrix(s.mirror())
            for p in range(1, s.r + 1):
                for l in range(1, s.r + 1):
                    iv = entry(m, l, p)
                    expected = iv.mirrored() if iv is not None else None
                    assert entry(mm, p, l) == expected

    def test_build_cross_checks_every_well_formed_cell(self, example_one, monkeypatch):
        # the row and column rules are compared on every well-formed cell of a
        # connected block, not only on the cells inside the row window
        windows = determinant._windows

        def with_col_windows(lo, hi):
            return lambda s, dirs, along_rows: windows(s, dirs, True) if along_rows else [(lo, hi)] * (s.r + 1)

        monkeypatch.setattr(determinant, "_windows", with_col_windows(5, 0))
        with pytest.raises(InternalCheckError, match=r"at \(1, 1\)"):
            snake_matrix(example_one)
        # (3, 1) is well formed but outside row 3's window
        monkeypatch.setattr(determinant, "_windows", with_col_windows(1, 4))
        with pytest.raises(InternalCheckError, match=r"at \(3, 1\)"):
            snake_matrix(example_one)


class TestSparseMatrix:
    @pytest.mark.parametrize("p, l", [(0, 1), (-1, 1), (3, 1), (1, 0), (1, 3)])
    def test_entry_rejects_out_of_range(self, pair_snake, p, l):
        # 0 and negative indices would otherwise wrap to the last row
        with pytest.raises(IndexError, match=r"out of range 1\.\.2"):
            entry(snake_matrix(pair_snake), p, l)

    def test_rows_cols_and_dense_view_agree(self):
        snakes = (
            corpus.stable_corpus(149, 60)
            + corpus.nonprime_stable_corpus(153, 50)
            + [corpus.staircase(r) for r in range(4, 13)]
            + [corpus.connected_run(r) for r in range(1, 30)]
            + [corpus.pair_chain(r) for r in range(2, 30, 2)]
        )
        for s in snakes:
            m = snake_matrix(s)
            assert m.cols == corpus.transposed(m.rows, m.size), str(s)
            by_row = [(p, l, iv) for p, row in enumerate(m.rows, 1) for l, iv in row]
            by_col = [(p, l, iv) for l, col in enumerate(m.cols, 1) for p, iv in col]
            dense = [
                (p, l, iv)
                for p, row in enumerate(m.entries, 1)
                for l, iv in enumerate(row, 1)
                if iv is not None
            ]
            assert by_row == dense, str(s)
            assert sorted(by_col) == by_row, str(s)
            assert all(c[0] < d[0] for line in m.cols for c, d in zip(line, line[1:]))

    def test_matrix_is_a_read_only_tuple(self, pair_snake):
        m = snake_matrix(pair_snake)
        rows = (
            ((1, Interval(0, 2)), (2, Interval(0, 1))),
            ((1, Interval(-1, 2)), (2, Interval(-1, 1))),
        )
        cols = (
            ((1, Interval(0, 2)), (2, Interval(-1, 2))),
            ((1, Interval(0, 1)), (2, Interval(-1, 1))),
        )
        assert m == (pair_snake, rows, cols) and hash(m) == hash((pair_snake, rows, cols))
        assert repr(m) == (
            "SnakeMatrix(snake=AlternatingSnake(n=2, intervals=(Interval(i=0, j=2), "
            "Interval(i=-1, j=1)), breaks=(1, 2)), rows=(((1, Interval(i=0, j=2)), "
            "(2, Interval(i=0, j=1))), ((1, Interval(i=-1, j=2)), (2, Interval(i=-1, j=1)))), "
            "cols=(((1, Interval(i=0, j=2)), (2, Interval(i=-1, j=2))), "
            "((1, Interval(i=0, j=1)), (2, Interval(i=-1, j=1)))))"
        )
        for name in m._fields:
            with pytest.raises(AttributeError):
                setattr(m, name, None)

    def test_long_connected_run_is_banded(self):
        s = AlternatingSnake.single_run([(-t, -t + 1) for t in range(1100)], 1)
        assert sum(len(row) for row in snake_matrix(s).rows) == 3 * 1100 - 2

    def test_routes_read_no_dense_table(self, monkeypatch):
        reads = []
        dense = SnakeMatrix.entries
        counted = property(lambda m: reads.append(m) or dense.fget(m))
        monkeypatch.setattr(SnakeMatrix, "entries", counted)
        staircase = corpus.staircase(8)
        split = AlternatingSnake.single_run([[-3 * t, -3 * t + 1] for t in range(200)], 3)
        connected = AlternatingSnake.single_run([(-t, -t + 1) for t in range(1100)], 1)
        for s in (staircase, split):
            m = snake_matrix(s)
            det_laplace(m), det_leibniz(m), nonzero_permutations(m), det_dimension(m)
            standard_expansion(s)
        kl_table(staircase)
        snake_dimension(split), snake_dimension(connected), det_dimension(snake_matrix(connected))
        assert reads == []
        assert snake_matrix(staircase).entries and len(reads) == 1


class TestSigma:
    def test_identity_always_included(self):
        for s in corpus.stable_corpus(79, 40):
            sigmas = nonzero_permutations(snake_matrix(s))
            assert tuple(range(1, s.r + 1)) in sigmas

    def test_two_by_two_connected(self, pair_snake):
        assert nonzero_permutations(snake_matrix(pair_snake)) == [(1, 2), (2, 1)]

    def test_lexicographic_order(self):
        for s in corpus.stable_corpus(211, 80):
            sigmas = nonzero_permutations(snake_matrix(s))
            assert all(a < b for a, b in zip(sigmas, sigmas[1:])), str(s)

    def test_long_disconnected_run_deeper_than_recursion_limit(self):
        r = 1000
        s = AlternatingSnake.single_run([[-3 * t, -3 * t + 1] for t in range(r)], 3)
        m = snake_matrix(s)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + r // 2)
        try:
            sigmas = nonzero_permutations(m)
        finally:
            sys.setrecursionlimit(limit)
        assert sigmas == [tuple(range(1, r + 1))]

    def test_first_slot_bounded_by_first_break(self):
        for s in corpus.stable_corpus(83, 40):
            r1 = s.breaks[1] if s.k >= 1 else 1
            for sigma in nonzero_permutations(snake_matrix(s)):
                assert sigma[0] <= r1

    def test_matches_exhaustive_filter(self, example_one):
        m = snake_matrix(example_one)
        expected = [
            sigma
            for sigma in itertools.permutations(range(1, 5))
            if all(entry(m, sigma[l], l + 1) is not None for l in range(4))
        ]
        assert sorted(nonzero_permutations(m)) == expected
        assert len(expected) == 8

    def test_matches_exhaustive_filter_on_corpus(self):
        for s in corpus.stable_corpus(193, 30, r_cap=5):
            m = snake_matrix(s)
            left = s.first_direction() == "left"
            brute = []
            for sigma in itertools.permutations(range(1, s.r + 1)):
                if left:
                    ok = all(entry(m, sigma[t], t + 1) is not None for t in range(s.r))
                else:
                    ok = all(entry(m, t + 1, sigma[t]) is not None for t in range(s.r))
                if ok:
                    brute.append(sigma)
            assert sorted(nonzero_permutations(m)) == brute


class TestSweep:
    @staticmethod
    def assert_matches_walk(snakes):
        # both production namings: weights leave the boundary labels out, and
        # KL rows name each label in lambda's order
        for s in snakes:
            m = snake_matrix(s)
            sums, count = corpus.walked_signed_sum(m, lambda iv: None if iv.is_boundary(s.n) else iv)
            assert _weight_terms(m) == ([(LWeight(s.n, k), c) for k, c in sorted(sums.items())], count), str(s)
            assert corpus.sparse_sums(signed_sum(m, _lambda_order)) == corpus.walked_signed_sum(m, _lambda_order), str(s)

    def test_corpora(self):
        self.assert_matches_walk(
            corpus.stable_corpus(0, 300)
            + corpus.prime_stable_corpus(137, 80)
            + corpus.nonprime_stable_corpus(1, 150)
        )

    def test_staircase_rungs(self):
        self.assert_matches_walk(corpus.staircase(r) for r in range(8, 17))

    def test_pair_chains(self):
        # block-diagonal and nothing cancels: 2^(r/2) terms
        self.assert_matches_walk(corpus.pair_chain(r) for r in (16, 24))
        assert len(corpus.sparse_sums(signed_sum(snake_matrix(corpus.pair_chain(24)), _lambda_order))[0]) == 2**12

    def test_connected_runs(self):
        self.assert_matches_walk(corpus.connected_run(r) for r in range(1, 17))

    def test_count_is_not_the_factors_product(self):
        # the staircase's prime factors do not split its matrix
        s = corpus.staircase(16)
        assert signed_sum(snake_matrix(s), _lambda_order)[2] == 2**15
        factors = [signed_sum(snake_matrix(f), _lambda_order)[2] for f in s.prime_factors()]
        assert factors[0] * factors[1] * factors[2] == 2**13

    def test_long_disconnected_run_is_one_term(self):
        r = 1000
        s = AlternatingSnake.single_run([[-3 * t, -3 * t + 1] for t in range(r)], 3)
        kept, sums, count = signed_sum(snake_matrix(s), _lambda_order)
        assert count == 1
        assert dict(_rows(kept, sums)) == {tuple(-3 * t for t in range(r)): 1}

    @pytest.mark.parametrize(
        "s",
        [
            corpus.connected_run(1100),  # one block, Fibonacci-many label tuples
            corpus.pair_chain(60),  # 30 blocks whose product has 2^30 terms
            AlternatingSnake.single_run([(-t, -t + 30) for t in range(30)], 61),  # 2^30 index sets
        ],
        ids=["connected-run", "pair-chain", "dense-block"],
    )
    def test_work_past_the_budget_is_refused(self, s):
        m = snake_matrix(s)
        start = time.perf_counter()
        with pytest.raises(UnsupportedSnakeError, match=f"more than {DET_MAX_STEPS} steps"):
            signed_sum(m, _lambda_order)
        assert time.perf_counter() - start < 5

    def test_expansions_walk_no_assignments(self, monkeypatch):
        calls = []
        for name in ("_assignments", "walk"):
            real = getattr(determinant, name)
            monkeypatch.setattr(
                determinant, name, lambda *a, real=real, name=name: calls.append(name) or real(*a)
            )
        s = corpus.staircase(16)
        e, table = standard_expansion(s), kl_table(s)
        assert (len(e.terms), e.sigma_count, len(table.rows)) == (1672, 2**15, 1672)
        assert calls == []
        nonzero_permutations(snake_matrix(corpus.staircase(4)))
        assert calls == ["_assignments", "walk"]


def weights_naming(n):
    return lambda iv: None if iv.is_boundary(n) else iv


# Per matrix: its id, the steps of both production namings and the steps with
# every label left out.  The weights leave out only boundary labels (j - i is 0
# or n + 1), and a used mask with the kept labels placed so far leaves one way to
# pair the remaining endpoints into boundary labels, so leaving them out merges
# no two codes and both namings take the same steps.  With every label left out,
# each mask has the one code 0.
PINNED_STEPS = [
    ("staircase-16", snake_matrix(corpus.staircase(16)), 186_664, 228),
    ("pair-chain-24", snake_matrix(corpus.pair_chain(24)), 98_448, 144),
    ("connected-run-20", snake_matrix(corpus.connected_run(20)), 936_074, 528),
    (
        "disconnected-run-1000",
        snake_matrix(AlternatingSnake.single_run([[-3 * t, -3 * t + 1] for t in range(1000)], 3)),
        3_000,
        3_000,
    ),
    ("shared-label", snake_matrix(AlternatingSnake.build([[-1, 4], [2, 5], [5, 6], [2, 4]], [1, 3, 4], 6)), 57, 29),
    # an ascending first run, so the slots are these rows: slot 4 lists index 1
    # of the first block, and masks without 1 are still dropped after slot 2;
    # every cell has the one label, so every mask has one code under any naming
    (
        "index-past-its-block",
        corpus.matrix_from_rows(
            AlternatingSnake.build([[-1, 4], [2, 5], [5, 6], [2, 4]], [1, 3, 4], 6),
            tuple(tuple((x, Interval(0, 1)) for x in line) for line in [(1, 2), (1, 2, 3), (2, 3), (1, 4)]),
        ),
        30,
        30,
    ),
]


class TestPackedSum:
    """The sweep keys each term by a packed multiplicity code: one count field per label."""

    def test_budget_edges_unchanged(self):
        # the README's figures: the connected run answered at r = 21, refused at 22,
        # and the staircase refused at r = 21
        assert standard_expansion(corpus.connected_run(21)).sigma_count == 17711
        for s in (corpus.connected_run(22), corpus.staircase(21)):
            with pytest.raises(UnsupportedSnakeError, match=f"more than {DET_MAX_STEPS} steps"):
                standard_expansion(s)

    @pytest.mark.parametrize(
        "m, name, steps",
        [pytest.param(m, _lambda_order, steps, id=key) for key, m, steps, _ in PINNED_STEPS]
        + [pytest.param(m, weights_naming(m.snake.n), steps, id=f"{key}-weights") for key, m, steps, _ in PINNED_STEPS]
        + [pytest.param(m, lambda iv: None, steps, id=f"{key}-none") for key, m, _, steps in PINNED_STEPS],
    )
    def test_step_total_pinned(self, monkeypatch, m, name, steps):
        # each matrix is answered with exactly ``steps`` steps allowed and refused with one fewer
        monkeypatch.setattr(determinant, "DET_MAX_STEPS", steps)
        signed_sum(m, name)
        monkeypatch.setattr(determinant, "DET_MAX_STEPS", steps - 1)
        with pytest.raises(UnsupportedSnakeError, match=f"more than {steps - 1} steps"):
            signed_sum(m, name)

    @pytest.mark.parametrize("r", [255, 256, 1000])  # one-byte fields below 256 slots, two from 256
    def test_field_widths(self, r):
        s = AlternatingSnake.single_run([[-3 * t, -3 * t + 1] for t in range(r)], 3)
        e = standard_expansion(s)
        assert (e.terms, e.sigma_count) == (((s.weight(), 1),), 1)
        assert det_leibniz(snake_matrix(s)) == e.as_ring_element()

    def test_wide_fields_with_repeated_labels(self):
        # 266 slots, so two-byte fields, and the staircase's repeated labels in them;
        # the run is its own blocks, so each staircase term gains the run's weight
        stair = corpus.staircase(10)
        run = AlternatingSnake.single_run([[-3 * t, -3 * t + 1] for t in range(256)], 3)
        s = corpus.concat_separated(stair, run)
        assert s.r == 266
        tail = AlternatingSnake.build(s.intervals[10:], (1, 256), s.n).weight()
        want = [(w * tail, c) for w, c in standard_expansion(stair).terms]
        assert list(standard_expansion(s).terms) == sorted(want)

    def test_memory_follows_the_labels(self):
        # each block counts its fields from its own lowest label and neighbours
        # join first, so a long disconnected run's codes stay short until the last
        # joins: about 1.2 MB at r = 2000, against 9.4 MB when every block's codes
        # span the fields before it
        m = snake_matrix(AlternatingSnake.single_run([[-3 * t, -3 * t + 1] for t in range(2000)], 3))
        tracemalloc.start()
        try:
            signed_sum(m, _lambda_order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize(
        "ivs, breaks, n",
        [
            # [2, 4] is a cell of the first block and the last interval, its own block
            ([[-1, 4], [2, 5], [5, 6], [2, 4]], [1, 3, 4], 6),
            # the second block meets a new label before the one the first block has
            ([[2, 6], [-1, 3], [2, 4], [3, 6]], [1, 2, 4], 4),
            ([[1, 7], [4, 8], [1, 5], [4, 7]], [1, 2, 3, 4], 5),
        ],
    )
    def test_blocks_sharing_a_label(self, ivs, breaks, n):
        s = AlternatingSnake.build(ivs, breaks, n)
        m = snake_matrix(s)
        cut = corpus.diagonal_blocks(determinant._slots(m))
        blocks = [{iv for line in block for _, iv in line} for block in cut]
        assert any(a & b for k, a in enumerate(blocks) for b in blocks[k + 1 :])
        TestSweep.assert_matches_walk([s])

    def test_staircase_repeated_labels(self):
        e = standard_expansion(corpus.staircase(16))
        top = [max(x for _, x in w.gens) for w, _ in e.terms]
        assert (len(top), top.count(2), max(top)) == (1672, 1253, 2)

    def test_key_sees_shared_sorted_pairs(self):
        # name runs once per distinct label; labels with odd lower endpoint are left out
        m = snake_matrix(corpus.staircase(12))
        labels = {iv for row in m.rows for _, iv in row}
        named = []

        def name(iv):
            named.append(iv)
            return None if iv.i % 2 else _lambda_order(iv)

        sums, count = corpus.sparse_sums(signed_sum(m, name))
        assert sorted(named) == sorted(labels) and any(iv.i % 2 for iv in labels)
        for k in sums:
            assert all(a[0] < b[0] for a, b in zip(k, k[1:])) and all(x > 0 for _, x in k)
            assert all(i % 2 == 0 for (_, i), _ in k)
        assert (sums, count) == corpus.walked_signed_sum(m, name)
        assert len(corpus.sparse_sums(signed_sum(m, _lambda_order))[0]) == 200
        # the weights' generators come from one table, so equal pairs are one object
        shared: dict = {}
        for w, _ in _weight_terms(m)[0]:
            assert all(shared.setdefault(p, p) is p for p in w.gens)
        assert any(x == 2 for _, x in shared)

    @pytest.mark.parametrize("ivs", [[[0, 0]], [[0, 2]]])
    def test_every_label_left_out(self, ivs):
        # at n = 1 both labels are boundary labels, so every weight key is empty
        s = AlternatingSnake.build(ivs, [1], 1)
        m = snake_matrix(s)
        e = standard_expansion(s)
        assert (e.terms, e.sigma_count) == (((LWeight.identity(1), 1),), 1)
        assert det_leibniz(m) == det_laplace(m) == RingElement.one(1)
        assert kl_table(s).rows == (((0,), 1),)

    @pytest.mark.parametrize(
        "s, want",
        [
            (AlternatingSnake.build([[0, 1]], [1], 1), [((1,), 1)]),
            # the connected pair [0, 3], [-1, 2] at n = 3, then a disjoint run: [0, 3]
            # is in the pair's identity term and not in its other term
            (
                AlternatingSnake.single_run([(0, 3), (-1, 2)] + [(-5 * t, -5 * t + t % 5) for t in range(3, 10)], 3),
                [((0,), -1), ((1,), 1)],
            ),
        ],
        ids=["one-label", "pair-and-run"],
    )
    def test_one_label_kept(self, s, want):
        # the top-left cell's label alone is kept, so each vector is one multiplicity
        m = snake_matrix(s)
        target = m.rows[0][0][1]
        kept, sums, count = signed_sum(m, lambda iv: iv if iv == target else None)
        sums = sorted(sums)
        assert (kept, sums) == (((target, 1),), want)
        assert corpus.sparse_sums((kept, sums, count)) == corpus.walked_signed_sum(m, lambda iv: iv if iv == target else None)

    @pytest.mark.parametrize(
        "name, interval",
        [
            (_lambda_order, lambda t: (-3 * t, -3 * t + 1)),
            # lengths cycle 0, 1, 2, 3, 4 at n = 3: two labels in five are boundary
            # labels, left out, so two blocks in five hold no kept label
            (lambda iv: None if iv.is_boundary(3) else iv, lambda t: (-5 * t, -5 * t + t % 5)),
        ],
        ids=["kl-rows", "weights"],
    )
    def test_time_per_slot_flat(self, name, interval):
        # a chain of one-slot blocks: each mask counts its bits from its own block,
        # so the sweep's time per slot does not grow with the slots before it, and
        # neither does the decode's
        per_slot = []
        for r in (10_000, 80_000):
            s = AlternatingSnake.single_run([interval(t) for t in range(r)], 3)
            m = snake_matrix(s)
            best = float("inf")
            for _ in range(2):
                start = time.perf_counter()
                _, sums, _ = signed_sum(m, name)
                assert len(list(sums)) == 1
                best = min(best, time.perf_counter() - start)
            per_slot.append(best / r)
        assert per_slot[1] < 2 * per_slot[0]

    @pytest.mark.parametrize("mirrored", [False, True], ids=["descending", "ascending"])
    @pytest.mark.parametrize("run", [100, 300, 65_536], ids=["width-1", "width-2", "width-4"])
    def test_decode_at_every_field_width(self, run, mirrored):
        # Three connected pairs, then a disjoint run whose lengths cycle 3, 4, 0, 1, 2
        # at n = 3, so boundary labels (lengths 0 and 4) alternate with interior ones.
        # Each pair is a 2 x 2 diagonal block with two terms: its own intervals with
        # sign 1, and [a, a + 2] with the boundary [a - 1, a + 3] with sign -1.  Each
        # run interval is a 1 x 1 block.  So the sums are the blocks' terms multiplied
        # out, and the mirror's are the same with every label mirrored.
        label = (lambda i, j: Interval(-j, -i)) if mirrored else Interval
        pairs = [
            [(1, [label(a, a + 3), label(a - 1, a + 2)]), (-1, [label(a, a + 2), label(a - 1, a + 3)])]
            for a in (0, -5, -10)
        ]
        rest = [label(-5 * t, -5 * t + t % 5) for t in range(3, 3 + run)]
        m = snake_matrix(AlternatingSnake.single_run([iv for p in pairs for iv in p[0][1]] + rest, 3))
        # fields of 1, 2 and 4 bytes: fewer than 256 slots, at least 256, at least 65,536
        assert (m.size >= 256, m.size >= 65_536) == (run >= 300, run >= 65_536)
        assert {iv.is_boundary(3) for iv in rest} == {False, True}
        for name in (_lambda_order, lambda iv: None if iv.is_boundary(3) else iv):
            # every label is distinct, so each kept one has multiplicity 1
            fixed = [(x, 1) for iv in rest if (x := name(iv)) is not None]
            want: dict = {}
            for terms in itertools.product(*pairs):
                named = [(x, 1) for _, ivs in terms for iv in ivs if (x := name(iv)) is not None]
                k = tuple(sorted(fixed + named))
                want[k] = want.get(k, 0) + math.prod(sign for sign, _ in terms)
            assert corpus.sparse_sums(signed_sum(m, name)) == (want, 8)


def nested_blocks(count: int, nested: bool) -> SnakeMatrix:
    """``count`` lower-triangular 2 x 2 diagonal blocks, each with one assignment.

    Block q holds three labels.  Nested, they sit at places q, count + q and
    3 * count - 1 - q of the label order, so every block's labels straddle
    the others'; otherwise each block's three are neighbours.
    """
    s = AlternatingSnake.single_run([[-3 * t, -3 * t + 1] for t in range(2 * count)], 3)
    rows = []
    for q in range(count):
        places = (q, count + q, 3 * count - 1 - q) if nested else (3 * q, 3 * q + 1, 3 * q + 2)
        a, c, b = (Interval(t, t + 1) for t in places)
        rows += [((2 * q + 1, a),), ((2 * q + 1, c), (2 * q + 2, b))]
    return corpus.matrix_from_rows(s, tuple(rows))


class TestSumOrder:
    """The sums come out by descending vector where asked, so KL rows need no
    sort, and the expansion sorts its terms on the vectors' bytes."""

    @staticmethod
    def gens(labels, v):
        return tuple((iv, e) for iv, e in zip(labels, v) if e)

    @staticmethod
    def key(v):
        return determinant._generator_key(v, bytes.maketrans(b"\0", b"\xff"))

    @pytest.mark.parametrize("k", range(5))
    def test_byte_key_sorts_like_generators(self, k):
        labels = sorted(Interval(t, t + 1 + t % 3) for t in range(k))
        vectors = list(itertools.product((0, 1, 2, 254), repeat=k))
        random.Random(k).shuffle(vectors)
        assert sorted(vectors, key=self.key) == sorted(vectors, key=lambda v: self.gens(labels, v))

    def test_byte_key_on_longer_vectors(self):
        rng = random.Random(41)
        for k in (5, 12, 40):
            labels = sorted(Interval(t, t + 1 + t % 3) for t in range(k))
            vectors = list({tuple(rng.choice((0, 0, 0, 1, 2, 3, 254)) for _ in range(k)) for _ in range(500)})
            assert sorted(vectors, key=self.key) == sorted(vectors, key=lambda v: self.gens(labels, v))

    @pytest.mark.parametrize(
        "snakes",
        [
            corpus.stable_corpus(0, 300),
            corpus.prime_stable_corpus(137, 80) + corpus.nonprime_stable_corpus(1, 150),
            [corpus.staircase(r) for r in range(4, 17)],
            [corpus.pair_chain(16), corpus.connected_run(12)],
        ],
        ids=["stable", "prime-and-nonprime", "staircases", "chain-and-run"],
    )
    def test_sums_descend_and_rows_ascend(self, snakes):
        for s in snakes:
            m = snake_matrix(s)
            for name in (_lambda_order, weights_naming(s.n)):
                vectors = [v for v, _ in signed_sum(m, name, descending=True)[1]]
                assert all(a > b for a, b in zip(vectors, vectors[1:])), str(s)
            rows = _rows(*signed_sum(m, _lambda_order, descending=True)[:2])
            assert rows == tuple(sorted(rows)), str(s)

    def test_label_in_300_cells_sorts_on_generators(self):
        # a 300 x 300 diagonal of one label, with a 2 x 2 block of two terms at the
        # top: its multiplicities, 300 and 298, do not fit a byte, so the terms sort
        # on their generators
        s = AlternatingSnake.single_run([[-3 * t, -3 * t + 1] for t in range(300)], 3)
        a, b, c = Interval(0, 2), Interval(0, 1), Interval(1, 3)
        m = corpus.matrix_from_rows(s, (((1, a), (2, b)), ((1, c), (2, a)), *(((p, a),) for p in range(3, 301))))
        kept, sums, count = signed_sum(m, weights_naming(3))
        assert kept == ((b, 1), (a, 300), (c, 1))
        assert sorted(sums) == [((0, 300, 0), 1), ((1, 298, 1), -1)]
        walked, walked_count = corpus.walked_signed_sum(m, weights_naming(3))
        assert _weight_terms(m) == ([(LWeight(3, k), c) for k, c in sorted(walked.items())], walked_count)

    @pytest.mark.parametrize(
        "m",
        [
            nested_blocks(5, nested=True),
            snake_matrix(AlternatingSnake.build([[3, 6], [4, 7], [6, 9], [5, 6], [8, 9], [6, 6]], [1, 3, 4, 5, 6], 3)),
        ],
        ids=["synthetic", "stable-snake"],
    )
    def test_interleaved_blocks(self, m):
        # a block whose kept labels straddle another block's: the fields follow the
        # slots instead, and the vectors still come out in stand-in order, descending
        # where asked
        for name in (_lambda_order, lambda iv: iv, lambda iv: None if iv.i % 2 else iv):
            walked = corpus.walked_signed_sum(m, name)
            for descending in (False, True):
                kept, sums, count = signed_sum(m, name, descending=descending)
                sums = list(sums)
                assert not descending or all(a > b for a, b in zip(sums, sums[1:]))
                assert corpus.sparse_sums((kept, sums, count)) == walked

    def test_interleaved_blocks_follow_steps(self):
        # each block's codes span its own labels, so nesting every block's labels
        # around the others' costs about what neighbouring labels cost
        per_block = []
        for nested in (False, True):
            m = nested_blocks(4000, nested)
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                _, sums, _ = signed_sum(m, _lambda_order)
                assert len(list(sums)) == 1
                best = min(best, time.perf_counter() - start)
            per_block.append(best)
        assert per_block[1] < 2 * per_block[0]


class TestDeterminants:
    def test_two_by_two_base_case(self, pair_snake):
        m = snake_matrix(pair_snake)
        direct = fundamental_class(Interval(0, 2), 2) * fundamental_class(
            Interval(-1, 1), 2
        ) - fundamental_class(Interval(0, 1), 2) * fundamental_class(Interval(-1, 2), 2)
        assert det_laplace(m) == direct
        assert det_leibniz(m) == direct

    def test_one_by_one(self):
        s = AlternatingSnake.build([[0, 2]], [1], 3)
        assert det_laplace(snake_matrix(s)) == fundamental_class(Interval(0, 2), 3)

    def test_permuted_minors_accepted(self, pair_snake):
        m = snake_matrix(pair_snake)
        whole = det_laplace(m)
        assert det_laplace(corpus.minor(m, (2, 1), (1, 2))) == -whole
        assert det_laplace(corpus.minor(m, (2, 1), (2, 1))) == whole
        assert det_laplace(corpus.minor(m, (1,), (2,))) == fundamental_class(entry(m, 1, 2), 2)

    def test_block_diagonal_when_disconnected(self):
        s = AlternatingSnake.single_run([[0, 3], [-5, -2]], 8)
        m = snake_matrix(s)
        got = det_laplace(m)
        assert got == fundamental_class(Interval(0, 3), 8) * fundamental_class(
            Interval(-5, -2), 8
        )
        assert got == det_leibniz(m)

    def test_oracle_equality_on_corpus(self, example_one):
        snakes = corpus.stable_corpus(89, 120) + [example_one]
        for s in snakes:
            m = snake_matrix(s)
            assert det_laplace(m) == det_leibniz(m), str(s)

    def test_first_column_recursion(self):
        # prime stable, first run descending: expand along column one by hand
        for s in corpus.prime_stable_corpus(97, 30):
            if s.first_direction() != "left" or s.r == 1:
                continue
            m = snake_matrix(s)
            r = s.r
            total = RingElement.zero(s.n)
            rows = tuple(range(1, r + 1))
            for p in range(1, s.breaks[1] + 1):
                iv = entry(m, p, 1)
                if iv is None:
                    continue
                minor = det_laplace(corpus.minor(m, tuple(x for x in rows if x != p), rows[1:]))
                term = fundamental_class(iv, s.n) * minor
                total = total + (term if (p + 1) % 2 == 0 else -term)
            assert total == det_laplace(m)

    def test_laplace_deeper_than_recursion_limit(self):
        r = 150
        s = AlternatingSnake.single_run([[-3 * t, -3 * t + 1] for t in range(r)], 3)
        m = snake_matrix(s)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + r // 2)
        try:
            got = det_laplace(m)
        finally:
            sys.setrecursionlimit(limit)
        assert len(got.terms) == 1
        assert got == det_leibniz(m)


def leading(r: int) -> list[tuple[int, ...]]:
    """The index sets 1..c of the leading c x c minors of an r x r matrix."""
    return [tuple(range(1, c + 1)) for c in range(1, r + 1)]


class TestDetDimension:
    def test_matches_laplace_dimension(self, example_one):
        snakes = (
            corpus.stable_corpus(101, 150)
            + corpus.nonprime_stable_corpus(103, 50)
            + [example_one]
        )
        for s in snakes:
            m = snake_matrix(s)
            assert det_dimension(m) == det_laplace(m).dimension(), str(s)

    def test_row_permutations_pivot_and_flip_sign(self):
        # a row permutation is no snake's matrix: the elimination refuses it
        # exactly when a leading minor, the pivot it would take, is not positive
        rng = random.Random(107)
        refused = 0
        for s in corpus.stable_corpus(109, 60):
            m = snake_matrix(s)
            perm = list(range(s.r))
            rng.shuffle(perm)
            shuffled = corpus.matrix_from_rows(s, tuple(m.rows[p] for p in perm))
            lead = [det_laplace(corpus.minor(shuffled, idx, idx)).dimension() for idx in leading(s.r)]
            assert lead[-1] == corpus.by_inversions(tuple(perm)) * det_dimension(m), str(s)
            if min(lead) > 0:
                assert det_dimension(shuffled) == lead[-1], str(s)
            else:
                refused += 1
                with pytest.raises(InternalCheckError, match="not a prefix dimension"):
                    det_dimension(shuffled)
        assert refused

    def test_repeated_row_is_singular(self, example_one):
        # a zero leading minor is no prefix dimension, so the elimination refuses it
        rows = snake_matrix(example_one).rows
        repeated = corpus.matrix_from_rows(example_one, (rows[0], rows[0], *rows[2:]))
        assert det_laplace(repeated).dimension() == 0
        with pytest.raises(InternalCheckError, match="pivot 2 .* is 0"):
            det_dimension(repeated)

    def test_pivots_are_prefix_dimensions(self):
        # the leading minors of a stable snake's matrix, in either run direction
        for s in corpus.stable_corpus(113, 40) + corpus.nonprime_stable_corpus(127, 20):
            for t in (s, s.mirror()):
                m = snake_matrix(t)
                for c, idx in enumerate(leading(t.r), 1):
                    minor = det_laplace(corpus.minor(m, idx, idx)).dimension()
                    assert minor >= 1 and minor == det_dimension(snake_matrix(t.segment(0, c))), str(t)

    def test_pair_value(self, pair_snake):
        # C(3,2) C(3,2) - C(3,1) C(3,3)
        assert det_dimension(snake_matrix(pair_snake)) == 6

    def test_inexact_division_is_an_internal_error(self):
        assert _exact(12, 4) == 3
        with pytest.raises(InternalCheckError):
            _exact(7, 2)


class TestStandardExpansion:
    def test_pair_at_rank_two(self, pair_snake):
        e = standard_expansion(pair_snake)
        lead = LWeight.from_generators(
            [(Interval(0, 2), 1), (Interval(-1, 1), 1)], 2
        )
        # the crossed term normalizes: its long factor is a boundary identity
        crossed = LWeight.generator(0, 1, 2)
        assert dict(e.terms) == {lead: 1, crossed: -1}
        assert (e.coefficient(crossed), e.coefficient(LWeight.identity(2))) == (-1, 0)

    def test_single_interval(self):
        s = AlternatingSnake.build([[0, 2]], [1], 3)
        e = standard_expansion(s)
        assert dict(e.terms) == {s.weight(): 1}

    def test_example_one_signs(self, example_one):
        e = standard_expansion(example_one)
        assert e.coefficient(example_one.weight()) == 1
        assert {c for _, c in e.terms} <= {-1, 1}

    def test_unstable_refused(self):
        s = AlternatingSnake.build(
            [[-1, 0], [-3, -1], [-2, 1], [-4, 0], [-3, 2]], [1, 2, 3, 4, 5], 5
        )
        assert not s.is_stable()
        with pytest.raises(UnsupportedSnakeError):
            standard_expansion(s)

    def test_leading_term_and_sign_bound(self):
        for s in corpus.stable_corpus(101, 60):
            e = standard_expansion(s)
            assert e.coefficient(s.weight()) == 1
            uppers = [iv.j for iv in s.intervals]
            lowers = [iv.i for iv in s.intervals]
            if len(set(uppers)) == s.r or len(set(lowers)) == s.r:
                assert {c for _, c in e.terms} <= {-1, 1}

    def test_terms_dominated_by_top(self):
        for s in corpus.stable_corpus(103, 30):
            assert expansion_dominated(standard_expansion(s))

    def test_expansion_matches_determinant(self):
        for s in corpus.stable_corpus(107, 30):
            e = standard_expansion(s)
            assert e.as_ring_element() == det_laplace(snake_matrix(s))

    def test_ring_element_of_multiple_coefficients(self, example_one):
        a = LWeight.generator(0, 2, 5)
        b = LWeight.from_generators([(Interval(-1, 1), 1), (Interval(1, 3), 2)], 5)
        e = StandardExpansion(example_one, ((a, 3), (b, -2)), 8)
        wa, wb = weyl_class(a), weyl_class(b)
        assert e.as_ring_element() == wa + wa + wa - wb - wb

    def test_mirror_equivariance(self, example_one):
        snakes = corpus.stable_corpus(109, 60) + [example_one]
        for s in snakes:
            mirrored = {w.mirrored(): c for w, c in standard_expansion(s).terms}
            assert mirrored == dict(standard_expansion(s.mirror()).terms)


class TestMinorAndSplit:
    def test_example_one_minors(self, example_one):
        assert derived_snake(example_one, 1).intervals == example_one.segment(1, 4).intervals
        for p in (1, 2):
            assert minor_identity_holds(example_one, p)

    @pytest.mark.parametrize(
        "intervals, breaks, n, derived",
        [
            # r = 2: one interval is left, with break vector (1,)
            ([[0, 2], [-1, 1]], [1, 2], 2, [([[-1, 1]], (1,)), ([[0, 1]], (1,))]),
            # a first run of two: its break at 2 merges into r_0
            (
                [[0, 4], [-1, 1], [1, 2], [2, 3]],
                [1, 2, 4],
                5,
                [([[-1, 1], [1, 2], [2, 3]], (1, 3)), ([[0, 1], [1, 2], [2, 3]], (1, 3))],
            ),
            # a first run of four: every break moves down one place
            (
                [[0, 7], [-1, 6], [-2, 5], [-3, 2], [0, 4]],
                [1, 4, 5],
                9,
                [
                    ([[-1, 6], [-2, 5], [-3, 2], [0, 4]], (1, 3, 4)),
                    ([[0, 6], [-2, 5], [-3, 2], [0, 4]], (1, 3, 4)),
                    ([[0, 6], [-1, 5], [-3, 2], [0, 4]], (1, 3, 4)),
                    ([[0, 6], [-1, 5], [-2, 2], [0, 4]], (1, 3, 4)),
                ],
            ),
        ],
        ids=["r2", "first-run-of-two", "first-run-of-four"],
    )
    def test_derived_break_vectors(self, intervals, breaks, n, derived):
        s = AlternatingSnake.build(intervals, breaks, n)
        got = [derived_snake(s, p) for p in range(1, s.breaks[1] + 1)]
        assert [([list(iv) for iv in d.intervals], d.breaks) for d in got] == derived
        assert {d.n for d in got} == {n}

    def test_rank_one_vacuous(self):
        s = AlternatingSnake.build([[0, 2]], [1], 3)
        assert minor_identity_holds(s, 1)

    def test_minor_guards(self, example_one):
        single = AlternatingSnake.build([[0, 2]], [1], 3)
        with pytest.raises(IndexError, match="only minor"):
            minor_identity_holds(single, 2)
        with pytest.raises(ValueError, match="no derived snake"):
            derived_snake(single, 1)
        # positions 1..r_1 = 1..2 only
        for p in (0, 3):
            with pytest.raises(IndexError):
                derived_snake(example_one, p)
        split = AlternatingSnake.single_run([[0, 3], [-5, -2]], 8)
        with pytest.raises(UnsupportedSnakeError, match="prime stable"):
            derived_snake(split, 1)
        with pytest.raises(UnsupportedSnakeError, match="prime stable"):
            minor_identity_holds(split, 1)

    def test_prime_stable_corpus(self):
        for s in corpus.prime_stable_corpus(113, 40):
            r1 = s.breaks[1] if s.k >= 1 else 1
            for p in range(1, r1 + 1):
                assert minor_identity_holds(s, p), (str(s), p)

    @pytest.mark.parametrize("mirrored", [False, True], ids=["descending", "ascending"])
    def test_other_derived_snake_fails(self, example_one, monkeypatch, mirrored):
        # another prime stable snake of the same size and rank, with another determinant
        s = example_one.mirror() if mirrored else example_one
        assert minor_identity_holds(s, 1)
        other = derived_snake(s, 2)
        assert other.is_prime() and other.is_stable()
        assert det_laplace(snake_matrix(other)) != det_laplace(snake_matrix(derived_snake(s, 1)))
        monkeypatch.setattr(determinant, "derived_snake", lambda s, p: other)
        assert not minor_identity_holds(s, 1)

    @pytest.mark.parametrize("mirrored", [False, True], ids=["descending", "ascending"])
    def test_other_cells_fail(self, example_one, monkeypatch, mirrored):
        # rows 1, 2 and columns 1, 2 of the derived snake's matrix swapped: the
        # determinant is the same, the cells are not
        s = example_one.mirror() if mirrored else example_one
        derived = derived_snake(s, 1)
        assert derived.is_connected()
        build = determinant.snake_matrix
        swap = (2, 1, *range(3, derived.r + 1))

        def swapped(t):
            m = build(t)
            return corpus.minor(m, swap, swap) if t == derived else m

        assert swapped(derived) != build(derived)
        assert det_laplace(swapped(derived)) == det_laplace(build(derived))
        monkeypatch.setattr(determinant, "snake_matrix", swapped)
        assert not minor_identity_holds(s, 1)

    def test_split_worked_example(self):
        s = AlternatingSnake.build([[0, 4], [-2, 1], [1, 4]], [1, 2, 3], 5)
        assert split_identity_holds(s)

    def test_split_block_diagonal(self):
        s = AlternatingSnake.single_run([[0, 3], [-5, -2]], 8)
        assert split_identity_holds(s)

    def test_split_corpus(self):
        for s in corpus.nonprime_stable_corpus(127, 40):
            assert split_identity_holds(s), str(s)

    def test_split_at_every_cut(self):
        for s in corpus.nonprime_stable_corpus(131, 25):
            whole = det_laplace(snake_matrix(s))
            for c in s.cut_positions():
                left = det_laplace(snake_matrix(s.segment(0, c)))
                right = det_laplace(snake_matrix(s.segment(c, s.r)))
                assert whole == left * right, (str(s), c)

    def test_split_rejects_prime(self, example_one):
        with pytest.raises(ValueError):
            split_identity_holds(example_one)

    def test_split_rejects_unstable(self):
        s = AlternatingSnake.build([[-1, 0], [-3, -1], [-2, 1], [-4, 0], [-3, 2]], [1, 2, 3, 4, 5], 5)
        with pytest.raises(UnsupportedSnakeError, match="stated for stable snakes"):
            split_identity_holds(s)
