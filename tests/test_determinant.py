import inspect
import itertools
import random
import sys
import time

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
from snakemod.category_o import nu_key
from snakemod.determinant import DET_MAX_STEPS, _exact, _label_weight, det_dimension, signed_sum
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
            return lambda s, along_rows: windows(s, True) if along_rows else [(lo, hi)] * (s.r + 1)

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

    def test_signed_sums_recompute_no_sign(self, monkeypatch):
        # the sweep carries each sign as the parity of its placements
        calls = []
        original = determinant._permutation_sign
        monkeypatch.setattr(
            determinant, "_permutation_sign", lambda perm: calls.append(perm) or original(perm)
        )
        r = 12
        s = corpus.staircase(r)
        assert standard_expansion(s).sigma_count == 2 ** (r - 1)
        assert kl_table(s).rows
        assert calls == []

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
        for s in snakes:
            m = snake_matrix(s)
            for key in (_label_weight(m), nu_key):
                sums, count = signed_sum(m, key)
                assert (sums, count) == corpus.walked_signed_sum(m, key), str(s)

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
        assert len(signed_sum(snake_matrix(corpus.pair_chain(24)), nu_key)[0]) == 2**12

    def test_connected_runs(self):
        self.assert_matches_walk(corpus.connected_run(r) for r in range(1, 17))

    def test_count_is_not_the_factors_product(self):
        # the staircase's prime factors do not split its matrix
        s = corpus.staircase(16)
        assert signed_sum(snake_matrix(s), nu_key)[1] == 2**15
        factors = [signed_sum(snake_matrix(f), nu_key)[1] for f in s.prime_factors()]
        assert factors[0] * factors[1] * factors[2] == 2**13

    def test_long_disconnected_run_is_one_term(self):
        r = 1000
        s = AlternatingSnake.single_run([[-3 * t, -3 * t + 1] for t in range(r)], 3)
        sums, count = signed_sum(snake_matrix(s), nu_key)
        assert count == 1
        assert sums == {tuple(-3 * t for t in range(r)): 1}

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
            signed_sum(m, nu_key)
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

    @pytest.mark.parametrize(
        "rows, cols",
        [((0,), (1,)), ((1, 1), (1, 2)), ((3,), (1,)), ((1,), (-1,)), ((1, 2), (2, 2))],
        ids=["row-zero", "repeated-row", "row-past-end", "col-negative", "repeated-col"],
    )
    def test_minor_indices_checked(self, pair_snake, rows, cols):
        # an index outside 1..2, or a repeated one, names no minor of the matrix
        with pytest.raises(ValueError, match="distinct indices in 1..2"):
            det_laplace(snake_matrix(pair_snake), rows, cols)

    def test_minor_shape_checked(self, pair_snake):
        with pytest.raises(ValueError, match="equal size"):
            det_laplace(snake_matrix(pair_snake), (1, 2), (1,))

    def test_permuted_minors_accepted(self, pair_snake):
        m = snake_matrix(pair_snake)
        whole = det_laplace(m)
        assert det_laplace(m, (2, 1), (1, 2)) == -whole
        assert det_laplace(m, (2, 1), (2, 1)) == whole
        assert det_laplace(m, (1,), (2,)) == fundamental_class(entry(m, 1, 2), 2)

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
                minor = det_laplace(m, tuple(x for x in rows if x != p), rows[1:])
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


class TestPermutationSign:
    """det_dimension's sign from cycles, against the tests' inversion count."""

    def test_every_small_permutation(self):
        # size 0 is the empty tuple, whose sign is +1
        for size in range(7):
            for base in (0, 1):
                for perm in itertools.permutations(range(base, base + size)):
                    assert determinant._permutation_sign(perm) == corpus.by_inversions(perm), perm

    def test_distinct_values_with_gaps(self):
        rng = random.Random(151)
        for _ in range(2000):
            perm = tuple(rng.sample(range(-50, 50), rng.randint(0, 12)))
            assert determinant._permutation_sign(perm) == corpus.by_inversions(perm), perm


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
        # a snake matrix has a nonzero diagonal, so permuting its rows is what
        # makes the elimination look below the pivot position
        rng = random.Random(107)
        for s in corpus.stable_corpus(109, 60):
            m = snake_matrix(s)
            perm = list(range(s.r))
            rng.shuffle(perm)
            shuffled = corpus.matrix_from_rows(s, tuple(m.rows[p] for p in perm))
            sign = corpus.by_inversions(tuple(perm))
            assert det_dimension(shuffled) == sign * det_dimension(m), str(s)
            assert det_dimension(shuffled) == det_laplace(shuffled).dimension(), str(s)

    def test_repeated_row_is_singular(self, example_one):
        m = snake_matrix(example_one)
        rows = m.rows
        assert det_dimension(corpus.matrix_from_rows(example_one, (rows[0], rows[0], *rows[2:]))) == 0

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
