import random
import re
import time

import pytest

import corpus
from snakemod import AlternatingSnake, FamilyConstraintError, InternalCheckError, InvalidSnakeError
from snakemod.families import nested_prime_snake, snake_from_mu_lambda


class TestMuLambda:
    def test_pair(self):
        s = snake_from_mu_lambda([0, 1], [3, 2], 4)
        assert [iv.as_pair() for iv in s.intervals] == [(0, 2), (1, 3)]
        assert s.breaks == (1, 2)

    def test_repeated_interval_rejected(self):
        # chains pass but construction repeats [0, 2]
        with pytest.raises(InvalidSnakeError) as exc:
            snake_from_mu_lambda([0, 0, 1], [3, 2, 2], 4)
        assert any(d.code == "alt-1" for d in exc.value.diagnostics)

    def test_singleton(self):
        s = snake_from_mu_lambda([0], [2], 3)
        assert [iv.as_pair() for iv in s.intervals] == [(0, 2)]
        assert s.breaks == (1,)

    def test_chain_violations_carry_index(self):
        with pytest.raises(FamilyConstraintError) as exc:
            snake_from_mu_lambda([0, -1], [3, 2], 4)
        assert exc.value.chain == "mu" and exc.value.index == 1
        with pytest.raises(FamilyConstraintError) as exc:
            snake_from_mu_lambda([0, 1], [3, 3], 4)
        assert exc.value.chain == "lambda"
        with pytest.raises(FamilyConstraintError) as exc:
            snake_from_mu_lambda([0, 1], [3, 2], 2)  # n + 1 = lam1 - mu1
        assert exc.value.chain == "length"

    def test_negative_length_past_digit_limit(self):
        # lam_1 - mu_1 = -10^5000 has too many digits to write; the message keeps its sign
        with pytest.raises(FamilyConstraintError) as exc:
            snake_from_mu_lambda([10**5000], [0], -(10**6000))
        assert (exc.value.chain, str(exc.value)) == ("length", "need n + 1 > lam_1 - mu_1 = at most -10^4999")

    def test_float_breaks_not_rounded(self):
        with pytest.raises(ValueError, match="1.7"):
            nested_prime_snake([1.7], [0], [1])
        with pytest.raises(ValueError, match="not True$"):
            nested_prime_snake([True], [0], [1])

    @pytest.mark.parametrize("bad", ["0", 0.0, False], ids=["str", "float", "bool"])
    @pytest.mark.parametrize("at", [0, 1, 2])
    @pytest.mark.parametrize(
        "family, args",
        [(snake_from_mu_lambda, ([0], [1], 1)), (nested_prime_snake, ([1], [0], [1]))],
        ids=["mu-lambda", "nested"],
    )
    def test_non_integer_values_named(self, family, args, at, bad):
        args = list(args)
        args[at] = [bad] if isinstance(args[at], list) else bad
        with pytest.raises(ValueError, match=f"not {re.escape(repr(bad))}$") as exc:
            family(*args)
        assert exc.type is ValueError

    @pytest.mark.parametrize(
        "mu, lam, n, chain, index",
        [
            ([0], [1, 2], 3, "shape", 0),
            ([], [], 3, "shape", 0),
            ([0, 1, 1], [5, 4, 4], 6, "mu", 2),  # mu_2 < mu_3 is strict
            ([0, 1, 2], [5, 4, 5], 6, "lambda", 2),  # lam_2 >= lam_3
            ([0, 3], [4, 2], 4, "length", 2),  # lam_r - mu_r = -1
        ],
    )
    def test_even_steps_and_ends_checked(self, mu, lam, n, chain, index):
        with pytest.raises(FamilyConstraintError) as exc:
            snake_from_mu_lambda(mu, lam, n)
        assert (exc.value.chain, exc.value.index) == (chain, index)

    def test_outputs_validate_and_are_stable(self):
        rng = random.Random(61)
        for _ in range(60):
            s = corpus.random_mu_lambda(rng)
            assert s.is_stable()
            assert s.breaks == ((1,) if s.r == 1 else tuple(range(1, s.r + 1)))

    def test_five_interval_layout(self):
        s = snake_from_mu_lambda([0, 1, 2, 3, 4], [12, 11, 10, 9, 8], 20)
        assert [iv.as_pair() for iv in s.intervals] == [
            (0, 11),
            (2, 12),
            (1, 9),
            (4, 10),
            (3, 8),
        ]


class TestNested:
    def test_worked_instance(self):
        s, n_min = nested_prime_snake([1, 3, 4], [1, 0, -1, 2], [6, 5, 3, 4])
        assert n_min == 6
        assert [iv.as_pair() for iv in s.intervals] == [(1, 6), (0, 5), (-1, 3), (2, 4)]
        assert s.is_prime() and s.is_stable()

    def test_minimal_rank_is_tight(self):
        s, n_min = nested_prime_snake([1, 3, 4], [1, 0, -1, 2], [6, 5, 3, 4])
        # one rank lower, the widest pairing [i_3, j_1] no longer fits
        assert max(iv2.j - iv1.i for iv1 in s.intervals for iv2 in s.intervals) == n_min + 1

    def test_generated_instances_prime_stable_nested(self):
        rng = random.Random(67)
        for _ in range(50):
            s, _ = corpus.random_nested(rng)
            assert s.is_prime() and s.is_stable()
            for m in range(1, s.k):
                rm = s.breaks[m]
                for pos in range(s.breaks[m - 1], rm):
                    for later in range(rm + 1, s.r + 1):
                        inner, outer = s.interval(later), s.interval(pos)
                        assert outer.i <= inner.i < inner.j < outer.j

    def test_break_separation_required(self):
        with pytest.raises(FamilyConstraintError) as exc:
            nested_prime_snake([1, 2, 4], [1, 0, 1, 2], [6, 5, 3, 4])
        assert exc.value.chain == "breaks"

    def test_empty_break_vector_rejected(self):
        with pytest.raises(FamilyConstraintError) as exc:
            nested_prime_snake([], [1, 0, -1, 2], [6, 5, 3, 4])
        assert exc.value.chain == "breaks"

    def test_run_direction_violation(self):
        with pytest.raises(FamilyConstraintError) as exc:
            nested_prime_snake([1, 3, 4], [0, 1, -1, 2], [6, 5, 3, 4])
        assert exc.value.chain == "run"

    def test_junction_violations(self):
        # i_4 must come weakly above i_1
        with pytest.raises(FamilyConstraintError) as exc:
            nested_prime_snake([1, 3, 4], [1, 0, -1, 0], [6, 5, 3, 4])
        assert exc.value.chain == "i-junction"
        # j_2 must stay above j_4
        with pytest.raises(FamilyConstraintError) as exc:
            nested_prime_snake([1, 3, 4], [1, 0, -1, 2], [6, 5, 3, 6])
        assert exc.value.chain in ("j-junction", "run")
        # at the second junction j_3 must stay above j_7 (a valid instance has j_7 = 3)
        with pytest.raises(FamilyConstraintError) as exc:
            nested_prime_snake([1, 3, 6, 8], [-4, -6, -7, -4, -3, 0, -1, -2], [12, 10, 4, 5, 7, 9, 4, 1])
        assert (exc.value.chain, exc.value.index) == ("j-junction", 2)

    def test_unequal_endpoint_vectors_rejected(self):
        with pytest.raises(FamilyConstraintError) as exc:
            nested_prime_snake([1], [0], [1, 2])
        assert exc.value.chain == "shape"

    def test_failed_guarantee_is_an_internal_error(self, monkeypatch):
        monkeypatch.setattr(AlternatingSnake, "is_prime", lambda self: False)
        with pytest.raises(InternalCheckError):
            nested_prime_snake([1, 3, 4], [1, 0, -1, 2], [6, 5, 3, 4])

    def test_delta_violation(self):
        # j_2 falls below i_1, so the pairing [i_1, j_2] would be inverted
        with pytest.raises(FamilyConstraintError) as exc:
            nested_prime_snake([1, 2], [2, 0], [3, 1])
        assert exc.value.chain == "delta"

    def test_delta_names_the_first_violating_pair(self):
        # rows 1 and 2 hold; row 3 fails against i_4 and i_5 but not on the diagonal
        with pytest.raises(FamilyConstraintError) as exc:
            nested_prime_snake([1, 3, 5], [-4, -6, -8, -2, 0], [7, 5, -3, 2, 3])
        assert (exc.value.chain, exc.value.index, str(exc.value)) == ("delta", 3, "need j_3 - i_4 >= 0")

    def test_long_run_checked_in_linear_time(self):
        r = 20_000
        start = time.perf_counter()
        s, n_min = nested_prime_snake([1, r], list(range(r, 0, -1)), list(range(2 * r, r, -1)))
        assert time.perf_counter() - start < 2
        assert (s.r, n_min) == (r, 2 * r - 2)

    def test_mutation_fuzz_flips_a_check(self):
        rng = random.Random(71)
        flips = 0
        for _ in range(40):
            s, _ = corpus.random_nested(rng, k_max=2)
            lows = [iv.i for iv in s.intervals]
            highs = [iv.j for iv in s.intervals]
            t = rng.randrange(s.r)
            coordinate = rng.random() < 0.5
            bump = rng.choice([-3, 3])
            mutated_lows = list(lows)
            mutated_highs = list(highs)
            if coordinate:
                mutated_lows[t] += bump
            else:
                mutated_highs[t] += bump
            try:
                mutant, _ = nested_prime_snake(s.breaks, mutated_lows, mutated_highs)
            except (FamilyConstraintError, InvalidSnakeError):
                flips += 1
            else:
                assert mutant.is_prime() and mutant.is_stable()
        assert flips > 10
