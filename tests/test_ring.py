import json
import random

import pytest

from snakemod import (
    Interval,
    LWeight,
    RankMismatchError,
    RingElement,
    fundamental_class,
    weyl_class,
)


def elem(n, *terms):
    return RingElement.from_terms(
        n,
        (
            (LWeight.from_generators([(Interval(a, b), m) for a, b, m in mono], n), c)
            for mono, c in terms
        ),
    )


def random_element(rng, n, max_terms=4):
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        mono = []
        for _ in range(rng.randint(0, 3)):
            i = rng.randint(-3, 3)
            d = rng.randint(1, n)
            mono.append((i, i + d, rng.randint(1, 2)))
        terms.append((tuple(mono), rng.randint(-3, 3)))
    return elem(n, *terms)


class TestFundamentalClass:
    def test_interior(self):
        assert fundamental_class(Interval(0, 2), 3) == elem(3, (((0, 2, 1),), 1))

    def test_out_of_range_is_zero(self):
        assert fundamental_class(Interval(-1, 4), 3).is_zero
        assert fundamental_class(Interval(2, 0), 3).is_zero

    def test_boundary_is_unit(self):
        assert fundamental_class(Interval(1, 1), 2) == RingElement.one(2)
        assert fundamental_class(Interval(0, 3), 2) == RingElement.one(2)


class TestRingLaws:
    def test_mul_by_zero(self):
        rng = random.Random(0)
        x = random_element(rng, 3)
        assert (x * RingElement.zero(3)).is_zero

    def test_random_laws(self):
        rng = random.Random(1)
        for _ in range(50):
            n = rng.randint(1, 4)
            a, b, c = (random_element(rng, n) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert (a - a).is_zero

    def test_single_product(self):
        got = fundamental_class(Interval(0, 1), 3) * fundamental_class(Interval(1, 2), 3)
        assert got == elem(3, (((0, 1, 1), (1, 2, 1)), 1))

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatchError):
            RingElement.one(2) + RingElement.one(3)

    def test_coefficient(self):
        x = elem(3, (((0, 2, 1),), -2), ((), 5))
        assert x.coefficient(LWeight.generator(0, 2, 3)) == -2
        assert x.coefficient(LWeight.identity(3)) == 5
        assert x.coefficient(LWeight.generator(0, 1, 3)) == 0


class TestDimension:
    def test_fundamental(self):
        assert fundamental_class(Interval(0, 1), 1).dimension() == 2

    def test_unit(self):
        assert RingElement.one(5).dimension() == 1

    def test_product_of_weights(self):
        w = LWeight.from_generators(
            [(Interval(0, 2), 1), (Interval(-1, 1), 1)], 2
        )
        assert weyl_class(w).dimension() == 9

    def test_ring_homomorphism(self):
        rng = random.Random(2)
        for _ in range(50):
            n = rng.randint(1, 4)
            a, b = random_element(rng, n), random_element(rng, n)
            assert (a * b).dimension() == a.dimension() * b.dimension()
            assert (a + b).dimension() == a.dimension() + b.dimension()


class TestWeylClass:
    def test_identity(self):
        assert weyl_class(LWeight.identity(3)) == RingElement.one(3)

    def test_boundary_factor_invisible(self):
        with_boundary = LWeight.from_generators(
            [(Interval(0, 2), 1), (Interval(0, 4), 1)], 3
        )
        without = LWeight.from_generators([(Interval(0, 2), 1)], 3)
        assert weyl_class(with_boundary) == weyl_class(without)

    def test_multiplicative(self):
        rng = random.Random(3)
        for _ in range(60):
            n = rng.randint(1, 5)
            gens = [
                (Interval(i, i + rng.randint(0, n + 1)), rng.randint(1, 2))
                for i in rng.sample(range(-4, 5), rng.randint(0, 3))
            ]
            a = LWeight.from_generators(gens, n)
            b = LWeight.from_generators(gens[::-1], n) * LWeight.generator(0, 1, n)
            assert weyl_class(a * b) == weyl_class(a) * weyl_class(b)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            weyl_class(LWeight.generator(0, 1, 3).inverse())


class TestMirror:
    def test_generator_relabeling(self):
        assert fundamental_class(Interval(0, 2), 3).mirrored() == fundamental_class(
            Interval(-2, 0), 3
        )

    def test_involution_and_homomorphism(self):
        rng = random.Random(4)
        for _ in range(50):
            n = rng.randint(1, 4)
            a, b = random_element(rng, n), random_element(rng, n)
            assert a.mirrored().mirrored() == a
            assert (a * b).mirrored() == a.mirrored() * b.mirrored()

    def test_commutes_with_weyl_class(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(1, 5)
            gens = [
                (Interval(i, i + rng.randint(0, n + 1)), rng.randint(1, 2))
                for i in rng.sample(range(-4, 5), rng.randint(0, 3))
            ]
            wgt = LWeight.from_generators(gens, n)
            assert weyl_class(wgt).mirrored() == weyl_class(wgt.mirrored())


class TestJson:
    def test_round_trip(self):
        x = elem(3, (((0, 2, 1), (1, 3, 2)), -2), ((), 5))
        blob = json.dumps(x.to_json(), sort_keys=True)
        back = RingElement.from_json(json.loads(blob))
        assert back == x
        assert json.dumps(back.to_json(), sort_keys=True) == blob

    def test_negative_multiplicity_rejected(self):
        data = {"n": 3, "terms": [{"coeff": 1, "mono": [[0, 2, 1], [1, 3, -1]]}]}
        with pytest.raises(ValueError):
            RingElement.from_json(data)

    def test_str(self):
        x = elem(3, (((0, 2, 1), (1, 3, 2)), -2), ((), 5), (((0, 1, 1),), 1))
        assert str(x) == "5 + V[0,1] - 2*V[0,2]*V[1,3]^2"
        assert str(RingElement.zero(3)) == "0"

    def test_canonical_term_order(self):
        x = elem(2, (((0, 1, 1),), 1), ((), 3), (((0, 1, 2),), -1))
        degrees = [sum(m for *_ , m in t["mono"]) for t in x.to_json()["terms"]]
        assert degrees == sorted(degrees)
