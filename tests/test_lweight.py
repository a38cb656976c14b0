import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
from snakemod import (
    Interval,
    LWeight,
    MalformedIntervalError,
    RankMismatchError,
    RootVector,
    ell_root,
    ell_weights,
    is_connected_pair,
    leq,
    rectangle_root_product,
    root_decompose,
)
from snakemod.lweight import _normalize


def w(pairs, n):
    return LWeight.from_generators([(Interval(a, b), e) for a, b, e in pairs], n)


@st.composite
def lweights(draw, n=3):
    pairs = draw(
        st.lists(
            st.tuples(st.integers(-4, 4), st.integers(0, n + 1), st.integers(-3, 3)),
            max_size=6,
        )
    )
    return w([(i, i + d, e) for i, d, e in pairs], n)


class TestNormalization:
    def test_boundary_generator_erased(self):
        # at n = 1 the length-2 generator is the identity
        assert w([(0, 1, 1), (0, 2, 1)], 1) == w([(0, 1, 1)], 1)

    def test_cancellation(self):
        assert w([(0, 1, 1), (0, 1, -1)], 3).is_identity

    def test_single_generator(self):
        assert w([(0, 2, 2)], 2).gens == ((Interval(0, 2), 2),)

    def test_idempotent(self):
        x = w([(0, 2, 1), (-1, 1, 2), (3, 3, 5)], 3)
        assert LWeight.from_generators(x.gens, x.n) == x

    def test_sorted_by_endpoints(self):
        x = w([(1, 2, 1), (0, 2, 1), (0, 1, 1)], 3)
        assert [iv.as_pair() for iv, _ in x.gens] == [(0, 1), (0, 2), (1, 2)]

    def test_malformed_rejected(self):
        with pytest.raises(MalformedIntervalError):
            w([(-1, 4, 1)], 3)
        with pytest.raises(MalformedIntervalError):
            w([(2, 1, 1)], 3)


class TestNormalizedPairs:
    """``_normalize`` hands back the caller's pair unless it has to build one."""

    def test_bool_exponent_becomes_int(self):
        x = LWeight.from_generators([(Interval(0, 1), True)], 2)
        assert x.gens == ((Interval(0, 1), 1),)
        assert type(x.gens[0][1]) is int
        assert json.dumps(x.to_json()) == '{"n": 2, "gens": [[0, 1, 1]]}'

    def test_list_pair_becomes_tuple(self):
        x = LWeight.from_generators([[Interval(0, 1), 1]], 2)
        assert type(x.gens[0]) is tuple
        assert hash(x) == hash(LWeight.generator(0, 1, 2))

    def test_unsummed_pair_is_reused(self):
        a, b = (Interval(1, 2), -1), (Interval(0, 1), 2)
        gens = _normalize([a, b], 3)
        assert gens == (b, a)
        assert gens[0] is b and gens[1] is a

    def test_summed_pair_is_new(self):
        a, b = (Interval(0, 1), 2), (Interval(0, 1), 3)
        gens = _normalize([a, b], 3)
        assert gens == ((Interval(0, 1), 5),)
        assert gens[0] is not a and gens[0] is not b
        assert type(gens[0][1]) is int

    def test_product_shares_pairs(self):
        x, y = w([(0, 1, 1), (2, 3, -1)], 3), w([(1, 2, 2)], 3)
        want = (x.gens[0], y.gens[0], x.gens[1])
        assert all(p is q for p, q in zip((x * y).gens, want, strict=True))

    def test_zero_sums_dropped(self):
        gens = _normalize([(Interval(0, 1), 2), (Interval(1, 2), 1), (Interval(0, 1), -2)], 3)
        assert gens == ((Interval(1, 2), 1),)

    def test_boundary_lengths_skipped(self):
        keep = (Interval(0, 2), 1)
        assert _normalize([(Interval(5, 5), 1), keep, (Interval(0, 4), -3)], 3) == (keep,)

    def test_malformed_still_raised(self):
        for bad in (Interval(-1, 4), Interval(2, 1)):
            with pytest.raises(MalformedIntervalError):
                _normalize([(Interval(0, 1), 1), (bad, 1)], 3)


class TestGroupLaws:
    @settings(max_examples=60)
    @given(lweights(), lweights(), lweights())
    def test_associative_commutative(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a

    @settings(max_examples=60)
    @given(lweights())
    def test_inverse(self, a):
        assert (a * a.inverse()).is_identity
        assert a.inverse().inverse() == a

    def test_simple_product(self):
        assert w([(0, 1, 1)], 1) * w([(0, 1, 1)], 1) == w([(0, 1, 2)], 1)
        assert w([(0, 1, 1)], 1) * w([(1, 2, 1)], 1) == w([(0, 1, 1), (1, 2, 1)], 1)

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatchError):
            w([(0, 1, 1)], 1) * w([(0, 1, 1)], 2)

    def test_powers(self):
        x = w([(0, 1, 2), (1, 3, -1)], 3)
        assert x**0 == LWeight.identity(3)
        assert x**2 == x * x
        assert x**-1 == x.inverse()


class TestRoots:
    def test_rank_one_root(self):
        # both inverse factors are boundary identities at n = 1
        assert ell_root(Interval(0, 1), 1) == w([(0, 1, 1), (1, 2, 1)], 1)

    def test_rank_two_root(self):
        assert ell_root(Interval(0, 1), 2) == w([(0, 1, 1), (1, 2, 1), (0, 2, -1)], 2)

    def test_longer_root(self):
        assert ell_root(Interval(1, 2), 3) == w([(1, 2, 1), (2, 3, 1), (1, 3, -1)], 3)

    def test_boundary_rejected(self):
        with pytest.raises(MalformedIntervalError):
            ell_root(Interval(2, 2), 3)
        with pytest.raises(MalformedIntervalError):
            ell_root(Interval(0, 4), 3)


def random_connected_sorted_pair(rng, n):
    # i1 < i2 <= j1 < j2 with everything inside a window of width n + 1
    while True:
        i1 = rng.randint(-6, 6)
        i2 = rng.randint(i1 + 1, i1 + n)
        j1 = rng.randint(i2, i1 + n)
        j2 = rng.randint(j1 + 1, i1 + n + 1)
        a, b = Interval(i1, j1), Interval(i2, j2)
        if a.is_well_formed(n) and b.is_well_formed(n) and is_connected_pair(a, b, n):
            return a, b


def grid_root_product(a, b, n):
    """The roots ell_root[i, j] multiplied one by one over the grid [a.i, b.i) x [a.j, b.j)."""
    out = LWeight.identity(n)
    for i in range(a.i, b.i):
        for j in range(a.j, b.j):
            out = out * ell_root(Interval(i, j), n)
    return out


class TestRectangleProduct:
    def test_single_cell(self):
        a, b = Interval(0, 2), Interval(1, 3)
        assert rectangle_root_product(a, b, 3) == ell_root(Interval(0, 2), 3)

    def test_explicit_value(self):
        got = rectangle_root_product(Interval(0, 1), Interval(1, 2), 2)
        assert got == w([(0, 1, 1), (1, 2, 1), (0, 2, -1)], 2)

    def test_boundary_normalized_value(self):
        got = rectangle_root_product(Interval(-1, 1), Interval(0, 2), 2)
        assert got == w([(-1, 1, 1), (0, 2, 1), (0, 1, -1)], 2)

    def test_agrees_with_four_generator_form(self):
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randint(1, 8)
            a, b = random_connected_sorted_pair(rng, n)
            assert rectangle_root_product(a, b, n) == grid_root_product(a, b, n)

    def test_not_connected_rejected(self):
        with pytest.raises(ValueError):
            rectangle_root_product(Interval(0, 1), Interval(5, 6), 8)

    @pytest.mark.parametrize("a, b", [((1, 3), (0, 2)), ((0, 2), (0, 3))], ids=["reversed", "equal-lower"])
    def test_unordered_pair_rejected(self, a, b):
        with pytest.raises(ValueError, match="ordered by lower endpoint"):
            rectangle_root_product(Interval(*a), Interval(*b), 3)


class TestRootDecompose:
    def test_single_root(self):
        vec = root_decompose(ell_root(Interval(0, 1), 2))
        assert vec is not None and vec.coeffs == ((Interval(0, 1), 1),)

    def test_rectangle_grid(self):
        vec = root_decompose(rectangle_root_product(Interval(-1, 1), Interval(1, 2), 4))
        assert vec is not None
        assert vec.coeffs == ((Interval(-1, 1), 1), (Interval(0, 1), 1))

    def test_single_generator_not_in_monoid(self):
        assert root_decompose(w([(0, 1, 1)], 3)) is None

    def test_identity_is_trivial(self):
        vec = root_decompose(LWeight.identity(4))
        assert vec is not None and vec.is_trivial

    def test_round_trip_freeness(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(1, 6)
            cells = {}
            for _ in range(rng.randint(0, 5)):
                i = rng.randint(-4, 4)
                d = rng.randint(1, n)
                cells[Interval(i, i + d)] = rng.randint(1, 3)
            target = LWeight.identity(n)
            for iv, c in cells.items():
                target = target * ell_root(iv, n) ** c
            vec = root_decompose(target)
            assert vec is not None
            assert dict(vec.coeffs) == cells


class TestOrder:
    def test_reflexive(self):
        x = w([(0, 2, 1), (1, 3, 2)], 3)
        assert leq(x, x)

    def test_simple_negative(self):
        assert not leq(w([(0, 1, 1)], 3), w([(1, 2, 1)], 3))

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatchError):
            leq(LWeight.identity(2), LWeight.identity(3))

    def test_root_drop(self):
        top = w([(0, 2, 1)], 3)
        assert leq(top * ell_root(Interval(0, 2), 3).inverse(), top)

    def test_antisymmetry(self):
        # a <= b and b <= a can only happen at equality: a nontrivial root
        # product and its inverse cannot both be nonnegative
        rng = random.Random(3)
        for _ in range(100):
            n = rng.randint(1, 5)
            pairs = [
                (rng.randint(-3, 3), rng.randint(0, n + 1), rng.randint(-2, 2))
                for _ in range(rng.randint(0, 4))
            ]
            a = w([(i, i + d, e) for i, d, e in pairs], n)
            trivial = rng.random() < 0.3
            gamma = LWeight.identity(n)
            if not trivial:
                for _ in range(rng.randint(1, 3)):
                    i = rng.randint(-3, 3)
                    gamma = gamma * ell_root(Interval(i, i + rng.randint(1, n)), n)
            b = a * gamma
            assert leq(a, b)
            assert leq(b, a) == trivial
            if leq(a, b) and leq(b, a):
                assert a == b


class TestMirror:
    def test_generator(self):
        assert w([(0, 4, 1)], 5).mirrored() == w([(-4, 0, 1)], 5)

    @settings(max_examples=60)
    @given(lweights())
    def test_involution(self, a):
        assert a.mirrored().mirrored() == a

    def test_preserves_root_monoid(self):
        rng = random.Random(5)
        for _ in range(100):
            n = rng.randint(1, 6)
            i = rng.randint(-4, 4)
            d = rng.randint(1, n)
            image = ell_root(Interval(i, i + d), n).mirrored()
            assert root_decompose(image) is not None

    def test_respects_order(self):
        rng = random.Random(9)
        for _ in range(60):
            n = rng.randint(1, 5)
            base = [
                (rng.randint(-3, 3), rng.randint(0, n + 1), rng.randint(-2, 2))
                for _ in range(rng.randint(0, 4))
            ]
            a = w([(i, i + d, e) for i, d, e in base], n)
            gamma = LWeight.identity(n)
            for _ in range(rng.randint(0, 2)):
                i = rng.randint(-3, 3)
                d = rng.randint(1, n)
                gamma = gamma * ell_root(Interval(i, i + d), n)
            b = a * gamma
            assert leq(a, b)
            assert leq(a.mirrored(), b.mirrored())


class TestJson:
    def test_round_trip_bit_exact(self):
        x = w([(0, 2, 1), (-1, 1, -2), (2, 4, 3)], 3)
        blob = json.dumps(x.to_json(), sort_keys=True)
        back = LWeight.from_json(json.loads(blob))
        assert back == x
        assert json.dumps(back.to_json(), sort_keys=True) == blob

    def test_shape(self):
        x = w([(1, 2, 1), (0, 2, 1)], 3)
        assert x.to_json() == {"n": 3, "gens": [[0, 2, 1], [1, 2, 1]]}


class TestValueType:
    """A weight is the immutable tuple (n, gens): it sorts, hashes and compares as that tuple."""

    def test_repr(self):
        assert repr(w([(0, 1, 1)], 2)) == "LWeight(n=2, gens=((Interval(i=0, j=1), 1),))"
        assert repr(RootVector(2, ((Interval(0, 1), 3),))) == (
            "RootVector(n=2, coeffs=((Interval(i=0, j=1), 3),))"
        )

    def test_str(self):
        # sorted by interval; exponent 1 is left implicit; boundary generators vanish
        x = w([(1, 3, 2), (0, 2, 1), (0, 1, -1), (4, 4, 7)], 3)
        assert str(x) == "w[0,1]^-1*w[0,2]*w[1,3]^2"
        assert str(LWeight.identity(3)) == "1"

    @pytest.mark.parametrize(
        "value, field",
        [
            (LWeight(2, ((Interval(0, 1), 1),)), "n"),
            (LWeight(2, ((Interval(0, 1), 1),)), "gens"),
            (RootVector(2, ((Interval(0, 1), 1),)), "n"),
            (RootVector(2, ((Interval(0, 1), 1),)), "coeffs"),
        ],
    )
    def test_fields_are_read_only(self, value, field):
        before = tuple(value)
        with pytest.raises(AttributeError):
            setattr(value, field, ())
        assert tuple(value) == before

    def test_weights_of_one_rank_sort_by_endpoints_then_exponent(self):
        rng = random.Random(11)
        for _ in range(20):
            s = corpus.random_single_run(rng, rng.randint(1, 5), rng.randint(1, 3), rng.random() < 0.5)
            weights = list(ell_weights(s))
            rng.shuffle(weights)
            by_key = sorted(weights, key=lambda x: tuple((iv.i, iv.j, e) for iv, e in x.gens))
            assert sorted(weights) == by_key
