"""The weight group on interval generators, its root monoid, and the order.

Weights are finite products of commuting generators w[i,j] indexed by
intervals valid at a fixed rank n.  Generators of length 0 or n+1 are the
identity by convention and are erased eagerly, so equality of weights is
plain equality of the normalized exponent maps.

The distinguished roots

    a[i,j] = w[i,j] * w[i+1,j+1] * (w[i+1,j] * w[i,j+1])^-1,   0 < j-i < n+1,

generate a free submonoid; membership in it defines the dominance order
used throughout (``leq``).
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional

from .errors import MalformedIntervalError, RankMismatchError
from .intervals import Interval, _check_ints, is_connected_pair

_exponent = itemgetter(1)


def _normalize(pairs: Iterable[tuple[Interval, int]], n: int) -> tuple[tuple[Interval, int], ...]:
    """Sum exponents per interval, erase boundary generators and zeros, sort.

    A pair that is alone on its interval and has an exact ``int`` exponent is
    kept as the caller's own object, so weights built from shared pairs share
    them.  A new pair is built only for a sum, or as ``(iv, 0 + e)`` for any
    other exponent or pair type, so a ``bool`` exponent still becomes an ``int``.
    """
    acc: dict[Interval, tuple[Interval, int]] = {}
    for pair in pairs:
        iv, e = pair
        d = iv.j - iv.i
        if 0 < d <= n:
            old = acc.get(iv)
            if old is not None:
                acc[iv] = (iv, old[1] + e)
            elif type(e) is int and type(pair) is tuple:
                acc[iv] = pair
            else:
                acc[iv] = (iv, 0 + e)
        elif d != 0 and d != n + 1:
            raise MalformedIntervalError(iv, n)
    return tuple(filter(_exponent, map(acc.__getitem__, sorted(acc))))


def _require_same_rank(a, b) -> None:
    """Raise RankMismatchError unless ``a`` and ``b``, weights or classes, have one rank."""
    if a.n != b.n:
        raise RankMismatchError(f"rank mismatch: {a.n} != {b.n}")


def _word(w: "LWeight", letter: str) -> str:
    """``w`` as a product of ``letter[i,j]^e`` symbols, or "1" for the identity."""
    if not w.gens:
        return "1"
    return "*".join(f"{letter}[{iv.i},{iv.j}]" + (f"^{e}" if e != 1 else "") for iv, e in w.gens)


class LWeight(NamedTuple):
    """A normalized element of the rank-n weight group; one rank's weights sort by ``gens``."""

    n: int
    gens: tuple[tuple[Interval, int], ...]

    @classmethod
    def from_generators(cls, pairs: Iterable[tuple[Interval, int]], n: int) -> "LWeight":
        return cls(n, _normalize(pairs, n))

    @classmethod
    def identity(cls, n: int) -> "LWeight":
        return cls(n, ())

    @classmethod
    def generator(cls, i: int, j: int, n: int) -> "LWeight":
        return cls.from_generators([(Interval(i, j), 1)], n)

    @property
    def is_identity(self) -> bool:
        return not self.gens

    def is_dominant(self) -> bool:
        """True when every exponent is nonnegative (membership in the monoid)."""
        return all(e > 0 for _, e in self.gens)

    def __mul__(self, other: "LWeight") -> "LWeight":
        _require_same_rank(self, other)
        return LWeight.from_generators((*self.gens, *other.gens), self.n)

    def inverse(self) -> "LWeight":
        return LWeight(self.n, tuple((iv, -e) for iv, e in self.gens))

    def __pow__(self, k: int) -> "LWeight":
        if k == 0:
            return LWeight.identity(self.n)
        return LWeight(self.n, tuple((iv, e * k) for iv, e in self.gens))

    def mirrored(self) -> "LWeight":
        """The involution induced by [i, j] -> [-j, -i] on generators."""
        return LWeight.from_generators(((iv.mirrored(), e) for iv, e in self.gens), self.n)

    def to_json(self) -> dict:
        return {"n": self.n, "gens": [[iv.i, iv.j, e] for iv, e in self.gens]}

    @classmethod
    def from_json(cls, data: dict) -> "LWeight":
        n, gens = data["n"], data["gens"]
        _check_ints("n and the generator entries", (n, *chain.from_iterable(gens)))
        return cls.from_generators(((Interval(i, j), e) for i, j, e in gens), n)

    def __str__(self) -> str:
        return _word(self, "w")


def ell_root(iv: Interval, n: int) -> LWeight:
    """The root attached to an interior interval (0 < j - i < n + 1)."""
    if not iv.is_well_formed(n) or iv.is_boundary(n):
        raise MalformedIntervalError(
            iv, n, f"no root at [{iv.i}, {iv.j}]: need 0 < j - i < n + 1 at rank {n}"
        )
    return LWeight.from_generators(
        [
            (iv, 1),
            (Interval(iv.i + 1, iv.j + 1), 1),
            (Interval(iv.i + 1, iv.j), -1),
            (Interval(iv.i, iv.j + 1), -1),
        ],
        n,
    )


def rectangle_root_product(a: Interval, b: Interval, n: int) -> LWeight:
    """Product of roots over the grid [a.i, b.i) x [a.j, b.j).

    Defined for a connected pair with a.i < b.i, and computed as its closed form
    w[a.i,a.j] * w[b.i,b.j] * (w[a.i,b.j] * w[b.i,a.j])^-1.
    """
    if a.i >= b.i:
        raise ValueError(f"pair must be ordered by lower endpoint: {a} vs {b}")
    if not is_connected_pair(a, b, n):
        raise ValueError(f"pair [{a.i},{a.j}], [{b.i},{b.j}] is not connected at rank {n}")
    # the grid product telescopes to its four corners
    return LWeight.from_generators(
        [(a, 1), (b, 1), (Interval(a.i, b.j), -1), (Interval(b.i, a.j), -1)], n
    )


class RootVector(NamedTuple):
    """An element of the free root monoid: nonnegative multiplicities."""

    n: int
    coeffs: tuple[tuple[Interval, int], ...]

    @property
    def is_trivial(self) -> bool:
        return not self.coeffs

    def weight(self) -> LWeight:
        parts: list[tuple[Interval, int]] = []
        for iv, c in self.coeffs:
            for gen, e in ell_root(iv, self.n).gens:
                parts.append((gen, e * c))
        return LWeight.from_generators(parts, self.n)


def root_decompose(w: LWeight) -> Optional[RootVector]:
    """Express ``w`` as a nonnegative product of roots, or return None.

    The exponent of w[a,b] in prod a[i,j]^c is
    c[a,b] + c[a-1,b-1] - c[a-1,b] - c[a,b-1], except at boundary generators
    where the equation is vacuous.  The support of any nonnegative solution
    lies inside the bounding box of the support of ``w``, so scanning the box
    in increasing (a, b) and then re-expanding is a complete decision
    procedure.
    """
    if w.is_identity:
        return RootVector(w.n, ())
    n = w.n
    exps = {iv: e for iv, e in w.gens}
    a_lo = min(iv.i for iv in exps)
    a_hi = max(iv.i for iv in exps)
    b_lo = min(iv.j for iv in exps)
    b_hi = max(iv.j for iv in exps)
    coeffs: dict[tuple[int, int], int] = {}
    for a in range(a_lo, a_hi + 1):
        for b in range(b_lo, b_hi + 1):
            if not 0 < b - a < n + 1:
                continue
            val = (
                exps.get(Interval(a, b), 0)
                - coeffs.get((a - 1, b - 1), 0)
                + coeffs.get((a - 1, b), 0)
                + coeffs.get((a, b - 1), 0)
            )
            if val:
                coeffs[(a, b)] = val
    if any(c < 0 for c in coeffs.values()):
        return None
    vec = RootVector(n, tuple((Interval(a, b), c) for (a, b), c in sorted(coeffs.items())))
    return vec if vec.weight() == w else None


def leq(a: LWeight, b: LWeight) -> bool:
    """Dominance order: a <= b iff b * a^-1 lies in the root monoid."""
    _require_same_rank(a, b)
    return root_decompose(b * a.inverse()) is not None
