"""Exact integer polynomial ring on fundamental class symbols V[i,j].

This is the computable shadow of the Grothendieck ring: classes are
polynomials in the commuting symbols V[i,j] with [i,j] interior at rank n.
Out-of-range symbols are zero, boundary symbols (length 0 or n+1) are the
unit; products of symbols represent standard module classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable

from .errors import RankMismatchError
from .intervals import Interval, _check_ints
from .lweight import LWeight, _word


def _term_key(term: tuple[LWeight, int]) -> tuple:
    # graded, then lexicographic on the sorted generator list
    w = term[0]
    return (sum(e for _, e in w.gens), w.gens)


@dataclass(frozen=True)
class RingElement:
    """An integer polynomial in the fundamental class symbols, at rank n.

    Each monomial is the dominant weight whose exponents it carries.
    """

    n: int
    terms: tuple[tuple[LWeight, int], ...]

    @classmethod
    def zero(cls, n: int) -> "RingElement":
        return cls(n, ())

    @classmethod
    def one(cls, n: int) -> "RingElement":
        return cls(n, ((LWeight.identity(n), 1),))

    @classmethod
    def from_terms(cls, n: int, items: Iterable[tuple[LWeight, int]]) -> "RingElement":
        acc: dict[LWeight, int] = {}
        for mono, c in items:
            acc[mono] = acc.get(mono, 0) + c
        return cls(n, tuple(t for t in sorted(acc.items(), key=_term_key) if t[1] != 0))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, mono: LWeight) -> int:
        for m, c in self.terms:
            if m == mono:
                return c
        return 0

    def _require_same_rank(self, other: "RingElement") -> None:
        if self.n != other.n:
            raise RankMismatchError(f"rank mismatch: {self.n} != {other.n}")

    def __add__(self, other: "RingElement") -> "RingElement":
        self._require_same_rank(other)
        return RingElement.from_terms(self.n, (*self.terms, *other.terms))

    def __neg__(self) -> "RingElement":
        return RingElement(self.n, tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self + (-other)

    def __mul__(self, other: "RingElement") -> "RingElement":
        self._require_same_rank(other)
        items = []
        for ma, ca in self.terms:
            for mb, cb in other.terms:
                items.append((ma * mb, ca * cb))
        return RingElement.from_terms(self.n, items)

    def mirrored(self) -> "RingElement":
        return RingElement.from_terms(self.n, ((m.mirrored(), c) for m, c in self.terms))

    def dimension(self) -> int:
        """Evaluate each symbol V[i,j] at binomial(n+1, j-i), exactly."""
        total = 0
        for mono, c in self.terms:
            val = c
            for iv, m in mono.gens:
                val *= comb(self.n + 1, iv.length) ** m
            total += val
        return total

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "terms": [
                {"coeff": c, "mono": [[iv.i, iv.j, m] for iv, m in mono.gens]}
                for mono, c in self.terms
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "RingElement":
        n, terms = data["n"], data["terms"]
        _check_ints("n and the coefficients", (n, *(term["coeff"] for term in terms)))
        items = []
        for term in terms:
            mono = LWeight.from_json({"n": n, "gens": term["mono"]})
            if not mono.is_dominant():
                raise ValueError("monomial multiplicities must be positive")
            items.append((mono, term["coeff"]))
        return cls.from_terms(n, items)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, c in self.terms:
            sign = "+" if c >= 0 else "-"
            mag = abs(c)
            text = _word(mono, "V")
            body = text if mag == 1 and mono.gens else f"{mag}*{text}" if mono.gens else str(mag)
            parts.append(f"{sign} {body}")
        joined = " ".join(parts)
        return joined[2:] if joined.startswith("+ ") else joined


def fundamental_class(iv: Interval, n: int) -> RingElement:
    """The class of the symbol at [i, j]: zero out of range, unit on the boundary."""
    if iv.length < 0 or iv.length > n + 1:
        return RingElement.zero(n)
    if iv.is_boundary(n):
        return RingElement.one(n)
    return RingElement(n, ((LWeight(n, ((iv, 1),)), 1),))


def weyl_class(w: LWeight) -> RingElement:
    """The standard module class of a dominant weight: the product of its generators."""
    if not w.is_dominant():
        raise ValueError(f"weight {w} has a negative exponent; no standard class")
    return RingElement(w.n, ((w, 1),))
