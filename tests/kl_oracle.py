"""Verma multiplicities of gl_r from classical Kazhdan-Lusztig theory.

An oracle for ``kl_table`` that shares no code with the determinant: the
KL polynomials of S_r from the standard recursion, each row computed only
when a table needs it, and the character of an irreducible as a signed sum
of KL polynomials at q = 1 (Humphreys, *BGG category O*, 8.4, with 7's
translation to singular weights).

Elements of S_r are one-line tuples x = (x(0), ..., x(r-1)); the length is
the inversion count.  For a vector a, x.a is the vector with entries a[x(i)].
A polynomial is a tuple of integer coefficients, constant term first.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import permutations


@cache
def length(x: tuple[int, ...]) -> int:
    return sum(a > b for k, a in enumerate(x) for b in x[k + 1 :])


def bruhat_leq(x: tuple[int, ...], w: tuple[int, ...]) -> bool:
    """The tableau criterion: every prefix of x, sorted, lies below w's.

    The recursion finds the x below w by lifting instead; the tests compare the two.
    """
    return all(
        a <= b for k in range(1, len(x)) for a, b in zip(sorted(x[:k]), sorted(w[:k]))
    )


def _left(i: int, x: tuple[int, ...]) -> tuple[int, ...]:
    """s_i x: the values i and i + 1 swapped."""
    return tuple(i + 1 if v == i else i if v == i + 1 else v for v in x)


def _add(a: tuple[int, ...], b: tuple[int, ...], scale: int = 1, shift: int = 0) -> tuple[int, ...]:
    """a + scale * q^shift * b."""
    out = list(a) + [0] * max(0, len(b) + shift - len(a))
    for k, c in enumerate(b):
        out[k + shift] += scale * c
    while out and not out[-1]:
        out.pop()
    return tuple(out)


@cache
def _row(w: tuple[int, ...]) -> tuple[dict, dict]:
    """({x: P_{x,w}} over x <= w, {z: mu(z, w)} where it is nonzero), memoised per w.

    For s w < w put v = s w and c = [s x < x]; then
    P_{x,w} = q^(1-c) P_{sx,v} + q^c P_{x,v}
              - sum over z with s z < z of mu(z, v) q^((l(w) - l(z)) / 2) P_{x,z},
    where mu(z, v) is the coefficient of q^((l(v) - l(z) - 1) / 2) in P_{z,v}.
    By the lifting property x <= w exactly when x or s x lies below v, so a
    row is read off the rows below it and only the w asked for are computed.
    """
    lw = length(w)
    if lw == 0:
        return {w: (1,)}, {}
    pos = {v: k for k, v in enumerate(w)}
    i = next(i for i in range(len(w) - 1) if pos[i + 1] < pos[i])
    v = _left(i, w)
    pv, mus = _row(v)
    row = {}
    for x in {y for u in pv for y in (u, _left(i, u))}:
        sx = _left(i, x)
        c = int(length(sx) < length(x))
        p = _add(_add((), pv.get(sx, ()), shift=1 - c), pv.get(x, ()), shift=c)
        for z, m in mus.items():
            if length(_left(i, z)) < length(z):
                p = _add(p, _row(z)[0].get(x, ()), -m, (lw - length(z)) // 2)
        row[x] = p
    mu_w = {}
    for z, p in row.items():
        d = lw - length(z)
        if d % 2 and len(p) > d // 2 and p[d // 2]:
            mu_w[z] = p[d // 2]
    return row, mu_w


def kl_polynomials(r: int) -> dict:
    """{w: {x: P_{x,w}}} over x <= w in S_r."""
    return {w: _row(w)[0] for w in permutations(range(r))}


def verma_multiplicities(mu_plus_rho: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """{nu + rho: c_nu} with ch L(mu) = sum of c_nu ch M(nu), nonzero only.

    a is mu + rho sorted ascending (the antidominant point of its orbit) and
    w the shortest x with x.a = mu + rho; then c_nu is the sum over x with
    x.a = nu + rho of (-1)^(l(w) - l(x)) P_{x,w}(1).
    """
    a, target = tuple(sorted(mu_plus_rho)), tuple(mu_plus_rho)
    w = min((x for x in permutations(range(len(a))) if tuple(a[k] for k in x) == target), key=length)
    out: Counter = Counter()
    for x, p in _row(w)[0].items():
        sign = -1 if (length(w) - length(x)) % 2 else 1
        out[tuple(a[k] for k in x)] += sign * sum(p)
    return {nu: c for nu, c in out.items() if c}
