"""Lattice-path model for the generalized eigenvalue weights of snake classes.

A path for [i, j] at rank n is a function g on 0..n+1 with g(0) = 2j,
g(n+1) = n+1+2i and unit steps.  Interior local minima and maxima encode
intervals; the weight of a path is the product of its minimum corners over
its maximum corners.  Strictly stacked path tuples enumerate the weights of
single-run snake classes, with multiplicity one.  Their number, the class's
dimension, is the snake matrix's determinant evaluated at binomials
(Lindstrom-Gessel-Viennot), so it is computed without building any path.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .determinant import det_dimension, snake_matrix, walk
from .errors import MalformedIntervalError, UnsupportedSnakeError
from .intervals import Interval
from .lweight import LWeight
from .snakes import LEFT, AlternatingSnake


@dataclass(frozen=True)
class LatticePath:
    n: int
    interval: Interval
    values: tuple[int, ...]


@dataclass(frozen=True)
class CornerSet:
    plus: tuple[Interval, ...]
    minus: tuple[Interval, ...]


def enumerate_paths(iv: Interval, n: int) -> list[LatticePath]:
    """All paths for the interval; there are binomial(n+1, j-i) of them."""
    if not iv.is_well_formed(n):
        raise MalformedIntervalError(iv, n)
    paths = []
    for downs in combinations(range(n + 1), iv.length):
        down_set = set(downs)
        vals = [2 * iv.j]
        for t in range(n + 1):
            vals.append(vals[-1] + (-1 if t in down_set else 1))
        paths.append(LatticePath(n, iv, tuple(vals)))
    return paths


def corner_set(path: LatticePath) -> CornerSet:
    plus, minus = [], []
    g = path.values
    for t in range(1, path.n + 1):
        if g[t - 1] == g[t] + 1 == g[t + 1]:
            plus.append(Interval((g[t] - t) // 2, (g[t] + t) // 2))
        elif g[t - 1] == g[t] - 1 == g[t + 1]:
            minus.append(Interval((g[t] - t) // 2, (g[t] + t) // 2))
    return CornerSet(tuple(plus), tuple(minus))


def path_weight(path: LatticePath) -> LWeight:
    c = corner_set(path)
    return LWeight.from_generators(
        [*((iv, 1) for iv in c.plus), *((iv, -1) for iv in c.minus)], path.n
    )


def _stacked_layers(intervals, n):
    """The paths of each interval, and a walk over the index tuples of stacked paths."""
    layers = [enumerate_paths(iv, n) for iv in intervals]
    # per consecutive pair of layers, the strictly-above relation
    compat = []
    for above, below in zip(layers, layers[1:]):
        rows = []
        for a in above:
            rows.append(
                [
                    idx
                    for idx, b in enumerate(below)
                    if all(x > y for x, y in zip(a.values, b.values))
                ]
            )
        compat.append(rows)

    def children(prefix):
        return compat[len(prefix) - 1][prefix[-1]] if prefix else range(len(layers[0]))

    return layers, walk(len(layers), children)


def _as_left_run(s: AlternatingSnake):
    if s.k > 1:
        raise UnsupportedSnakeError("the path model covers single-run snakes only")
    if s.r == 1 or s.first_direction() == LEFT:
        return s.intervals, False
    return s.intervals[::-1], True


def noncrossing_tuples(s: AlternatingSnake) -> list[tuple[LatticePath, ...]]:
    """All path tuples with strict pointwise domination between neighbours.

    Defined for single-run snakes.  An ascending run is enumerated through
    its reversal (same weight, same class) and the tuples are reported back
    in the input's position order.
    """
    ivs, flipped = _as_left_run(s)
    layers, stacks = _stacked_layers(ivs, s.n)
    tuples = [tuple(layers[t][i] for t, i in enumerate(idx)) for idx in stacks]
    return [tup[::-1] for tup in tuples] if flipped else tuples


def ell_weights(s: AlternatingSnake) -> set[LWeight]:
    """The set of tuple weights; equals the weight support of the snake class."""
    ivs, _ = _as_left_run(s)
    layers, stacks = _stacked_layers(ivs, s.n)
    gens = [[path_weight(p).gens for p in layer] for layer in layers]
    seen: set[tuple] = set()
    for idx in stacks:
        acc: dict = {}
        for t, i in enumerate(idx):
            for iv, e in gens[t][i]:
                acc[iv] = acc.get(iv, 0) + e
        seen.add(tuple((iv, e) for iv, e in sorted(acc.items()) if e))
    return {LWeight(s.n, key) for key in seen}


def dominant_ell_weights(s: AlternatingSnake) -> set[LWeight]:
    return {w for w in ell_weights(s) if w.is_dominant()}


def snake_dimension(s: AlternatingSnake) -> int:
    """The dimension of the snake class (its number of stacked path tuples).

    Computed as the evaluated determinant of the snake matrix.
    """
    _as_left_run(s)
    return det_dimension(snake_matrix(s))
