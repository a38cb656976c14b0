"""Lattice-path model for the generalized eigenvalue weights of snake classes.

A path for [i, j] at rank n is a function g on 0..n+1 with g(0) = 2j,
g(n+1) = n+1+2i and unit steps.  Interior local minima and maxima encode
intervals; the weight of a path is the product of its minimum corners over
its maximum corners.  Strictly stacked path tuples enumerate the weights of
single-run snake classes, with multiplicity one.  Their number, the class's
dimension, is the snake matrix's determinant evaluated at binomials
(Lindstrom-Gessel-Viennot), so it is computed without building any path.
Elsewhere a path is only the tuple of its down steps; the tests build the
explicit paths as oracles.
"""

from __future__ import annotations

from itertools import chain, islice
from math import comb

from .determinant import det_dimension, snake_matrix, walk
from .errors import UnsupportedSnakeError, _count
from .intervals import Interval
from .lweight import LWeight
from .snakes import LEFT, AlternatingSnake

# ell_weights' work, memory and output grow with the tuples times their layers and down steps
CHARACTER_MAX_STEPS = 400_000


def _corners(downs: tuple[int, ...], j: int, n: int) -> list[tuple[Interval, int]]:
    """The corners of a path of [i, j], read from its down steps, as (interval, exponent).

    The down step d with c down steps before it tops a maximum [j-c, j+d-c]
    (exponent -1) when d >= 1 and d-1 is an up step, and leads into a minimum
    [j-c-1, j+d-c] (exponent +1) when d+1 <= n is an up step.  Their lengths
    lie in 1..n, so no corner is a boundary generator.
    """
    out = []
    for c, d in enumerate(downs):
        if d >= 1 and (c == 0 or downs[c - 1] != d - 1):
            out.append((Interval(j - c, j + d - c), -1))
        if d < n and (c + 1 == len(downs) or downs[c + 1] != d + 1):
            out.append((Interval(j - c - 1, j + d - c), 1))
    return out


def _layer(intervals, n, t, above):
    """The down-step sets of layer t strictly below ``above``, one at a time
    in lexicographic order.

    ``above`` is the down-step set of layer t - 1 (empty when t = 0, below
    nothing).  With d = j_t - j_{t+1} >= 1 and i_t > i_{t+1}, the path D' of
    layer t+1 lies strictly below the path D of layer t exactly when
    D'[m] <= D[m + d - 1] wherever the right side exists.  The lowest
    down-step set always qualifies, so no walk dead-ends and every path
    listed roots at least one tuple.
    """
    length = intervals[t].length
    # D'[m] <= D[m + d - 1], leaving room for the down steps after m
    bound = above[intervals[t - 1].j - intervals[t].j - 1 :] if t else ()
    caps = [min(n - length + 1 + m, bound[m] if m < len(bound) else n) for m in range(length)]
    steps = lambda pre: range(pre[-1] + 1 if pre else 0, caps[len(pre)] + 1)
    return walk(length, steps) if length else [()]


def _as_left_run(s: AlternatingSnake) -> tuple[Interval, ...]:
    if s.k > 1:
        raise UnsupportedSnakeError("the path model covers single-run snakes only")
    if s.first_direction() == LEFT:
        return s.intervals
    return s.intervals[::-1]


def ell_weights(s: AlternatingSnake) -> set[LWeight]:
    """The set of tuple weights; equals the weight support of the snake class.

    There is one weight per tuple, so the set's size is the dimension.  A
    tuple takes ``steps`` = r + the sum of the lengths j_t - i_t, its layers
    and down steps, and the run is refused once the tuples counted times
    ``steps`` pass CHARACTER_MAX_STEPS.  The walk goes layer by layer, top
    first.  Each layer lists the paths below every path of the frontier
    above it, keeping a running tally of the paths listed, and refuses once
    the tally passes the cap, before any path of the layer is coded.  Every
    path listed roots at least one tuple (``_layer``), so the tally is at
    most the dimension, and at the last layer it is the dimension: exactly
    the runs whose dimension times ``steps`` passes the limit are refused,
    and no weight is built before the last layer is counted.
    """
    ivs = _as_left_run(s)
    n, last = s.n, len(ivs) - 1
    steps = len(ivs) + sum(iv.length for iv in ivs)
    cap = CHARACTER_MAX_STEPS // steps

    def within(tuples: int) -> None:
        if tuples > cap:
            raise UnsupportedSnakeError(
                f"the path model would enumerate tuples of {_count(steps)} layers and down steps each, "
                f"at least {tuples} of them, {_count(tuples * steps)} steps; the limit is {CHARACTER_MAX_STEPS}"
            )

    within(1)  # every run has a tuple
    # One layer keeps its own branch: a path's sorted corners are its weight, each
    # corner one shared pair, so it keeps no list, codes or frontier node per path
    # as the layer walk below would ([[0, 1]] at n = 199,999: 1.5 s and 129 MB
    # peak RSS, against 2.2 s and 189 MB through the walk; Python 3.11, 2 CPUs)
    if not last:
        (iv,), share = ivs, {}.setdefault
        # its C(n + 1, length) paths, counted without a walk: C(m, k) >= 2^k for
        # k <= m / 2, so once k reaches cap's bit length the count is past cap,
        # and cap + 1 stands for any larger count
        within(min(comb(n + 1, min(iv.length, n + 1 - iv.length, cap.bit_length())), cap + 1))
        corners = (sorted(_corners(downs, iv.j, n)) for downs in _layer(ivs, n, 0, ()))
        return {LWeight(n, tuple(map(share, c, c))) for c in corners}
    # A corner [i, j] of layer t has i_t <= i and j_t <= j <= i_t + n + 1, so
    # 0 <= j - lo < span and (i - lo) * span + (j - lo) sorts like [i, j].
    # Doubled, plus one for a minimum, it is the corner's code.
    lo = min(iv.i for iv in ivs)
    span = max(iv.i for iv in ivs) + n + 2 - lo
    pair_of: dict[int, tuple[Interval, int]] = {}

    def codes(t, downs):
        out = []
        for pair in _corners(downs, ivs[t].j, n):
            iv, e = pair
            code = ((iv.i - lo) * span + iv.j - lo) * 2 + (e > 0)
            pair_of.setdefault(code, pair)
            out.append(code)
        return sorted(out)

    # A corner [i, j] is the point (j - i, i + j) of its path, and strictly
    # stacked paths share no point, so no two layers share a corner: the
    # weight is the sorted union of the layers' corners.  Each frontier node
    # is a path with the merged codes of its layer and the layers above.
    # The gens tuple is copied from a list, which sizes it exactly; a tuple
    # grown from an iterator keeps its larger first block.
    frontier = [((), [])]
    for t in range(last + 1):
        lists, tally = {}, 0
        for above, _ in frontier:
            if above not in lists:
                lists[above] = [*islice(_layer(ivs, n, t, above), cap + 1)]
            tally += len(lists[above])
            within(tally)
        coded = {downs: codes(t, downs) for downs in dict.fromkeys(chain.from_iterable(lists.values()))}
        if t == last:
            gens = pair_of.__getitem__
            return {
                LWeight(n, tuple([*map(gens, sorted(prefix + coded[downs]))]))
                for above, prefix in frontier
                for downs in lists[above]
            }
        frontier = [(downs, sorted(prefix + coded[downs])) for above, prefix in frontier for downs in lists[above]]


def snake_dimension(s: AlternatingSnake) -> int:
    """The dimension of the snake class (its number of stacked path tuples).

    Computed as the evaluated determinant of the snake matrix.
    """
    _as_left_run(s)
    return det_dimension(snake_matrix(s))
