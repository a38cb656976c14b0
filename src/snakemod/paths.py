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

from itertools import islice
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


def _stacked_children(intervals, n, label, take=list):
    """The paths of each layer strictly below a path of the layer above.

    ``children(t, above)`` lists the down-step sets of layer t that lie
    strictly below the down-step set ``above`` of layer t - 1 (below nothing
    when t = 0), in lexicographic order, each paired with ``label(t, downs)``.
    ``take`` turns the layer's iterator into the list of its down-step sets
    before any is labelled, so it may count them or refuse.  Lists are kept
    per (t, above); ``label`` runs once per layer path, and its (downs,
    label) pair is shared by every list holding it.  With
    d = j_t - j_{t+1} >= 1 and i_t > i_{t+1}, the path D' of layer t+1 lies
    strictly below the path D of layer t exactly when D'[m] <= D[m + d - 1]
    wherever the right side exists.  The lowest down-step set always
    qualifies, so no walk dead-ends and the cost follows the output.
    """
    memo: dict = {}
    labels: list[dict] = [{} for _ in intervals]

    def labelled(t, downs):
        known = labels[t]
        if downs not in known:
            known[downs] = downs, label(t, downs)
        return known[downs]

    def children(t, above):
        if (t, above) not in memo:
            memo[t, above] = [labelled(t, downs) for downs in take(_layer(intervals, n, t, above))]
        return memo[t, above]

    return children


def _layer(intervals, n, t, above):
    """The down-step sets of layer t strictly below ``above``, one at a time
    in lexicographic order (see ``_stacked_children``)."""
    length = intervals[t].length
    # D'[m] <= D[m + d - 1], leaving room for the down steps after m
    bound = above[intervals[t - 1].j - intervals[t].j - 1 :] if t else ()
    caps = [min(n - length + 1 + m, bound[m] if m < len(bound) else n) for m in range(length)]
    steps = lambda pre: range(pre[-1] + 1 if pre else 0, caps[len(pre)] + 1)
    return walk(length, steps) if length else [()]


def _as_left_run(s: AlternatingSnake) -> tuple[Interval, ...]:
    if s.k > 1:
        raise UnsupportedSnakeError("the path model covers single-run snakes only")
    if s.r == 1 or s.first_direction() == LEFT:
        return s.intervals
    return s.intervals[::-1]


def ell_weights(s: AlternatingSnake) -> set[LWeight]:
    """The set of tuple weights; equals the weight support of the snake class.

    There is one weight per tuple, so the set's size is the dimension.  A
    tuple takes ``steps`` = r + the sum of the lengths j_t - i_t, its layers
    and down steps, and the run is refused once the tuples counted times
    ``steps`` pass CHARACTER_MAX_STEPS.  The walk counts a layer list before
    labelling any of it, and the tuples it has reached plus the nodes still
    pending on its stack.  No walk dead-ends
    (``_stacked_children``), so each count is at most the dimension, and at
    the end the tally is the dimension: exactly the runs whose dimension
    times ``steps`` passes the limit are refused.
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

    def take(layer) -> list:
        layer = [*islice(layer, cap + 1)]
        within(len(layer))
        return layer

    within(1)  # every run has a tuple
    if not last:  # one layer: a path's sorted corners are its weight, each corner one shared pair
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

    children = _stacked_children(ivs, n, codes, take)
    gens = pair_of.__getitem__
    weights: set[LWeight] = set()
    # A corner [i, j] is the point (j - i, i + j) of its path, and strictly
    # stacked paths share no point, so no two layers share a corner: the
    # weight is the sorted union of the layers' corners.  Each node of the
    # walk holds the merged codes of the layers above it.  The gens tuple is
    # copied from a list, which sizes it exactly; a tuple grown from an
    # iterator keeps its larger first block.  Each pending node roots tuples
    # of its own, so the tuples tallied plus the nodes pending are at most
    # the dimension, and the stack never holds more than cap nodes.
    nodes, tuples = [(0, (), [])], 0
    while nodes:
        t, above, prefix = nodes.pop()
        kids = children(t, above)
        within(tuples + len(nodes) + len(kids))
        if t == last:
            tuples += len(kids)
            weights.update([LWeight(n, tuple([*map(gens, sorted(prefix + c))])) for _, c in kids])
        else:
            nodes.extend((t + 1, downs, sorted(prefix + c)) for downs, c in kids)
    return weights


def snake_dimension(s: AlternatingSnake) -> int:
    """The dimension of the snake class (its number of stacked path tuples).

    Computed as the evaluated determinant of the snake matrix.
    """
    _as_left_run(s)
    return det_dimension(snake_matrix(s))
