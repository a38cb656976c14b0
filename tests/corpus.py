"""Seeded random corpora shared by the test modules."""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import accumulate, combinations, product

from snakemod import (
    LEFT,
    RIGHT,
    AlternatingSnake,
    Interval,
    InvalidSnakeError,
    LWeight,
    MalformedIntervalError,
    SnakeMatrix,
    UnsupportedSnakeError,
    ell_weights,
    nonzero_permutations,
)
from snakemod.determinant import walk
from snakemod.families import nested_prime_snake, snake_from_mu_lambda
from snakemod.lweight import _normalize
from snakemod.paths import _corners, _stacked_children

MAX_TRIES = 2000


@dataclass(frozen=True)
class LatticePath:
    """A path for [i, j] at rank n: g(0..n+1) with g(0) = 2j, g(n+1) = n+1+2i, unit steps."""

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
    return [_lattice_path(iv, n, downs) for downs in combinations(range(n + 1), iv.length)]


def _lattice_path(iv: Interval, n: int, downs: tuple[int, ...]) -> LatticePath:
    """The path of the interval whose down steps (step t joins g(t) to g(t+1)) are ``downs``."""
    down_set = set(downs)
    steps = (-1 if t in down_set else 1 for t in range(n + 1))
    return LatticePath(n, iv, tuple(accumulate(steps, initial=2 * iv.j)))


def corner_set(path: LatticePath) -> CornerSet:
    """The interior local minima (plus) and maxima (minus) of the path, left to right.

    The point (t, g(t)) is the interval [(g - t) / 2, (g + t) / 2]; the
    corners are read off the values, not off the library's down-step rule.
    """
    g = path.values
    plus, minus = [], []
    for t in range(1, path.n + 1):
        corner = Interval((g[t] - t) // 2, (g[t] + t) // 2)
        if g[t - 1] > g[t] < g[t + 1]:
            plus.append(corner)
        elif g[t - 1] < g[t] > g[t + 1]:
            minus.append(corner)
    return CornerSet(tuple(plus), tuple(minus))


def path_weight(path: LatticePath) -> LWeight:
    c = corner_set(path)
    return LWeight.from_generators(
        [*((iv, 1) for iv in c.plus), *((iv, -1) for iv in c.minus)], path.n
    )


def _stacked_downs(intervals, n):
    """Every strictly stacked path tuple of a descending run, as down-step sets.

    Top layer first, in the lexicographic order of the down-step sets, from
    the library's stacking rule with no label on the layer paths.
    """
    children = _stacked_children(intervals, n, lambda t, downs: None)

    def below(prefix):
        return [downs for downs, _ in children(len(prefix), prefix[-1] if prefix else ())]

    return walk(len(intervals), below)


def noncrossing_tuples(s: AlternatingSnake) -> list[tuple[LatticePath, ...]]:
    """The library's stacked down-step sets as explicit path tuples.

    Defined for single-run snakes.  An ascending run is enumerated through
    its reversal (same weight, same class) and the tuples are reported back
    in the input's position order.
    """
    ivs, flipped = _left_run(s)
    path = cache(lambda t, downs: _lattice_path(ivs[t], s.n, downs))
    tuples = [tuple(map(path, range(len(ivs)), stack)) for stack in _stacked_downs(ivs, s.n)]
    return [tup[::-1] for tup in tuples] if flipped else tuples


def dominant_ell_weights(s: AlternatingSnake) -> set[LWeight]:
    return {w for w in ell_weights(s) if w.is_dominant()}


def entry(m, p: int, l: int) -> Interval | None:
    """The label of a snake matrix at 1-based (row, column), or None for a zero."""
    if not (1 <= p <= m.size and 1 <= l <= m.size):
        raise IndexError(f"entry ({p}, {l}) out of range 1..{m.size}")
    return dict(m.rows[p - 1]).get(l)


def pattern(m) -> tuple[tuple[bool, ...], ...]:
    """The nonzero cells of a snake matrix, from its dense view."""
    return tuple(tuple(e is not None for e in row) for row in m.entries)


def transposed(rows, size: int) -> tuple:
    """The (row, label) pairs of each column, by ascending row, from a matrix's rows."""
    cols: list[list] = [[] for _ in range(size)]
    for p, row in enumerate(rows, 1):
        for l, iv in row:
            cols[l - 1].append((p, iv))
    return tuple(map(tuple, cols))


def matrix_from_rows(s: AlternatingSnake, rows: tuple) -> SnakeMatrix:
    """A SnakeMatrix holding ``rows`` and the columns they give."""
    return SnakeMatrix(s, rows, transposed(rows, len(rows)))


def minor(m: SnakeMatrix, rows: tuple[int, ...], cols: tuple[int, ...]) -> SnakeMatrix:
    """The minor of ``m`` on ``rows`` and ``cols`` (1-based), taken in the order
    given and renumbered from 1, as a matrix of the same snake."""
    at = {l: c for c, l in enumerate(cols, 1)}
    return matrix_from_rows(
        m.snake, tuple(tuple(sorted((at[l], iv) for l, iv in m.rows[p - 1] if l in at)) for p in rows)
    )


def by_inversions(perm: tuple[int, ...]) -> int:
    """The sign of a sequence of distinct values, by counting its inversions."""
    inv = sum(a > b for x, a in enumerate(perm) for b in perm[x + 1 :])
    return -1 if inv % 2 else 1


def path_count(s: AlternatingSnake) -> int:
    """Stacked path tuples of a single run, counted layer by layer.

    The path-model oracle for ``snake_dimension``: it builds every path of
    every interval and sums, bottom layer up, the tuples each path can top.
    An ascending run is counted through its reversal.
    """
    ivs, _ = _left_run(s)
    below: list = []
    counts: list[int] = []
    for iv in reversed(ivs):
        layer = enumerate_paths(iv, s.n)
        if below:
            counts = [
                sum(c for b, c in zip(below, counts) if all(x > y for x, y in zip(a.values, b.values)))
                for a in layer
            ]
        else:
            counts = [1] * len(layer)
        below = layer
    return sum(counts)


def stacked_tuples(s: AlternatingSnake) -> list[tuple]:
    """Stacked path tuples of a single run, by brute force.

    The path-model oracle for ``noncrossing_tuples``: the product of every
    interval's paths, in its lexicographic order, filtered on each path lying
    strictly above the next at every point.  An ascending run goes through
    its reversal and is reported in its own position order.
    """
    ivs, flipped = _left_run(s)
    layers = [enumerate_paths(iv, s.n) for iv in ivs]
    kept = [
        tup
        for tup in product(*layers)
        if all(x > y for a, b in zip(tup, tup[1:]) for x, y in zip(a.values, b.values))
    ]
    return [tup[::-1] for tup in kept] if flipped else kept


def summed_ell_weights(s: AlternatingSnake) -> set[LWeight]:
    """``ell_weights`` by summing every corner of each stacked tuple.

    The oracle for the sorted union of the layers' corners: it sums all the
    tuple's corners through the validating normaliser, so a corner shared by
    two layers would add up or cancel here and not there.
    """
    ivs, _ = _left_run(s)
    weights = set()
    for stack in _stacked_downs(ivs, s.n):
        corners = [c for iv, downs in zip(ivs, stack) for c in _corners(downs, iv.j, s.n)]
        weights.add(LWeight(s.n, _normalize(corners, s.n)))
    return weights


def walked_signed_sum(m, name) -> tuple[dict, int]:
    """``signed_sum`` by walking every nonzero assignment.

    The oracle for the column sweep: each assignment's labels are looked up
    cell by cell and its sign is the parity of its inversions, counted here,
    so no parity or merging is shared with the sweep.  Each assignment's
    labels are counted, named, dropped where ``name`` gives None, and keyed
    by their (stand-in, multiplicity) pairs sorted here too.
    """
    cells = {(p, l): iv for p, row in enumerate(m.rows, 1) for l, iv in row}
    left = m.snake.first_direction() == LEFT
    acc: dict = {}
    count = 0
    for sigma in nonzero_permutations(m):
        pairs = [(x, slot) if left else (slot, x) for slot, x in enumerate(sigma, 1)]
        labels = Counter(cells[pair] for pair in pairs)
        k = tuple(sorted((s, e) for iv, e in labels.items() if (s := name(iv)) is not None))
        acc[k] = acc.get(k, 0) + by_inversions(sigma)
        count += 1
    return {k: c for k, c in acc.items() if c}, count


def sparse_sums(result) -> tuple[dict, int]:
    """``signed_sum``'s (kept, vectors, count) as ``walked_signed_sum``'s sparse
    ({((stand-in, multiplicity), ...): sum}, count).

    Checks the shape on the way: one entry per kept label in each vector,
    each multiplicity within its label's cell count, no zero sum and no
    vector twice.
    """
    kept, sums, count = result
    out: dict = {}
    for mults, c in sums:
        assert type(mults) is tuple and len(mults) == len(kept), (mults, kept)
        assert all(0 <= e <= cells for (_, cells), e in zip(kept, mults)) and c
        k = tuple((s, e) for (s, _), e in zip(kept, mults) if e)
        assert k not in out, k
        out[k] = c
    return out, count


def diagonal_blocks(lines) -> list[list]:
    """Slot lines cut into diagonal blocks, ``signed_sum``'s rule restated.

    A block ends at the first slot b where no slot since the last cut has a
    candidate past b.
    """
    blocks, block = [], []
    for b, line in enumerate(lines, 1):
        block.append(line)
        if all(x <= b for seen in block for x, _ in seen):
            blocks.append(block)
            block = []
    return blocks


def _left_run(s: AlternatingSnake) -> tuple[tuple, bool]:
    if s.k > 1:
        raise UnsupportedSnakeError("the path model covers single-run snakes only")
    if s.r == 1 or s.first_direction() == LEFT:
        return s.intervals, False
    return s.intervals[::-1], True


def random_connected_left_run(rng: random.Random, n: int, r: int, base: int = 8) -> AlternatingSnake:
    """A descending run whose adjacent pairs are all connected at rank n."""
    for _ in range(MAX_TRIES):
        i1 = rng.randint(-base, base)
        j1 = i1 + rng.randint(1, n)
        ivs = [(i1, j1)]
        while len(ivs) < r:
            ip, jp = ivs[-1]
            lo_i, hi_i = jp - (n + 1), ip - 1
            if lo_i > hi_i:
                break
            i2 = rng.randint(lo_i, hi_i)
            j2 = rng.randint(ip, min(jp - 1, i2 + n + 1))
            ivs.append((i2, j2))
        if len(ivs) == r:
            return AlternatingSnake.single_run(ivs, n)
    raise RuntimeError("connected run generator starved")


def random_left_run(rng: random.Random, n: int, r: int, base: int = 10) -> AlternatingSnake:
    """A descending run, not necessarily connected."""
    for _ in range(MAX_TRIES):
        i_vals = sorted(rng.sample(range(-base, base + 1), r), reverse=True)
        ivs = []
        prev_j = None
        for i in i_vals:
            hi = i + n + 1 if prev_j is None else min(i + n + 1, prev_j - 1)
            if hi < i:
                break
            j = rng.randint(i, hi)
            ivs.append((i, j))
            prev_j = j
        if len(ivs) == r:
            return AlternatingSnake.single_run(ivs, n)
    raise RuntimeError("run generator starved")


def random_single_run(rng: random.Random, n: int, r: int, connected: bool = True) -> AlternatingSnake:
    s = random_connected_left_run(rng, n, r) if connected else random_left_run(rng, n, r)
    return s.mirror() if rng.random() < 0.5 else s


def concat_separated(a: AlternatingSnake, b: AlternatingSnake, margin: int = 1) -> AlternatingSnake:
    """Join two snakes with a far translation; the junction pair is never connected."""
    want = RIGHT if (a.k == 0 or a.directions[-1] == LEFT) else LEFT
    if b.k >= 1 and b.directions[0] != want:
        b = b.mirror()
    if want == RIGHT:
        delta = (max(iv.j for iv in a.intervals) + margin) - min(iv.i for iv in b.intervals)
    else:
        delta = (min(iv.i for iv in a.intervals) - margin) - max(iv.j for iv in b.intervals)
    ivs = [iv.as_pair() for iv in a.intervals] + [
        (iv.i + delta, iv.j + delta) for iv in b.intervals
    ]
    tail = [x + a.r for x in b.breaks[1:]] or [a.r + 1]
    return AlternatingSnake.build(ivs, (*a.breaks, *tail), max(a.n, b.n))


def random_mu_lambda(rng: random.Random, r_max: int = 6, n_cap: int = 8) -> AlternatingSnake:
    for _ in range(MAX_TRIES):
        r = rng.randint(1, r_max)
        mu = [rng.randint(-3, 0)]
        for t in range(1, r):
            mu.append(mu[-1] + (rng.randint(0, 2) if t % 2 == 1 else rng.randint(1, 2)))
        lam = [mu[-1] + rng.randint(1, 3)]
        for t in range(1, r):
            lam.insert(0, lam[0] + (rng.randint(1, 2) if t % 2 == 1 else rng.randint(0, 2)))
        # rebuilt back to front so the strict/weak pattern lands on the right steps
        lam_ok = all(
            (lam[t - 1] > lam[t]) if t % 2 == 1 else (lam[t - 1] >= lam[t])
            for t in range(1, r)
        )
        n = lam[0] - mu[0]
        if not lam_ok or lam[r - 1] - mu[r - 1] <= 0 or n > n_cap or n < 1:
            continue
        try:
            return snake_from_mu_lambda(mu, lam, n)
        except (InvalidSnakeError, ValueError):
            continue
    raise RuntimeError("mu-lambda generator starved")


def _chain_orders(breaks: tuple[int, ...]) -> tuple[list[int], list[list[int]], list[int]]:
    """Position orders along which j strictly falls and i falls with junctions."""
    k = len(breaks) - 1
    r = breaks[-1]
    if k <= 1:
        return list(range(1, r + 1)), [list(range(1, r + 1))], []
    r1, r2 = breaks[1], breaks[2]
    if k == 2:
        j_order = list(range(1, r1)) + list(range(r2, r1 - 1, -1))
        i_pieces = [list(range(r2, r1, -1)), list(range(1, r1 + 1))]
    else:  # k == 3
        r3 = breaks[3]
        j_order = (
            list(range(1, r1))
            + list(range(r2, r1 - 1, -1))
            + list(range(r2 + 1, r3 + 1))
        )
        i_pieces = [
            list(range(r2, r3 + 1)),
            list(range(r2 - 1, r1, -1)),
            list(range(1, r1 + 1)),
        ]
    junctions = list(range(len(i_pieces) - 1))
    return j_order, i_pieces, junctions


def random_nested(rng: random.Random, k_max: int = 3, n_cap: int | None = None):
    """A prime stable family instance (snake, n_min), retried under any cap."""
    for _ in range(MAX_TRIES):
        k = rng.randint(1, k_max)
        if k == 1:
            breaks = (1,) if rng.random() < 0.15 else (1, rng.randint(2, 5))
        else:
            bl = [1]
            for _ in range(k - 1):
                bl.append(bl[-1] + 2 + rng.randint(0, 1))
            bl.append(bl[-1] + rng.randint(1, 2))
            breaks = tuple(bl)
        r = breaks[-1]
        j_order, i_pieces, junctions = _chain_orders(breaks)
        highs = [0] * r
        v = 0
        for pos in j_order:
            highs[pos - 1] = v
            v -= rng.randint(1, 2)
        lows = [0] * r
        v = 0
        for idx, piece in enumerate(i_pieces):
            for t, pos in enumerate(piece):
                if t == 0 and idx > 0 and rng.random() < 0.4:
                    pass  # junction equality allowed
                elif not (t == 0 and idx == 0):
                    v -= rng.randint(1, 2)
                lows[pos - 1] = v
        shift = max(lows) - min(highs) + rng.randint(1, 2)
        highs = [h + shift for h in highs]
        try:
            snake, n_min = nested_prime_snake(breaks, lows, highs)
        except ValueError:
            continue
        if n_cap is not None and n_min > n_cap:
            continue
        return snake, n_min
    raise RuntimeError("nested generator starved")


def random_shape(rng: random.Random, r_cap: int = 6, n_cap: int = 6):
    """(intervals, breaks, n) whose runs step in alternating directions.

    About half are snakes: the rest break the rank or overlap across a
    break.  The snakes include unstable and non-prime ones.
    """
    n, r = rng.randint(1, n_cap), rng.randint(1, r_cap)
    inner = sorted(rng.sample(range(2, r), rng.randint(0, r - 2))) if r > 2 else []
    breaks = [1, *inner, r] if r > 1 else [1]
    i = rng.randint(-4, 4)
    j = i + rng.randint(0, n + 1)
    ivs = [(i, j)]
    d = rng.choice((1, -1))
    for lo, hi in zip(breaks, breaks[1:]):
        for _ in range(lo, hi):
            i += d * rng.randint(1, 3)
            j += d * rng.randint(1, 3)
            ivs.append((i, j))
        d = -d
    return ivs, breaks, n


def staircase(r: int) -> AlternatingSnake:
    """The mu-lambda staircase mu = 0, 0, 1, 1, ..., lambda = r, r - 1, r - 1, ...

    Fully broken and stable, with 2^(r-1) nonzero assignments that cancel
    to a few percent of terms.
    """
    return snake_from_mu_lambda([t // 2 for t in range(r)], [r - (t + 1) // 2 for t in range(r)], r)


def connected_run(r: int) -> AlternatingSnake:
    """[[-t, -t + 1]] at n = 1: a tridiagonal matrix, Fib(r + 1) assignments, none cancelling."""
    return AlternatingSnake.single_run([(-t, -t + 1) for t in range(r)], 1)


def pair_chain(r: int) -> AlternatingSnake:
    """r/2 connected pairs in one descending run at n = 3, cut between pairs."""
    ivs: list[tuple[int, int]] = []
    for a in range(0, -5 * (r // 2), -5):
        ivs += [(a, a + 3), (a - 1, a + 2)]
    return AlternatingSnake.single_run(ivs, 3)


def stable_corpus(seed: int, count: int, n_cap: int = 8, r_cap: int = 7) -> list[AlternatingSnake]:
    """Mixed valid stable snakes with r <= r_cap and n <= n_cap."""
    rng = random.Random(seed)
    out: list[AlternatingSnake] = []
    while len(out) < count:
        kind = rng.randrange(5)
        n = rng.randint(2, n_cap)
        if kind == 0:
            s = random_single_run(rng, n, rng.randint(1, min(5, r_cap)), connected=True)
        elif kind == 1:
            s = random_single_run(rng, n, rng.randint(1, min(4, r_cap)), connected=False)
        elif kind == 2:
            s = random_mu_lambda(rng, r_max=min(6, r_cap), n_cap=n_cap)
        elif kind == 3:
            s, n_min = random_nested(rng, k_max=2, n_cap=n_cap)
            if n_min > n_cap:
                continue
        else:
            a = random_single_run(rng, n, rng.randint(1, 3), connected=rng.random() < 0.7)
            b = random_single_run(rng, n, rng.randint(1, min(3, r_cap - a.r)), connected=rng.random() < 0.7)
            s = concat_separated(a, b)
        if s.r <= r_cap and s.n <= n_cap and s.is_stable():
            out.append(s)
    return out


def prime_stable_corpus(seed: int, count: int) -> list[AlternatingSnake]:
    rng = random.Random(seed)
    out: list[AlternatingSnake] = []
    while len(out) < count:
        if rng.random() < 0.5:
            s = random_single_run(rng, rng.randint(2, 8), rng.randint(1, 5), connected=True)
        else:
            s, _ = random_nested(rng)
        if s.is_prime() and s.is_stable():
            out.append(s)
    return out


def nonprime_stable_corpus(seed: int, count: int) -> list[AlternatingSnake]:
    rng = random.Random(seed)
    out: list[AlternatingSnake] = []
    while len(out) < count:
        n = rng.randint(2, 8)
        a = random_single_run(rng, n, rng.randint(1, 3), connected=rng.random() < 0.7)
        b = random_single_run(rng, n, rng.randint(1, 3), connected=rng.random() < 0.7)
        s = concat_separated(a, b)
        if rng.random() < 0.25:
            s = concat_separated(s, random_single_run(rng, n, rng.randint(1, 2)))
        if s.is_stable() and not s.is_prime():
            out.append(s)
    return out
