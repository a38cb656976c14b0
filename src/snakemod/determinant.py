"""Snake matrices, their nonzero permutations, and exact determinants.

The matrix attached to a snake has entry (p, l) equal to the fundamental
class at [i_p, j_l] when three conditions hold: the interval is valid, the
span of positions between p and l is connected, and l falls in the break
window of a run containing p (wide window for a descending run, tight for
an ascending one, with out-of-range break indices clamped to 1 and r).  The
determinant of this matrix is the irreducible class of a stable snake,
expanded over standard module classes.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain, product
from math import comb, prod
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple

from .errors import InternalCheckError, UnsupportedSnakeError
from .intervals import Interval, is_connected_pair
from .lweight import LWeight, leq
from .ring import RingElement, fundamental_class
from .snakes import LEFT, RIGHT, AlternatingSnake

# signed_sum's time and memory follow its steps, not the assignment count
DET_MAX_STEPS = 2_500_000


class SnakeMatrix(NamedTuple):
    """The snake matrix as its nonzero cells, 1-based: ``rows[p - 1]`` holds row p's
    (column, label) pairs by ascending column and ``cols[l - 1]`` column l's
    (row, label) pairs by ascending row.

    ``entries`` is the dense r x r view with None for a zero, built on each
    read.  No determinant route uses it; the benchmark reads it.
    """

    snake: AlternatingSnake
    rows: tuple[tuple[tuple[int, Interval], ...], ...]
    cols: tuple[tuple[tuple[int, Interval], ...], ...]

    @property
    def size(self) -> int:
        return len(self.rows)

    @property
    def entries(self) -> tuple[tuple[Interval | None, ...], ...]:
        out = []
        for row in self.rows:
            dense: list[Interval | None] = [None] * self.size
            for l, iv in row:
                dense[l - 1] = iv
            out.append(tuple(dense))
        return tuple(out)


def _clamped_break(s: AlternatingSnake, t: int) -> int:
    if t < 0:
        return 1
    if t > s.k:
        return s.r
    return s.breaks[t]


def _windows(s: AlternatingSnake, along_rows: bool) -> list[tuple[int, int]]:
    """(lo, hi) per 1-based position: the break windows of the runs holding it.

    A position at an inner break lies in two runs whose windows both contain
    it, so their union is again one range.
    """
    if s.k == 0:
        return [(1, 1), (1, 1)]
    out = [(s.r + 1, 0)] * (s.r + 1)
    for m in range(1, s.k + 1):
        d = s.directions[m - 1]
        wide = d == LEFT if along_rows else d == RIGHT
        if wide:
            lo, hi = _clamped_break(s, m - 2), _clamped_break(s, m + 1)
        else:
            lo, hi = s.breaks[m - 1], s.breaks[m]
        for idx in range(s.breaks[m - 1], s.breaks[m] + 1):
            a, b = out[idx]
            out[idx] = (min(a, lo), max(b, hi))
    return out


def snake_matrix(s: AlternatingSnake) -> SnakeMatrix:
    r, n, ivs = s.r, s.n, s.intervals
    # connected blocks: an entry needs every pair between its row and column connected
    starts = [1] + [t + 1 for t in range(1, r) if not is_connected_pair(ivs[t - 1], ivs[t], n)]
    ends = [b - 1 for b in starts[1:]] + [r]
    row_windows = _windows(s, True)
    col_windows = _windows(s, False)
    rows: list[tuple[tuple[int, Interval], ...]] = []
    cols: list[list[tuple[int, Interval]]] = [[] for _ in range(r)]
    for a, b in zip(starts, ends):
        by_j = sorted(range(a, b + 1), key=lambda l: ivs[l - 1].j)
        js = [ivs[l - 1].j for l in by_j]
        for p in range(a, b + 1):
            i = ivs[p - 1].i
            row_lo, row_hi = row_windows[p]
            cells = []
            # the well-formed cells of the block: 0 <= j_l - i_p <= n + 1
            for l in sorted(by_j[bisect_left(js, i) : bisect_right(js, i + n + 1)]):
                keep = row_lo <= l <= row_hi
                col_lo, col_hi = col_windows[l]
                if keep != (col_lo <= p <= col_hi):
                    raise InternalCheckError(
                        f"row and column entry rules disagree at ({p}, {l}) for {s}"
                    )
                if keep:
                    iv = Interval(i, ivs[l - 1].j)
                    cells.append((l, iv))
                    cols[l - 1].append((p, iv))
            rows.append(tuple(cells))
    return SnakeMatrix(s, tuple(rows), tuple(map(tuple, cols)))


def det_dimension(m: SnakeMatrix) -> int:
    """det(m) with each label V[i,j] evaluated at binomial(n+1, j-i), exactly.

    Sparse fraction-free (Bareiss) elimination on dict rows, touching only
    the rows with an entry in the pivot column.  A row the pivot does not
    reach keeps its entries and the pivot they are relative to; the first
    time a later pivot reaches it, it is rescaled to the current pivot.  Every
    division is exact because Bareiss entries are minors, so a remainder
    raises InternalCheckError.
    """
    n1 = m.snake.n + 1
    rows = [{l - 1: comb(n1, iv.length) for l, iv in row} for row in m.rows]
    live_in_col = [{p - 1 for p, _ in col} for col in m.cols]
    rel = [1] * len(rows)  # the pivot each stored row is relative to
    prev = 1
    pivot_rows = []
    for c, live in enumerate(live_in_col):
        if not live:
            return 0
        p = min(live)
        pivot_rows.append(p)
        top = _rescaled(rows[p], prev, rel[p])
        for l in top:
            live_in_col[l].discard(p)
        piv = top.pop(c)
        for q in live:
            row = _rescaled(rows[q], prev, rel[q])
            a = row.pop(c)
            for l in row.keys() - top.keys():
                row[l] = _exact(piv * row[l], prev)
            for l, v in top.items():
                x = _exact(piv * row.get(l, 0) - a * v, prev)
                if x:
                    if l not in row:
                        live_in_col[l].add(q)
                    row[l] = x
                elif l in row:
                    del row[l]
                    live_in_col[l].discard(q)
            rows[q], rel[q] = row, piv
        prev = piv
    return _permutation_sign(tuple(pivot_rows)) * prev


def _rescaled(row: dict[int, int], prev: int, rel: int) -> dict[int, int]:
    if rel == prev:
        return row
    return {l: _exact(v * prev, rel) for l, v in row.items()}


def _exact(x: int, d: int) -> int:
    q, rem = divmod(x, d)
    if rem:
        raise InternalCheckError(f"fraction-free elimination left a remainder ({x} / {d})")
    return q


def _permutation_sign(perm: tuple[int, ...]) -> int:
    """The sign of the inversions of distinct values, from the cycles of their ranks."""
    rank = {v: k for k, v in enumerate(sorted(perm))}
    dest, swaps = [rank[v] for v in perm], 0
    for k in range(len(dest)):
        while dest[k] != k:  # each swap settles one value, so len(perm) - cycles swaps
            t = dest[k]
            dest[k], dest[t] = dest[t], t
            swaps += 1
    return -1 if swaps % 2 else 1


def walk(depth: int, children: Callable[[list], Iterable]) -> Iterator[tuple]:
    """Every sequence of ``depth`` choices, depth first.

    ``children(prefix)`` lists the choices that may follow ``prefix``; a
    choice is never None.  One iterator per filled slot sits on an explicit
    stack, so depth costs no recursion.
    """
    prefix: list = []
    stack = [iter(children(prefix))]
    while stack:
        c = next(stack[-1], None)
        if c is None:
            stack.pop()
            if prefix:
                prefix.pop()
        elif len(stack) == depth:
            yield (*prefix, c)
        else:
            prefix.append(c)
            stack.append(iter(children(prefix)))


def _slots(m: SnakeMatrix) -> tuple[tuple[tuple[int, Interval], ...], ...]:
    """The candidates of each slot of an assignment, per the first-run convention.

    For a descending first run slot l holds the row paired with column l;
    for an ascending first run, the column paired with row l.
    """
    return m.cols if m.snake.first_direction() == LEFT else m.rows


def _assignments(m: SnakeMatrix) -> Iterator[tuple]:
    """The nonzero assignments as walks of (index, used mask) choices, slot by slot."""
    cand = _slots(m)

    def children(prefix: list) -> list:
        used = prefix[-1][1] if prefix else 0
        return [(x, used | 1 << x) for x, _ in cand[len(prefix)] if not used >> x & 1]

    return walk(m.size, children)


def nonzero_permutations(m: SnakeMatrix) -> list[tuple[int, ...]]:
    """All assignments with nonzero entry product, per the first-run convention.

    1-based, in lexicographic order; the identity always appears.
    """
    return [tuple(c[0] for c in leaf) for leaf in _assignments(m)]


def _blocks(m: SnakeMatrix) -> Iterator[tuple[int, tuple]]:
    """The slots cut into the matrix's diagonal blocks.

    A block ends at the first slot b where no slot since the last cut has a
    candidate past b.  Yields each block's slots after the number of slots
    before it, whose indices they use up.
    """
    cand = _slots(m)
    start = hi = 0
    for b, line in enumerate(cand, 1):
        hi = max(hi, line[-1][0]) if line else hi
        if hi <= b:
            yield start, cand[start:b]
            start = b


def _over_budget() -> UnsupportedSnakeError:
    return UnsupportedSnakeError(
        f"the signed sum would take more than {DET_MAX_STEPS} steps "
        "(candidates tried plus labels written or keyed)"
    )


def _sweep(start: int, block: tuple, budget: int) -> tuple[dict, int, int]:
    """One sweep over a block's slots, merged on the indices used.

    Each bitmask of used indices keeps its assignments' count and their
    signed sum per sorted tuple of labels.  Indices 1..start, which the
    earlier blocks take, start out used.  Placing x flips the sign once per
    larger index already used; a mask is dropped when it misses an index
    whose last candidate slot has passed, and a label tuple when its sum is
    zero.  Returns the sums, the count and the steps taken (candidates tried
    plus labels written), refusing once they pass ``budget``.
    """
    last = {x: b for b, line in enumerate(block) for x, _ in line}
    passed = [0] * len(block)  # per slot, the indices whose last candidate it is
    for x, b in last.items():
        passed[b] |= 1 << x
    states: dict[int, list] = {(1 << start + 1) - 2: [{(): 1}, 1]}
    need = steps = 0
    for size, (line, done) in enumerate(zip(block, passed), 1):
        need |= done
        nxt: dict[int, list] = {}
        for used, (terms, count) in states.items():
            steps += len(line)
            for x, iv in line:
                mask = used | 1 << x
                if mask == used or mask & need != need:
                    continue
                slot = nxt.get(mask)
                if slot is None:
                    slot = nxt[mask] = [{}, 0]
                slot[1] += count
                steps += len(terms) * size
                if steps > budget:
                    raise _over_budget()
                acc, odd = slot[0], (used >> x).bit_count() & 1
                for labels, c in terms.items():
                    k = bisect_left(labels, iv)
                    t = (*labels[:k], iv, *labels[k:])
                    c = acc.get(t, 0) + (-c if odd else c)
                    if c:
                        acc[t] = c
                    else:
                        del acc[t]
        states = nxt
    terms, count = states.get((1 << start + len(block) + 1) - 2, ({}, 0))
    return terms, count, steps


def signed_sum(m: SnakeMatrix, key: Callable[[tuple[Interval, ...]], Hashable]) -> tuple[dict, int]:
    """Signs of the nonzero assignments summed under ``key`` of their labels.

    ``key`` must depend on the label multiset only: it sees each surviving
    multiset once, as the concatenation of one sorted tuple per block.
    Returns the nonzero sums and the number of assignments.  Refuses with
    UnsupportedSnakeError when the sweeps and the labels handed to ``key``
    come to more than DET_MAX_STEPS steps.
    """
    labels: list[list[tuple[Interval, ...]]] = []
    coeffs: list[list[int]] = []
    count, steps = 1, 0
    for start, block in _blocks(m):
        terms, c, taken = _sweep(start, block, DET_MAX_STEPS - steps)
        labels.append(list(terms))
        coeffs.append(list(terms.values()))
        count *= c
        steps += taken
    if steps + prod(map(len, labels)) * m.size > DET_MAX_STEPS:
        raise _over_budget()
    acc: dict = {}
    for parts, cs in zip(product(*labels), product(*coeffs)):
        k = key(tuple(chain.from_iterable(parts)))
        acc[k] = acc.get(k, 0) + prod(cs)
    return {k: c for k, c in acc.items() if c}, count


def _label_weight(m: SnakeMatrix) -> Callable[[tuple[Interval, ...]], LWeight]:
    n = m.snake.n
    pair = {iv: (iv, 1) for row in m.rows for _, iv in row}
    return lambda ivs: LWeight.from_generators(map(pair.__getitem__, ivs), n)


def det_leibniz(m: SnakeMatrix) -> RingElement:
    """Signed sum over the nonzero assignments; the product of the labels is a weight."""
    sums, _ = signed_sum(m, _label_weight(m))
    return RingElement.from_terms(m.snake.n, sums.items())


def det_laplace(
    m: SnakeMatrix,
    rows: tuple[int, ...] | None = None,
    cols: tuple[int, ...] | None = None,
) -> RingElement:
    """Cofactor expansion column by column, merged on the rows used.

    One sweep over ``cols`` in order keeps the value of each partial
    expansion under the bitmask of the row positions it used.  The row at
    position x takes the cofactor sign (-1)^k, k the free positions below x,
    and a state is dropped when it is zero or misses a row whose last
    nonzero column has passed.
    """
    n = m.snake.n
    all_idx = tuple(range(1, m.size + 1))
    rows = all_idx if rows is None else tuple(rows)
    cols = all_idx if cols is None else tuple(cols)
    if len(rows) != len(cols):
        raise ValueError("row and column sets must have equal size")
    if any(len(set(idx)) != len(idx) or not set(idx) <= set(all_idx) for idx in (rows, cols)):
        raise ValueError(f"rows and columns must be distinct indices in 1..{m.size}")
    pos = {p: x for x, p in enumerate(rows)}
    lines = [
        [(pos[p], fundamental_class(iv, n).terms) for p, iv in m.cols[l - 1] if p in pos]
        for l in cols
    ]
    last = {x: b for b, line in enumerate(lines) for x, _ in line}
    states = {0: RingElement.one(n)}
    need = 0  # the rows whose last nonzero column has been swept
    for b, line in enumerate(lines):
        need |= sum(1 << x for x, _ in line if last[x] == b)
        acc: dict[int, list] = {}
        for used, val in states.items():
            for x, label in line:
                mask = used | 1 << x
                if used >> x & 1 or mask & need != need:
                    continue
                odd = (x - (used & (1 << x) - 1).bit_count()) & 1
                terms = acc.setdefault(mask, [])
                for g, d in label:
                    terms.extend((w * g, -c * d if odd else c * d) for w, c in val.terms)
        states = {k: v for k, t in acc.items() if not (v := RingElement.from_terms(n, t)).is_zero}
    return states.get((1 << len(rows)) - 1, RingElement.zero(n))


@dataclass(frozen=True)
class StandardExpansion:
    """Signed multiplicities of standard classes in an irreducible class."""

    snake: AlternatingSnake
    terms: tuple[tuple[LWeight, int], ...]
    sigma_count: int

    def coefficient(self, w: LWeight) -> int:
        for weight, c in self.terms:
            if weight == w:
                return c
        return 0

    def as_ring_element(self) -> RingElement:
        return RingElement.from_terms(self.snake.n, self.terms)


def standard_expansion(s: AlternatingSnake) -> StandardExpansion:
    """Expand the class of a stable snake over standard module labels."""
    if not s.is_stable():
        raise UnsupportedSnakeError(f"{s} is not stable; the expansion is not defined")
    m = snake_matrix(s)
    sums, count = signed_sum(m, _label_weight(m))
    terms = tuple(sorted(sums.items()))
    return StandardExpansion(s, terms, count)


def derived_snake(s: AlternatingSnake, p: int) -> AlternatingSnake:
    """The size r-1 snake matching the minor at row p (column p when ascending)."""
    if s.r == 1:
        raise ValueError("a single-interval snake has no derived snake")
    if not (s.is_prime() and s.is_stable()):
        raise UnsupportedSnakeError("derived snakes are defined for prime stable snakes")
    r1 = s.breaks[1]
    if not 1 <= p <= r1:
        raise IndexError(f"p = {p} out of range 1..{r1}")
    if s.first_direction() == LEFT:
        head = [Interval(s.interval(t).i, s.interval(t + 1).j) for t in range(1, p)]
    else:
        head = [Interval(s.interval(t + 1).i, s.interval(t).j) for t in range(1, p)]
    # every break moves down one place; a break at 2 lands on r_0 = 1 and merges with it
    breaks = (1, *(b - 1 for b in s.breaks[1:] if b > 2))
    return AlternatingSnake.build((*head, *s.intervals[p:]), breaks, s.n)


def minor_identity_holds(s: AlternatingSnake, p: int) -> bool:
    """Minor at p of the snake matrix vs the derived snake's full matrix.

    Determinants must agree always; when the derived snake is connected the
    two matrices must also agree cell by cell.
    """
    if s.r == 1:
        if p != 1:
            raise IndexError("p = 1 is the only minor of a 1 x 1 matrix")
        return True
    if not (s.is_prime() and s.is_stable()):
        raise UnsupportedSnakeError("the minor identity is stated for prime stable snakes")
    m = snake_matrix(s)
    all_idx = tuple(range(1, s.r + 1))
    if s.first_direction() == LEFT:
        rows = tuple(x for x in all_idx if x != p)
        cols = all_idx[1:]
    else:
        rows = all_idx[1:]
        cols = tuple(x for x in all_idx if x != p)
    sp = derived_snake(s, p)
    mp = snake_matrix(sp)
    if det_laplace(m, rows, cols) != det_laplace(mp):
        return False
    if sp.is_connected():
        at = {l: c for c, l in enumerate(cols, 1)}
        sub = tuple(tuple((at[l], iv) for l, iv in m.rows[rp - 1] if l in at) for rp in rows)
        if sub != mp.rows:
            return False
    return True


def split_identity_holds(s: AlternatingSnake) -> bool:
    """det A(s) = det A(first factor span) * det A(rest) at the first cut."""
    if not s.is_stable():
        raise UnsupportedSnakeError("the split identity is stated for stable snakes")
    cuts = s.cut_positions()
    if not cuts:
        raise ValueError("snake is prime; nothing to split")
    l = cuts[0]
    whole = det_laplace(snake_matrix(s))
    left = det_laplace(snake_matrix(s.segment(0, l)))
    right = det_laplace(snake_matrix(s.segment(l, s.r)))
    return whole == left * right


def expansion_dominated(e: StandardExpansion) -> bool:
    """Every label of the expansion sits below the snake's weight."""
    top = e.snake.weight()
    return all(leq(w, top) for w, _ in e.terms)
