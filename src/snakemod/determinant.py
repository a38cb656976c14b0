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
from itertools import compress
from math import comb
from operator import getitem, itemgetter
from struct import unpack
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple

from .errors import InternalCheckError, UnsupportedSnakeError
from .frozen import Frozen, _set
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


def _windows(s: AlternatingSnake, directions: tuple[str, ...], along_rows: bool) -> list[tuple[int, int]]:
    """(lo, hi) per 1-based position: the break windows of the runs holding it.

    A position at an inner break lies in two runs whose windows both contain
    it, so their union is again one range.
    """
    if s.k == 0:
        return [(1, 1), (1, 1)]
    out = [(s.r + 1, 0)] * (s.r + 1)
    for m, d in enumerate(directions, 1):
        wide = d == LEFT if along_rows else d == RIGHT
        if wide:
            lo, hi = s.breaks[max(m - 2, 0)], s.breaks[min(m + 1, s.k)]
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
    directions = s.directions
    row_windows = _windows(s, directions, True)
    col_windows = _windows(s, directions, False)
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
    """det(m) with each label V[i,j] evaluated at binomial(n+1, j-i), exactly,
    for the matrix of a stable snake.

    Sparse fraction-free (Bareiss) elimination on dict rows along the slots
    of ``_slots``: slot c pivots on its own index and clears that index
    from the later slots that list it, so only they are touched.  The pivot
    after slot c is the leading c x c minor, the dimension of the snake's
    first c positions by the determinantal formula, so a pivot that is not
    positive raises InternalCheckError.  A row the pivot does not reach
    keeps its entries and the pivot they are relative to; the first time a
    later pivot reaches it, it is rescaled to the current pivot.  Every
    division is exact because Bareiss entries are minors, so a remainder
    raises InternalCheckError.
    """
    n1 = m.snake.n + 1
    slots = _slots(m)
    rows = [{x - 1: comb(n1, iv.length) for x, iv in line} for line in slots]
    across = m.rows if slots is m.cols else m.cols
    live_in_col = [{x - 1 for x, _ in line} for line in across]  # the rows listing each index
    rel = [1] * len(rows)  # the pivot each stored row is relative to
    prev = 1
    for c, live in enumerate(live_in_col):
        top = _rescaled(rows[c], prev, rel[c])
        for l in top:
            live_in_col[l].discard(c)
        piv = top.pop(c, 0)
        if piv <= 0:
            raise InternalCheckError(f"pivot {c + 1} of {m.snake} is {piv}, not a prefix dimension")
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
    return prev


def _rescaled(row: dict[int, int], prev: int, rel: int) -> dict[int, int]:
    if rel == prev:
        return row
    return {l: _exact(v * prev, rel) for l, v in row.items()}


def _exact(x: int, d: int) -> int:
    q, rem = divmod(x, d)
    if rem:
        raise InternalCheckError(f"fraction-free elimination left a remainder ({x} / {d})")
    return q


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


def _over_budget() -> UnsupportedSnakeError:
    return UnsupportedSnakeError(
        f"the signed sum would take more than {DET_MAX_STEPS} steps "
        "(candidates tried plus labels written or keyed)"
    )


def signed_sum(
    m: SnakeMatrix, name: Callable[[Interval], Hashable], *, descending: bool = False
) -> tuple[tuple[tuple[Hashable, int], ...], Iterator[tuple[tuple[int, ...], int]], int]:
    """Signs of the nonzero assignments summed per multiset of their labels.

    ``name`` runs once per distinct label and gives its stand-in, or None to
    leave the label out; stand-ins are distinct and orderable.  Returns the
    kept labels as (stand-in, cell count) pairs sorted by stand-in, the
    nonzero sums as a one-pass iterator of (multiplicity vector, sum) pairs,
    by descending vector where ``descending`` asks for it and in no order
    otherwise, and the number of assignments.  A vector is a tuple with one
    entry per kept label, in that order, and a multiplicity is at most its
    label's cell count.  A left-out label adds nothing, so multisets that
    differ only in left-out labels are summed together and the vectors are
    distinct.  Refuses before it returns, with UnsupportedSnakeError, when
    the sweep and the labels written come to more than DET_MAX_STEPS steps.

    A multiset is keyed by one int, its multiplicity code, with a field of
    ``width`` bytes per kept label; a left-out label has no field and adds 0
    to a code.  A labelling pass names each label, counts a kept label's
    cells and cuts the slots into the matrix's diagonal blocks: a block ends
    at the first slot b where no slot since the last cut has a candidate
    past b.  The kept labels take the fields in stand-in order, the first
    stand-in the most significant, so a code written big-endian is its
    vector and the codes sorted as ints give descending vectors.  One sweep
    over the slots keeps, per bitmask of used indices, its assignments'
    count and their signed sum per code, counted from the block's lowest
    kept field, so a code spans the block's own kept labels.  A mask counts
    its bits from the block: bit 0 stands for the earlier blocks' indices,
    all used, so a candidate among them is tried and skipped.  Placing x
    flips the sign once per larger index already used; a mask is dropped
    when it misses an index whose last candidate slot in its block has
    passed, and a code when its sum is zero.  At a block's end the sweep
    keeps the block's sums and goes on from the one full mask.  The blocks
    combine by adding codes, neighbours in field order first, so that only
    the last sums span the whole matrix.  Where a block's kept labels are
    not neighbours in stand-in order, the kept labels take their fields as
    the slots meet them instead, so that a block's codes still span its own
    labels, each vector is reordered as it is decoded, and the vectors
    themselves are sorted where ``descending`` asks.
    """
    # a multiplicity is at most m.size: 1 byte below 256 slots, 2 below 65,536, then 4 or 8
    width = 1 << ((m.size.bit_length() - 1) // 8).bit_length()
    bits = 8 * width
    # per kept label: its field, its cell count (which bounds its multiplicity),
    # the last block holding it, its stand-in and its place among the kept
    # labels as the slots meet them; a left-out label's table is None
    tables: dict[Interval, list | None] = {}
    kept: list[list] = []
    cand = _slots(m)
    last = [0] * (m.size + 1)  # per index, the last slot of its own block listing it
    mine: list[list] = []  # the tables of each block's kept labels, block after block
    cuts = []  # per block, its last slot and the end of its tables in mine
    start = hi = block = 0
    for b, line in enumerate(cand, 1):
        for x, iv in line:
            table = tables.get(iv, False)
            if table is False:  # not named yet
                key = name(iv)
                table = tables[iv] = None if key is None else [0, 0, -1, key, len(kept)]
                if table is not None:
                    kept.append(table)
            if table is not None:
                table[1] += 1
                if table[2] != block:
                    table[2] = block
                    mine.append(table)
            if x > start:  # indices up to start belong to the earlier blocks
                last[x] = b
        hi = max(hi, line[-1][0]) if line else hi
        if hi <= b:
            cuts.append((b, len(mine)))
            start = b
            block += 1
    kept.sort(key=itemgetter(3))
    for field, table in enumerate(reversed(kept)):
        table[0] = field
    # A block whose kept labels are not neighbours in stand-in order would
    # count its codes across other blocks' fields.  Then the kept labels
    # take their fields as the slots meet them, which keeps each block's
    # together, and each vector is put in stand-in order as it is decoded.
    pick = None
    first = 0
    for _, stop in cuts if len(cuts) > 1 else ():  # a lone block holds every kept field
        if stop > first + 1:
            fields = [t[0] for t in mine[first:stop]]
            if max(fields) - min(fields) >= stop - first:
                pick = itemgetter(*(len(kept) - 1 - t[4] for t in kept))
                for table in kept:
                    table[0] = table[4]
                break
        first = stop
    parts: list[tuple[int, dict[int, int]]] = []  # per block, its lowest field and its sums
    count, combos, steps, budget = 1, 1, 0, DET_MAX_STEPS
    states: dict[int, list] = {1: [{0: 1}, 1]}
    blocks = iter(cuts)
    need = start = end = first = 0
    for b, line in enumerate(cand, 1):
        if b > end:  # a block starts: the lowest of its kept fields
            end, stop = next(blocks)
            if len(cuts) == 1:
                low = 0
            elif stop == first + 1:
                low = mine[first][0]
            elif stop == first:  # no kept label: its code is 0, and from above every field
                low = len(kept)  # it moves no other block's codes in a join
            else:
                low = min(t[0] for t in mine[first:stop])
            first = stop
        need |= sum(1 << x - start for x, _ in line if last[x] == b)
        # a left-out label adds nothing to a code
        units = [
            (max(x - start, 0), 0 if (t := tables[iv]) is None else 1 << bits * (t[0] - low)) for x, iv in line
        ]
        size = b - start  # the slots placed so far in the block
        nxt: dict[int, list] = {}
        for used, (terms, ways) in states.items():
            steps += len(units)
            for x, unit in units:
                mask = used | 1 << x
                if mask == used or mask & need != need:
                    continue
                steps += len(terms) * size
                if steps > budget:
                    raise _over_budget()
                odd = (used >> x).bit_count() & 1
                slot = nxt.get(mask)
                if slot is None:
                    slot = nxt[mask] = [{}, 0]
                slot[1] += ways
                acc = slot[0]
                for code, c in terms.items():
                    code += unit
                    c = acc.get(code, 0) + (-c if odd else c)
                    if c:
                        acc[code] = c
                    else:
                        del acc[code]
        states = nxt
        if b == end:
            terms, ways = states.get((1 << b - start + 1) - 1, ({}, 0))
            count *= ways
            combos *= len(terms)
            parts.append((low, terms))
            states, need, start = {1: [{0: 1}, 1]}, 0, b
    if steps + combos * m.size > budget:
        raise _over_budget()
    if len(parts) > 1:
        parts.sort(key=itemgetter(0))  # blocks next to each other in fields join first
    while len(parts) > 1:  # join neighbours, carrying an odd one over
        joined = [_joined(a, b, bits) for a, b in zip(parts[::2], parts[1::2])]
        parts = joined + parts[len(joined) * 2 :]
    sums = parts[0][1]  # its lowest field is field 0, which some block holds
    layout = f">{len(kept)}{'BHIQ'[width.bit_length() - 1]}"
    nbytes = width * len(kept)
    # a sum is zero only where codes cancelled in a join
    codes = sorted(sums, reverse=True) if descending and pick is None else sums
    vectors = ((unpack(layout, code.to_bytes(nbytes, "big")), c) for code in codes if (c := sums[code]))
    if pick is not None:
        vectors = ((pick(v), c) for v, c in vectors)
        if descending:
            vectors = iter(sorted(vectors, reverse=True))
    return tuple((t[3], t[1]) for t in kept), vectors, count


def _joined(a: tuple[int, dict], b: tuple[int, dict], bits: int) -> tuple[int, dict]:
    """Two blocks' signed sums added code by code, each code moved from its
    block's lowest field to the lower of the two (``bits`` to a field)."""
    low = min(a[0], b[0])
    up_a, up_b = bits * (a[0] - low), bits * (b[0] - low)
    out: dict[int, int] = {}
    for x, c in a[1].items():
        x <<= up_a
        for y, d in b[1].items():
            z = x + (y << up_b)
            out[z] = out.get(z, 0) + c * d
    return low, out


def _generator_key(mults: tuple[int, ...], raised: bytes) -> bytes:
    """A multiplicity vector's sort key: its bytes with 0 raised to 0xFF by
    ``raised``, a translation table, and the trailing 0xFF stripped.

    Over the same labels the keys sort as the vectors' (label,
    multiplicity) generators do: a label missing before a present one
    sorts later, and a shorter prefix first.  So every multiplicity must
    be below 0xFF.
    """
    return bytes(mults).translate(raised).rstrip(b"\xff")


def _weight_terms(m: SnakeMatrix) -> tuple[list[tuple[LWeight, int]], int]:
    """The signed sum as (weight, coefficient) terms sorted by weight, and the
    assignment count: a boundary label is the identity generator, so it is left out.

    A weight's generators come from one table of (label, multiplicity)
    pairs, so each pair is one object shared by every weight that has it.
    The sums come in no order, and the terms sort on ``_generator_key`` where
    every multiplicity is below 0xFF, as it is below 255 slots or 255 cells
    of each label, and only the keys are held while they sort; otherwise
    the weights themselves are sorted.  Each weight is built once.
    """
    n = m.snake.n
    kept, sums, count = signed_sum(m, lambda iv: None if iv.is_boundary(n) else iv)
    pairs = [[(iv, e) for e in range(cells + 1)] for iv, cells in kept]
    if not (m.size < 0xFF or all(cells < 0xFF for _, cells in kept)):
        terms = [(LWeight(n, tuple(compress(map(getitem, pairs, mults), mults))), c) for mults, c in sums]
        terms.sort(key=itemgetter(0))  # distinct weights of one rank: no coefficient is compared
        return terms, count
    raised, lowered = bytes.maketrans(b"\0", b"\xff"), bytes.maketrans(b"\xff", b"\0")
    keyed = sorted((_generator_key(mults, raised), c) for mults, c in sums)
    # a key lowered back is the vector's bytes less its trailing zeros
    return [
        (LWeight(n, tuple(compress(map(getitem, pairs, (mults := key.translate(lowered))), mults))), c)
        for key, c in keyed
    ], count


def det_leibniz(m: SnakeMatrix) -> RingElement:
    """Signed sum over the nonzero assignments; the product of the labels is a weight."""
    return RingElement.from_terms(m.snake.n, _weight_terms(m)[0])


def det_laplace(m: SnakeMatrix) -> RingElement:
    """Cofactor expansion of the whole matrix column by column, merged on the rows used.

    One sweep over the columns in order keeps the value of each partial
    expansion under the bitmask of the rows it used.  A row takes the
    cofactor sign (-1)^k, k the free rows of smaller index, and a state is
    dropped when it is zero or misses a row whose last nonzero column has
    passed.
    """
    n = m.snake.n
    lines = [[(p - 1, fundamental_class(iv, n).terms) for p, iv in line] for line in m.cols]
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
    return states.get((1 << m.size) - 1, RingElement.zero(n))


class StandardExpansion(Frozen):
    """Signed multiplicities of standard classes in an irreducible class."""

    __slots__ = ("snake", "terms", "sigma_count")

    def __init__(
        self, snake: AlternatingSnake, terms: tuple[tuple[LWeight, int], ...], sigma_count: int
    ) -> None:
        _set(self, "snake", snake)
        _set(self, "terms", terms)
        _set(self, "sigma_count", sigma_count)

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
    terms, count = _weight_terms(snake_matrix(s))
    return StandardExpansion(s, tuple(terms), count)


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

    The minor drops row p and column 1 (row 1 and column p when ascending)
    and is renumbered as a SnakeMatrix of the derived snake.  Determinants
    must agree always; when the derived snake is connected the two matrices
    must also be equal.
    """
    if s.r == 1:
        if p != 1:
            raise IndexError("p = 1 is the only minor of a 1 x 1 matrix")
        return True
    if not (s.is_prime() and s.is_stable()):
        raise UnsupportedSnakeError("the minor identity is stated for prime stable snakes")
    m = snake_matrix(s)
    row, col = (p, 1) if s.first_direction() == LEFT else (1, p)

    def kept(lines, drop, across):  # every line but ``drop``, less index ``across``, renumbered
        return tuple(
            tuple((x - (x > across), iv) for x, iv in line if x != across)
            for y, line in enumerate(lines, 1)
            if y != drop
        )

    sp = derived_snake(s, p)
    minor = SnakeMatrix(sp, kept(m.rows, row, col), kept(m.cols, col, row))
    mp = snake_matrix(sp)
    return det_laplace(minor) == det_laplace(mp) and (not sp.is_connected() or minor == mp)


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
