"""Alternating snakes: validation, symmetries, and prime factorization.

An alternating snake is an interval tuple together with a break vector
(1 = r_0 < r_1 < ... < r_k = r).  The stretch of positions r_{m-1}..r_m is
the m-th run; runs must be strictly monotone in both endpoint sequences,
consecutive runs must alternate direction, and intervals separated by a
break must not overlap.  Positions are 1-based throughout, matching the
break vector.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from itertools import groupby
from typing import NamedTuple, Optional

from .errors import InvalidSnakeError, UnsupportedSnakeError
from .frozen import Frozen, _set
from .intervals import Interval, _check_ints, as_interval, is_connected_pair, overlaps
from .lweight import LWeight, rectangle_root_product

LEFT = "left"    # both endpoint sequences strictly decreasing
RIGHT = "right"  # both endpoint sequences strictly increasing


def step_direction(a: Interval, b: Interval) -> Optional[str]:
    if a.i < b.i and a.j < b.j:
        return RIGHT
    if a.i > b.i and a.j > b.j:
        return LEFT
    return None


class Diagnostic(NamedTuple):
    """A violated snake condition with its witness positions; it compares as that tuple."""

    code: str  # malformed | breaks | alt-1 | alt0 | alt1 | alt2
    positions: tuple[int, ...]
    message: str

    def to_json(self) -> dict:
        return {"code": self.code, "positions": list(self.positions), "message": self.message}


def _breaks_ok(breaks: tuple[int, ...], r: int) -> bool:
    if r == 1:
        return breaks == (1,)
    if len(breaks) < 2 or breaks[0] != 1 or breaks[-1] != r:
        return False
    return all(a < b for a, b in zip(breaks, breaks[1:]))


def diagnose(intervals, breaks, n: int) -> list[Diagnostic]:
    """Every violated snake condition, each with machine-readable witnesses.

    Input that is not integers (a bool is not) raises ValueError naming the value.
    """
    ivs = tuple(as_interval(p) for p in intervals)
    bl = tuple(breaks)
    _check_ints("breaks and n", (*bl, n))
    r = len(ivs)
    out: list[Diagnostic] = []
    if r == 0:
        return [Diagnostic("malformed", (), "empty interval tuple")]
    for idx, iv in enumerate(ivs, 1):
        if not iv.is_well_formed(n):
            out.append(
                Diagnostic(
                    "malformed",
                    (idx,),
                    f"interval {idx} = [{iv.i}, {iv.j}] is not valid at rank {n}",
                )
            )
    seen: dict[Interval, int] = {}
    for idx, iv in enumerate(ivs, 1):
        if iv in seen:
            out.append(
                Diagnostic(
                    "alt-1",
                    (seen[iv], idx),
                    f"positions {seen[iv]} and {idx} carry the same interval",
                )
            )
        else:
            seen[iv] = idx
    if not _breaks_ok(bl, r):
        out.append(
            Diagnostic(
                "breaks",
                bl,
                f"break vector {list(bl)} must satisfy 1 = r_0 < ... < r_k = {r}",
            )
        )
        return out
    dirs: list[Optional[str]] = []
    for m in range(1, len(bl)):
        lo, hi = bl[m - 1], bl[m]
        steps = [step_direction(ivs[t - 1], ivs[t]) for t in range(lo, hi)]
        if None in steps or len(set(steps)) != 1:
            bad = lo + steps.index(None) if None in steps else lo
            out.append(
                Diagnostic(
                    "alt0",
                    (m, bad),
                    f"run {m} is not strictly monotone in one direction (near position {bad})",
                )
            )
            dirs.append(None)
        else:
            dirs.append(steps[0])
    for m in range(1, len(dirs)):
        if dirs[m - 1] is not None and dirs[m - 1] == dirs[m]:
            out.append(
                Diagnostic("alt1", (m, m + 1), f"runs {m} and {m + 1} do not alternate")
            )
    # a overlaps a later-starting b exactly when a.j lies in [b.i, b.j), so b bisects
    # the (j, position) pairs of the intervals that start before it.  Intervals with
    # equal lower endpoints never overlap, so a group of them joins the pairs only
    # after all of it has been queried.  A single run has no break to overlap across.
    inner = bl[1:-1]
    order = sorted(range(1, r + 1), key=lambda p: ivs[p - 1].i) if inner else []
    ends: list[tuple[int, int]] = []
    found = []
    for _, group in groupby(order, key=lambda p: ivs[p - 1].i):
        group = list(group)
        for q in group:
            b = ivs[q - 1]
            for _, p in ends[bisect_left(ends, (b.i,)) : bisect_left(ends, (b.j,))]:
                if overlaps(ivs[p - 1], b):
                    s, l = min(p, q), max(p, q)
                    between = inner[bisect_right(inner, s) : bisect_left(inner, l)]
                    found.extend((rm, s, l) for rm in between)
        for q in group:
            insort(ends, (ivs[q - 1].j, q))
    out.extend(
        Diagnostic("alt2", (s, rm, l), f"intervals {s} and {l} overlap across break {rm}")
        for rm, s, l in sorted(found)
    )
    return out


class AlternatingSnake(Frozen):
    """A snake at rank n: its intervals and its break vector."""

    __slots__ = ("n", "intervals", "breaks")

    def __init__(self, n: int, intervals: tuple[Interval, ...], breaks: tuple[int, ...]) -> None:
        _set(self, "n", n)
        _set(self, "intervals", intervals)
        _set(self, "breaks", breaks)

    @classmethod
    def build(cls, intervals, breaks, n: int) -> "AlternatingSnake":
        # read each input once: an iterator is used up by the first pass over it
        ivs, bl = tuple(intervals), tuple(breaks)
        problems = diagnose(ivs, bl, n)
        if problems:
            raise InvalidSnakeError(problems)
        return cls(n, tuple(map(Interval._make, ivs)), bl)

    @classmethod
    def single_run(cls, intervals, n: int) -> "AlternatingSnake":
        ivs = tuple(intervals)
        return cls.build(ivs, (1,) if len(ivs) == 1 else (1, len(ivs)), n)

    @property
    def r(self) -> int:
        return len(self.intervals)

    @property
    def k(self) -> int:
        return len(self.breaks) - 1

    def interval(self, p: int) -> Interval:
        """The interval at 1-based position p."""
        if not 1 <= p <= len(self.intervals):
            raise IndexError(f"position {p} out of range 1..{len(self.intervals)}")
        return self.intervals[p - 1]

    @property
    def directions(self) -> tuple[str, ...]:
        """Each run's direction: its first step moves both endpoints one way, as the pairs sort."""
        ivs = self.intervals
        return tuple([RIGHT if ivs[b - 1] < ivs[b] else LEFT for b in self.breaks[:-1]])

    def first_direction(self) -> str:
        # a lone interval is direction-ambiguous; the left convention is used
        return RIGHT if self.k >= 1 and self.intervals[0] < self.intervals[1] else LEFT

    def weight(self) -> LWeight:
        return LWeight.from_generators(((iv, 1) for iv in self.intervals), self.n)

    def segment(self, p: int, q: int) -> "AlternatingSnake":
        """The sub-snake on positions p+1..q with the induced break vector.

        Its runs are stretches of this snake's runs and its breaks some of
        this snake's breaks, so it is valid and is built without checking again.
        """
        if not 0 <= p < q <= self.r:
            raise IndexError(f"segment ({p}, {q}) out of range for r = {self.r}")
        # breaks[lo:hi] lie strictly between p+1 and q
        lo, hi = bisect_right(self.breaks, p + 1), bisect_left(self.breaks, q)
        breaks = (1, *[b - p for b in self.breaks[lo:hi]], q - p) if q - p > 1 else (1,)
        return AlternatingSnake(self.n, self.intervals[p:q], breaks)

    def reverse(self) -> "AlternatingSnake":
        """The same interval multiset read right to left (equal weight).

        Each run turns round and the same pairs meet across the breaks, so it is a snake.
        """
        r = self.r
        if r == 1:
            return self
        inner = [r - b + 1 for b in self.breaks[-2:0:-1]]
        return AlternatingSnake(self.n, self.intervals[::-1], (1, *inner, r))

    def mirror(self) -> "AlternatingSnake":
        """Apply [i, j] -> [-j, -i] to every interval; run directions flip.

        It keeps lengths and overlaps and turns every step round, so it is a snake.
        """
        return AlternatingSnake(self.n, tuple(iv.mirrored() for iv in self.intervals), self.breaks)

    def is_connected(self) -> bool:
        return all(
            is_connected_pair(self.intervals[t - 1], self.intervals[t], self.n)
            for t in range(1, self.r)
        )

    def is_stable(self) -> bool:
        for m in range(1, self.k):
            rm = self.breaks[m]
            lo = self.interval(rm - 1)
            hi = self.interval(rm + 1)
            if hi.i < lo.i and not hi.j < lo.i:
                return False
            if lo.j < hi.j and not lo.j < hi.i:
                return False
        return True

    def is_prime(self) -> bool:
        """Prime exactly when the unique factorization has one factor: no cut positions."""
        return not self.cut_positions()

    def cut_positions(self) -> tuple[int, ...]:
        """Positions p such that the prime factorization splits p | p+1, in one scan.

        Cuts fall between disconnected neighbours and next to each inner break
        whose outer intervals share an endpoint, unless that break opens the
        factor left by the previous cut.
        """
        # position -> the largest break that puts a junction cut there
        junction: dict[int, int] = {}
        for rm in self.breaks[1:-1]:
            lo, hi = self.interval(rm - 1), self.interval(rm + 1)
            into_left = step_direction(lo, self.interval(rm)) == LEFT
            if lo.i == hi.i:
                junction[rm - ((lo.j < hi.j) != into_left)] = rm
            if lo.j == hi.j:
                junction[rm - ((lo.i < hi.i) != into_left)] = rm
        cuts: list[int] = []
        last = 0
        for p in range(1, self.r):
            if junction.get(p, 0) > last + 1 or not is_connected_pair(
                self.interval(p), self.interval(p + 1), self.n
            ):
                cuts.append(p)
                last = p
        return tuple(cuts)

    def prime_factors(self) -> tuple["AlternatingSnake", ...]:
        """The unique factorization into prime snakes, split at ``cut_positions``."""
        cuts = self.cut_positions()
        if not cuts:
            return (self,)
        bounds = (0, *cuts, self.r)
        return tuple(self.segment(p, q) for p, q in zip(bounds, bounds[1:]))

    def within_prime_factor(self, lo: int, hi: int) -> bool:
        """True when positions lo..hi land inside a single prime factor."""
        if not 1 <= lo <= hi <= self.r:
            raise IndexError(f"range ({lo}, {hi}) out of range for r = {self.r}")
        return not any(lo <= c < hi for c in self.cut_positions())

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "intervals": [[iv.i, iv.j] for iv in self.intervals],
            "breaks": list(self.breaks),
        }

    @classmethod
    def from_json(cls, data: dict) -> "AlternatingSnake":
        return cls.build(data["intervals"], data["breaks"], data["n"])

    def __str__(self) -> str:
        body = ", ".join(f"[{iv.i},{iv.j}]" for iv in self.intervals)
        return f"({body}) breaks {list(self.breaks)} @ n={self.n}"


def cross_adjacent(s: AlternatingSnake, p: int) -> tuple[tuple[Interval, ...], LWeight]:
    """Swap positions p, p+1 for their crossed pair; also return the root product.

    The result is a raw interval tuple, not necessarily a snake.  The weight
    of the returned tuple equals s.weight() times the inverse of the returned
    root product.
    """
    if not 1 <= p <= s.r - 1:
        raise IndexError(f"p = {p} out of range 1..{s.r - 1}")
    if not s.within_prime_factor(p, p + 1):
        raise UnsupportedSnakeError(
            f"positions {p}, {p + 1} are separated by a prime-factor cut"
        )
    a, b = s.interval(p), s.interval(p + 1)
    lo, hi = (a, b) if a.i < b.i else (b, a)
    gamma = rectangle_root_product(lo, hi, s.n)
    crossed = (
        *s.intervals[: p - 1],
        Interval(b.i, a.j),
        Interval(a.i, b.j),
        *s.intervals[p + 1 :],
    )
    return crossed, gamma
