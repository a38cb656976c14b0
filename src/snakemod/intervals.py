"""Integer intervals [i, j] and the pair predicates built on them.

An interval is valid at rank n when 0 <= j - i <= n + 1.  Construction is
unchecked on purpose: matrix entries and class symbols are routinely indexed
by crossed pairs [i_p, j_l] that may be inverted or too long, and those map
to the zero class rather than to an error.
"""

from __future__ import annotations

from typing import NamedTuple


class Interval(NamedTuple):
    """The immutable pair (i, j): it sorts, hashes and compares as that tuple."""

    i: int
    j: int

    @property
    def length(self) -> int:
        return self.j - self.i

    def is_well_formed(self, n: int) -> bool:
        """True when the interval belongs to the rank-n index set."""
        return 0 <= self.j - self.i <= n + 1

    def is_boundary(self, n: int) -> bool:
        """Length 0 and length n+1 index the identity generator by convention."""
        return self.j - self.i in (0, n + 1)

    def mirrored(self) -> "Interval":
        """The reflection [i, j] -> [-j, -i]."""
        return Interval(-self.j, -self.i)

    def shifted(self, d: int) -> "Interval":
        return Interval(self.i + d, self.j + d)

    def as_pair(self) -> tuple[int, int]:
        return (self.i, self.j)


def _is_int(x) -> bool:
    # JSON true and false load as bool, a subclass of int
    return isinstance(x, int) and not isinstance(x, bool)


def _check_ints(what: str, values) -> None:
    """Raise ValueError naming the first of ``values`` that is not an int (a bool is not)."""
    for x in values:
        if not _is_int(x):
            raise ValueError(f"{what} must be integers, not {x!r}")


def as_interval(value) -> Interval:
    """``value`` as an Interval if it is a pair of ints; anything else raises ValueError."""
    if isinstance(value, (tuple, list)) and len(value) == 2 and all(map(_is_int, value)):
        return value if isinstance(value, Interval) else Interval(*value)
    raise ValueError(f"an interval is a pair of integers, not {value!r}")


def overlaps(a: Interval, b: Interval) -> bool:
    """Strict interleaving, in either arrangement.

    Nested or disjoint intervals do not overlap, and neither do intervals
    sharing an endpoint pattern that breaks one of the strict inequalities.
    """
    return (a.i < b.i <= a.j < b.j) or (b.i < a.i <= b.j < a.j)


def is_connected_pair(a: Interval, b: Interval, n: int) -> bool:
    """Overlapping, with both crossed intervals valid at rank n."""
    return (
        overlaps(a, b)
        and Interval(a.i, b.j).is_well_formed(n)
        and Interval(b.i, a.j).is_well_formed(n)
    )
