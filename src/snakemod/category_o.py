"""Highest-weight data and Kazhdan-Lusztig coefficient rows for gl_r.

A stable snake at large enough rank determines a pair of gl_r weights: the
upper endpoints sorted weakly decreasing (ties broken by increasing lower
endpoint) give lambda + rho, the matching lower endpoints give mu + rho.
Each nonzero permutation of the snake matrix contributes its sign to the
Verma-module coefficient row indexed by the lower-endpoint vector obtained
by pairing the selected intervals against the sorted upper endpoints.
All vectors are in nu + rho coordinates, so everything stays integral.
"""

from __future__ import annotations

from itertools import chain
from operator import getitem
from typing import Iterable, Sequence

from .determinant import signed_sum, snake_matrix
from .errors import UnsupportedSnakeError
from .frozen import Frozen, _set
from .intervals import Interval
from .snakes import AlternatingSnake


def _lambda_order(iv: Interval) -> tuple[int, int]:
    """Upper endpoints weakly decreasing, ties by increasing lower endpoint."""
    return -iv.j, iv.i


def sorting_permutation(s: AlternatingSnake) -> tuple[int, ...]:
    """Positions reordered so upper endpoints weakly decrease, ties by lower."""
    return tuple(sorted(range(1, s.r + 1), key=lambda t: _lambda_order(s.interval(t))))


def highest_weight_pair(s: AlternatingSnake) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """(lambda + rho, mu + rho, total length) for the snake's weights."""
    order = sorting_permutation(s)
    lam = tuple(s.interval(t).j for t in order)
    mu = tuple(s.interval(t).i for t in order)
    return lam, mu, sum(a - b for a, b in zip(lam, mu))


def is_dominant_vector(v: Sequence[int]) -> bool:
    return all(a >= b for a, b in zip(v, v[1:]))


class KLTable(Frozen):
    __slots__ = ("mu_plus_rho", "lambda_plus_rho", "rows")

    def __init__(
        self,
        mu_plus_rho: tuple[int, ...],
        lambda_plus_rho: tuple[int, ...],
        rows: tuple[tuple[tuple[int, ...], int], ...],
    ) -> None:
        _set(self, "mu_plus_rho", mu_plus_rho)
        _set(self, "lambda_plus_rho", lambda_plus_rho)
        _set(self, "rows", rows)

    def coefficient(self, nu_plus_rho: Sequence[int]) -> int:
        key = tuple(nu_plus_rho)
        for nu, c in self.rows:
            if nu == key:
                return c
        return 0

    def as_dict(self) -> dict[tuple[int, ...], int]:
        return dict(self.rows)


def _rows(
    kept: tuple[tuple[tuple[int, int], int], ...], sums: Iterable[tuple[tuple[int, ...], int]]
) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The (nu + rho, coefficient) rows of signed sums over labels named by
    their ``_lambda_order`` stand-ins (-j, i), in the order of the sums.

    Every assignment uses each upper endpoint once, so its labels in lambda's
    order, each repeated by its multiplicity, pair with lambda: the row is
    their lower endpoints, and within a tie they increase.  So every vector
    gives the labels that share an upper endpoint j the same total
    multiplicity, the number of positions with that j, and the more it
    holds of an earlier label, the smaller its row: descending vectors, as
    ``kl_table`` asks ``signed_sum`` for them, give ascending rows, and no
    row is sorted.  ``pieces[k][e]`` is label k's lower endpoint repeated e
    times, built up to its cell count.
    """
    pieces = [[(i,) * e for e in range(cells + 1)] for (_, i), cells in kept]
    return tuple((tuple(chain.from_iterable(map(getitem, pieces, mults))), c) for mults, c in sums)


def kl_table(s: AlternatingSnake) -> KLTable:
    """Verma coefficients of the irreducible with highest weight mu.

    Requires a stable snake whose rank is large enough that every pairing
    [i_p, j_l] is a valid interval; refuses otherwise.

    Where lambda + rho has tied entries (equal upper endpoints), a row is
    the sum of the coefficients over the orbit of the tied positions, placed
    on the representative ``_rows`` gives (lower endpoints increasing
    within a tie).  Category O need not have its multiplicity at that
    representative.
    """
    if not s.is_stable():
        raise UnsupportedSnakeError(f"{s} is not stable; no coefficient formula applies")
    lows = [iv.i for iv in s.intervals]
    highs = [iv.j for iv in s.intervals]
    if max(highs) - min(lows) > s.n + 1 or min(highs) < max(lows):
        raise UnsupportedSnakeError(
            "rank too small: every pairing of a lower and an upper endpoint "
            "must be a valid interval"
        )
    lam, mu, _ = highest_weight_pair(s)
    kept, sums, _ = signed_sum(snake_matrix(s), _lambda_order, descending=True)
    return KLTable(mu, lam, _rows(kept, sums))
