"""Closed-form snake families with checked inequality chains."""

from __future__ import annotations

from itertools import product
from typing import Sequence

from .errors import FamilyConstraintError, InternalCheckError
from .snakes import AlternatingSnake


def snake_from_mu_lambda(mu: Sequence[int], lam: Sequence[int], n: int) -> AlternatingSnake:
    """Interleave two chains into a fully-broken snake (breaks 1, 2, ..., r).

    Requires mu_1 <= mu_2 < mu_3 <= mu_4 < ..., lam_1 > lam_2 >= lam_3 > ...,
    and n + 1 > lam_1 - mu_1 >= lam_r - mu_r > 0.  The interval tuple is
    ([mu_1, lam_2], [mu_3, lam_1], [mu_2, lam_4], ...), with the trailing
    indices clamped into range.
    """
    r = len(mu)
    if len(lam) != r or r < 1:
        raise FamilyConstraintError("shape", 0, "mu and lam must be equal-length, nonempty")
    for t in range(1, r):
        if t % 2 == 1:
            if not mu[t - 1] <= mu[t]:
                raise FamilyConstraintError("mu", t, f"need mu_{t} <= mu_{t + 1}")
            if not lam[t - 1] > lam[t]:
                raise FamilyConstraintError("lambda", t, f"need lam_{t} > lam_{t + 1}")
        else:
            if not mu[t - 1] < mu[t]:
                raise FamilyConstraintError("mu", t, f"need mu_{t} < mu_{t + 1}")
            if not lam[t - 1] >= lam[t]:
                raise FamilyConstraintError("lambda", t, f"need lam_{t} >= lam_{t + 1}")
    if not n + 1 > lam[0] - mu[0]:
        raise FamilyConstraintError("length", 1, f"need n + 1 > lam_1 - mu_1 = {lam[0] - mu[0]}")
    if not lam[0] - mu[0] >= lam[r - 1] - mu[r - 1]:
        raise FamilyConstraintError("length", r, "need lam_1 - mu_1 >= lam_r - mu_r")
    if not lam[r - 1] - mu[r - 1] > 0:
        raise FamilyConstraintError("length", r, "need lam_r - mu_r > 0")
    ivs = []
    for p in range(1, r + 1):
        if p == 1:
            mi = 1
        elif p % 2 == 0:
            mi = p + 1 if p + 1 <= r else p
        else:
            mi = p - 1
        if p % 2 == 1:
            li = p + 1 if p + 1 <= r else p
        else:
            li = p - 1
        ivs.append((mu[mi - 1], lam[li - 1]))
    breaks = (1,) if r == 1 else tuple(range(1, r + 1))
    return AlternatingSnake.build(ivs, breaks, n)


def _check_nested_runs(breaks, lows, highs) -> None:
    k = len(breaks) - 1
    for m in range(1, k + 1):
        left = m % 2 == 1  # odd runs descend, even runs ascend
        for t in range(breaks[m - 1], breaks[m]):
            a, b = t - 1, t
            if left and not (lows[a] > lows[b] and highs[a] > highs[b]):
                raise FamilyConstraintError("run", t, f"run {m} must strictly descend at position {t}")
            if not left and not (lows[a] < lows[b] and highs[a] < highs[b]):
                raise FamilyConstraintError("run", t, f"run {m} must strictly ascend at position {t}")


def _check_nested_junctions(breaks, lows, highs) -> None:
    k = len(breaks) - 1
    m = 0
    while 2 * m + 1 <= k:
        if 2 * m + 2 <= k:
            if not lows[breaks[2 * m + 1]] >= lows[breaks[2 * m] - 1]:
                raise FamilyConstraintError(
                    "i-junction", 2 * m + 1, f"need i_{breaks[2 * m + 1] + 1} >= i_{breaks[2 * m]}"
                )
            if not highs[breaks[2 * m + 1] - 2] > highs[breaks[2 * m + 2] - 1]:
                raise FamilyConstraintError(
                    "j-junction", 2 * m + 1, f"need j_{breaks[2 * m + 1] - 1} > j_{breaks[2 * m + 2]}"
                )
        if 2 * m + 3 <= k:
            # equality would tie the endpoints compared by the primality
            # condition when the final run has a single step
            strict = breaks[2 * m + 3] == breaks[2 * m + 2] + 1
            lo, hi = lows[breaks[2 * m + 2] - 2], lows[breaks[2 * m + 3] - 1]
            if (hi <= lo) if strict else (hi < lo):
                raise FamilyConstraintError(
                    "i-junction",
                    2 * m + 2,
                    f"need i_{breaks[2 * m + 3]} {'>' if strict else '>='} i_{breaks[2 * m + 2] - 1}",
                )
            if not highs[breaks[2 * m + 1] - 1] > highs[breaks[2 * m + 2]]:
                raise FamilyConstraintError(
                    "j-junction", 2 * m + 2, f"need j_{breaks[2 * m + 1]} > j_{breaks[2 * m + 2] + 1}"
                )
        m += 1


def nested_prime_snake(
    breaks: Sequence[int], lows: Sequence[int], highs: Sequence[int]
) -> tuple[AlternatingSnake, int]:
    """A prime stable snake from nested endpoint chains, at the minimal rank.

    ``breaks`` must satisfy r_l > r_{l-1} + 1 for the interior breaks, the
    endpoint vectors the family's descent/ascent chains with their junction
    inequalities, and every pairing must satisfy delta_{s,p} <= j_s - i_p.
    Returns the snake built at the smallest n with
    j_s - i_p <= n + 1 - delta_{s,p} for all s, p, together with that n.
    """
    r = len(lows)
    if len(highs) != r or r < 1:
        raise FamilyConstraintError("shape", 0, "lows and highs must be equal-length, nonempty")
    bl = tuple(int(b) for b in breaks)
    if not bl or bl[0] != 1 or bl[-1] != r or any(a >= b for a, b in zip(bl, bl[1:])):
        raise FamilyConstraintError("breaks", 0, f"break vector {list(bl)} must satisfy 1 = r_0 < ... < r_k = {r}")
    if r == 1 and bl != (1,):
        raise FamilyConstraintError("breaks", 0, "a single interval takes break vector (1,)")
    k = len(bl) - 1
    for l in range(1, k):
        if not bl[l] > bl[l - 1] + 1:
            raise FamilyConstraintError("breaks", l, f"need r_{l} > r_{l - 1} + 1")
    _check_nested_runs(bl, lows, highs)
    _check_nested_junctions(bl, lows, highs)
    for s, p in product(range(r), repeat=2):
        need = 1 if s == p else 0
        if highs[s] - lows[p] < need:
            raise FamilyConstraintError(
                "delta", s + 1, f"need j_{s + 1} - i_{p + 1} >= {need}"
            )
    n_min = max(
        1,
        max(highs[s] - lows[p] - 1 + (1 if s == p else 0) for s, p in product(range(r), repeat=2)),
    )
    snake = AlternatingSnake.build(list(zip(lows, highs)), bl, n_min)
    if not (snake.is_prime() and snake.is_stable()):
        raise InternalCheckError("nested family instance failed its prime/stable guarantee")
    return snake, n_min
