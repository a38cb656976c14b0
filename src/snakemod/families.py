"""Closed-form snake families, each checked against its inequality chains in O(r)."""

from __future__ import annotations

from operator import ge, gt, le, lt
from typing import Sequence

from .errors import FamilyConstraintError, InternalCheckError, _count
from .intervals import Interval
from .snakes import LEFT, RIGHT, AlternatingSnake, _breaks_ok, step_direction


def snake_from_mu_lambda(mu: Sequence[int], lam: Sequence[int], n: int) -> AlternatingSnake:
    """Interleave two chains into a fully-broken snake (breaks 1, 2, ..., r).

    Requires mu_1 <= mu_2 < mu_3 <= mu_4 < ..., lam_1 > lam_2 >= lam_3 > ...,
    and n + 1 > lam_1 - mu_1 >= lam_r - mu_r > 0 (the middle inequality
    follows from the chains).  The interval tuple is ([mu_1, lam_2],
    [mu_3, lam_1], [mu_2, lam_4], ...), with the trailing indices clamped
    into range.
    """
    r = len(mu)
    if len(lam) != r or r < 1:
        raise FamilyConstraintError("shape", 0, "mu and lam must be equal-length, nonempty")
    for t in range(1, r):
        (mu_ok, mu_op), (lam_ok, lam_op) = ((le, "<="), (gt, ">")) if t % 2 else ((lt, "<"), (ge, ">="))
        if not mu_ok(mu[t - 1], mu[t]):
            raise FamilyConstraintError("mu", t, f"need mu_{t} {mu_op} mu_{t + 1}")
        if not lam_ok(lam[t - 1], lam[t]):
            raise FamilyConstraintError("lambda", t, f"need lam_{t} {lam_op} lam_{t + 1}")
    if not n + 1 > lam[0] - mu[0]:
        raise FamilyConstraintError("length", 1, f"need n + 1 > lam_1 - mu_1 = {_count(lam[0] - mu[0])}")
    if not lam[r - 1] - mu[r - 1] > 0:
        raise FamilyConstraintError("length", r, "need lam_r - mu_r > 0")
    # mu at 1, 3, 2, 5, 4, ... and lambda at 2, 1, 4, 3, ..., clamped to r
    mu_at = [1] + [p + 1 if p % 2 == 0 else p - 1 for p in range(2, r + 1)]
    lam_at = [p + 1 if p % 2 else p - 1 for p in range(1, r + 1)]
    ivs = [(mu[min(a, r) - 1], lam[min(b, r) - 1]) for a, b in zip(mu_at, lam_at)]
    return AlternatingSnake.build(ivs, tuple(range(1, r + 1)), n)


def _check_nested_chains(bl: tuple[int, ...], lows, highs) -> None:
    """The run steps, then the junction inequalities around each inner break."""
    ivs = list(map(Interval, lows, highs))
    for m in range(1, len(bl)):
        # odd runs descend, even runs ascend
        direction, verb = (LEFT, "descend") if m % 2 else (RIGHT, "ascend")
        for t in range(bl[m - 1], bl[m]):
            if step_direction(ivs[t - 1], ivs[t]) != direction:
                raise FamilyConstraintError("run", t, f"run {m} must strictly {verb} at position {t}")
    for l in range(1, len(bl) - 1):
        before, at, after = bl[l - 1], bl[l], bl[l + 1]
        if l % 2:
            (ip, iq, strict), (jp, jq) = (at + 1, before, False), (at - 1, after)
        else:
            # equality would tie the endpoints compared by the primality
            # condition when the next run has a single step
            (ip, iq, strict), (jp, jq) = (after, at - 1, after == at + 1), (before, at + 1)
        if not (gt if strict else ge)(lows[ip - 1], lows[iq - 1]):
            raise FamilyConstraintError("i-junction", l, f"need i_{ip} {'>' if strict else '>='} i_{iq}")
        if not highs[jp - 1] > highs[jq - 1]:
            raise FamilyConstraintError("j-junction", l, f"need j_{jp} > j_{jq}")


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
    bl = tuple(breaks)
    if not _breaks_ok(bl, r):
        raise FamilyConstraintError("breaks", 0, f"break vector {list(bl)} must satisfy 1 = r_0 < ... < r_k = {r}")
    for l in range(1, len(bl) - 1):
        if not bl[l] > bl[l - 1] + 1:
            raise FamilyConstraintError("breaks", l, f"need r_{l} > r_{l - 1} + 1")
    _check_nested_chains(bl, lows, highs)
    # row s has a pairing j_s - i_p < delta_{s,p} exactly when j_s < max(i) or j_s - i_s < 1
    top = max(lows)
    for s in range(r):
        if highs[s] < top or highs[s] - lows[s] < 1:
            p = next(p for p in range(r) if highs[s] - lows[p] < (s == p))
            raise FamilyConstraintError("delta", s + 1, f"need j_{s + 1} - i_{p + 1} >= {int(s == p)}")
    n_min = max(1, max(highs) - min(lows) - 1, max(j - i for i, j in zip(lows, highs)))
    snake = AlternatingSnake.build(list(zip(lows, highs)), bl, n_min)
    if not (snake.is_prime() and snake.is_stable()):
        raise InternalCheckError("nested family instance failed its prime/stable guarantee")
    return snake, n_min
