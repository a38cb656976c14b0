"""Exception types shared across the package, and the count format of their messages."""

from __future__ import annotations

from math import log10


def _count(x: int) -> str:
    """``x`` in decimal, or a bound 10^d or -10^d when it has too many digits to convert."""
    try:
        return str(x)
    except ValueError:
        d = int((x.bit_length() - 1) * log10(2))
        return f"at least 10^{d}" if x > 0 else f"at most -10^{d}"


class RankMismatchError(ValueError):
    """Two values built at different ranks were combined."""


class MalformedIntervalError(ValueError):
    """An interval violates the rank-n constraint 0 <= j - i <= n + 1."""

    def __init__(self, interval, n, reason=None):
        self.interval = interval
        self.n = n
        msg = reason or f"interval [{interval.i}, {interval.j}] is not valid at rank {n}"
        super().__init__(msg)


class InvalidSnakeError(ValueError):
    """Interval/break data failed snake validation; carries the diagnostics."""

    def __init__(self, diagnostics):
        self.diagnostics = tuple(diagnostics)
        super().__init__("invalid snake: " + "; ".join(d.message for d in self.diagnostics))


class UnsupportedSnakeError(ValueError):
    """Mathematical refusal: the input is valid but outside the operation's scope."""


class FamilyConstraintError(ValueError):
    """An inequality chain of a snake family generator fails; carries a witness."""

    def __init__(self, chain, index, message):
        self.chain = chain
        self.index = index
        super().__init__(message)


class InternalCheckError(RuntimeError):
    """An internal cross-check failed.  Indicates a bug, never a user error."""
