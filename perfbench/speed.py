"""Machine speed, sampled between timed samples by a fixed pure-Python loop.

The 2-CPU machine this benchmark was built on drifts in speed by up to 2x
over minutes, and by a third within one. Other tenants of the host cause it;
there is no steal time, and CPU time tracks wall time. Ten consecutive
corpus runs read from 138 to 277 ops/s. The loop below slows and speeds up
with the library's own code. In 15 s blocks of corpus ops, the quartile
spread of the raw times was 0.24, and of the times divided by the loop's
time 0.035.

So every timed library op is reported at a reference speed: its wall time
times REF_LOOP_S over the loop's time just before and just after it.  A
long op is timed in segments, between its library calls and at a profiling
timer's ticks within them, and each segment is scaled on its own. The raw
times are kept beside the scaled ones in the run's record.

Process start-up and import do not track the loop, and scaling them by it
widened their spread. A CLI call is scaled instead by the start time of a
bare `python -c pass` run just before it: its time times REF_INTERP_S over
that start. Set-up, timed in fresh processes spread over the run, is
scaled by the median of the run's loop times: REF_LOOP_S over it. Raw, the
median set-up of ten runs moved by a quarter between sets of runs; scaled,
by about a tenth.
"""

from __future__ import annotations

import bisect
import time
from dataclasses import dataclass

REF_LOOP_S = 0.020  # the loop's time at the reference speed
REF_INTERP_S = 0.075  # a bare interpreter's start time at the reference speed
SAMPLE_EVERY_S = 0.25  # between timed samples, the loop runs at most this often


@dataclass(frozen=True, order=True)
class _Pair:
    i: int
    j: int


def loop_s() -> float:
    """One run of the loop: dataclass keys, dict updates, a sort."""
    t = time.perf_counter()
    acc: dict[_Pair, int] = {}
    for k in range(12_000):
        p = _Pair(k % 37, k % 11)
        acc[p] = acc.get(p, 0) + 1
    sorted(acc.items())
    return time.perf_counter() - t


class Speed:
    def __init__(self) -> None:
        self.mids: list[float] = []  # loop samples' mid times, in order
        self.took: list[float] = []  # their durations

    def sample(self) -> None:
        start = time.perf_counter()
        took = loop_s()
        self.mids.append(start + took / 2)
        self.took.append(took)

    def maybe_sample(self) -> None:
        """Sample unless the last sample is recent; call only between timed work."""
        if not self.mids or time.perf_counter() - self.mids[-1] > SAMPLE_EVERY_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """Reference loop time over the mean of the loop samples just before
        `start` and just after `end`."""
        before = bisect.bisect_right(self.mids, start) - 1
        after = bisect.bisect_left(self.mids, end)
        near = [self.took[i] for i in (before, after) if 0 <= i < len(self.took)]
        return REF_LOOP_S * len(near) / sum(near)

    def scale(self, samples: list[list[tuple[float, float]]]) -> list[float]:
        """Durations of samples, each a list of (start, seconds) segments,
        at the reference speed."""
        return [sum(d * self.factor(t, t + d) for t, d in segments) for segments in samples]
