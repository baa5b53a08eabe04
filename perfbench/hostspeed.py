"""Host-speed calibration: every reported time is scaled to one host speed.

The benchmark runs on a shared virtual machine whose speed drifts with
its neighbours' load, by a fifth or more for tens of seconds at a time.
Process CPU time drifts with wall time and steal time stays near zero,
so no clock of the guest sees it.  What does see it is a fixed piece of
pure-Python work, a *chunk*: attribute closures under a fixed FD set
and a burst of small frozenset/tuple/dict allocations, the kind of work
the program's cold path spends its time on.

A pass times one chunk between ops (never inside one) and keeps each
chunk's time with the op position it followed.  A measured time at a
position is then scaled by ``REFERENCE_S / local``, where ``local`` is
the median time of the ``2 * WINDOW + 1`` chunks timed nearest to that
position: the time the same op would have taken on the host at
reference speed.  The chunk is fixed code of the benchmark, so a change
to the program moves the scaled times and never the chunk.

In a 420-s stream of |Sigma|=200 covers with one chunk after each,
cut into 16 windows of 100 covers, the windows' p50 covers spread 0.412
(IQR over median) raw and 0.040 scaled, and their p90 0.049 scaled.
"""

from __future__ import annotations

import bisect
import gc
import random
import time

_rng = random.Random("perfbench:hostspeed")
_ATTRS = [f"a{i}" for i in range(40)]
_FDS = [
    (frozenset(_rng.sample(_ATTRS, _rng.randint(1, 4))), _rng.choice(_ATTRS))
    for _ in range(120)
]
_STARTS = [frozenset(_rng.sample(_ATTRS, 3)) for _ in range(60)]
_REPS = 2
_ALLOCATIONS = 6000

#: Median time of one chunk on the reference host (2-vCPU Intel Xeon,
#: Python 3.11.7), so scaled times read close to raw ones there.
REFERENCE_S = 0.0145
#: A position's local chunk time is the median of this many chunks on
#: each side of it, and the nearest one.
WINDOW = 1


def _closure(start: frozenset) -> frozenset:
    got = set(start)
    changed = True
    while changed:
        changed = False
        for lhs, rhs in _FDS:
            if rhs not in got and lhs <= got:
                got.add(rhs)
                changed = True
    return frozenset(got)


def _allocate() -> None:
    table: dict = {}
    for i in range(_ALLOCATIONS):
        key = frozenset((i % 37, i % 53, i % 71, i % 11))
        table[key] = table.get(key, 0) + 1
        ordered = tuple(sorted(key))
        table[ordered] = len(ordered)


def chunk() -> float:
    """Run the fixed chunk once and return its wall time in seconds.

    The collector is off meanwhile, so the chunk never pays for a
    collection of the program's heap and its time does not depend on
    what the program keeps alive.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(_REPS):
            memo = {}
            for start in _STARTS:
                closed = _closure(start)
                memo[(start, closed)] = len(closed)
            sorted(memo.values())
        _allocate()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


class Speed:
    """Chunk times taken through a pass, each at an op position."""

    def __init__(self) -> None:
        self.positions: list[float] = []
        self.seconds: list[float] = []

    def sample(self, position: float, count: int = 1) -> float:
        """Time *count* chunks at *position*; return their total seconds."""
        total = 0.0
        for _ in range(count):
            elapsed = chunk()
            index = bisect.bisect_right(self.positions, position)
            self.positions.insert(index, position)
            self.seconds.insert(index, elapsed)
            total += elapsed
        return total

    def factor(self, position: float) -> float:
        """Local chunk time at *position* over the reference chunk time."""
        if not self.seconds:
            raise RuntimeError("no host-speed samples")
        index = bisect.bisect_left(self.positions, position)
        low = max(0, min(index - WINDOW, len(self.seconds) - (2 * WINDOW + 1)))
        return _median(self.seconds[low : low + 2 * WINDOW + 1]) / REFERENCE_S

    def scale(self, seconds: float, position: float) -> float:
        """*seconds* measured at *position*, at reference host speed."""
        return seconds / self.factor(position)

    def summary(self) -> dict:
        return {
            "chunks": len(self.seconds),
            "median_factor": _median(self.seconds) / REFERENCE_S if self.seconds else None,
            "min_factor": min(self.seconds) / REFERENCE_S if self.seconds else None,
            "max_factor": max(self.seconds) / REFERENCE_S if self.seconds else None,
        }
