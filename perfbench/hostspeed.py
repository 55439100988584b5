"""Reference seconds: wall time corrected for the host's momentary speed.

On a shared host the same Python code runs up to 1.7 times slower or
faster from one ten-second stretch to the next, because of what other
tenants do, and a run of tens of seconds cannot average that away.  The
benchmark therefore times a fixed pure-Python calibration loop right
before and right after each timed operation and scales the operation's
wall time by how long the loop took then, against ``REFERENCE_S``:

    reference seconds = wall seconds * REFERENCE_S / calibration seconds

A change to the library moves the operation's time but not the loop's,
so it shows in full; a slow or fast stretch of the host moves both and
cancels out.  The loop does the kind of work the library does (dict
lookups on tuples of strings) and allocates no tracked objects, so it
never triggers a garbage collection of its own.
"""

from __future__ import annotations

import bisect
import statistics
import time

#: Calibration time that defines one reference second (the loop's typical
#: time on the 2-core, 2.1 GHz host the bounds were set on).
REFERENCE_S = 0.0007
WINDOW_S = 1.0
MIN_SAMPLES = 8

_KEYS = [(f"w{i % 97}", f"v{i % 89}", i % 7 == 0) for i in range(700)]
_ROUNDS = 8


class Calibrator:
    """Times the calibration loop and converts wall time to reference seconds."""

    def __init__(self) -> None:
        self._counts: dict = {}
        self.times: list[float] = []  # midpoint of each loop
        self.samples: list[float] = []  # its duration

    def sample(self) -> None:
        counts = self._counts
        counts.clear()
        t0 = time.perf_counter()
        for _ in range(_ROUNDS):
            for key in _KEYS:
                counts[key] = counts.get(key, 0) + 1
        elapsed = time.perf_counter() - t0
        self.times.append(t0 + elapsed / 2)
        self.samples.append(elapsed)

    def to_reference(self, start: float, wall: float) -> float:
        """Reference seconds of the interval that began at ``start`` and lasted ``wall``."""
        n = len(self.times)
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, start + wall + WINDOW_S)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < n):
            lo, hi = max(0, lo - 1), min(n, hi + 1)
        return wall * REFERENCE_S / statistics.median(self.samples[lo:hi])
