"""Pass times scaled to a reference machine speed.

On a shared host the effective CPU speed of one process drifts by a third or
more within seconds to minutes, so raw pass times from runs made minutes
apart disagree even on the same code. A gauged ``Clock`` splits a pass at the
end of every toolkit call and times a fixed reference loop there (the loop
itself is not counted). Each segment is scaled by the loop times at its two
ends:

    scaled = segment * REFERENCE_S / mean(loop time before, loop time after)

so the sum is the pass time at the speed where the loop takes
``REFERENCE_S``. The loop is the benchmark's own code, so no change to the
toolkit changes it. It does what the toolkit's hot paths do: dict lookups and
updates, float arithmetic and short-string hashing.
"""

from __future__ import annotations

from time import perf_counter

# About the median time of one reference_loop() on a 2-core Intel Xeon with
# Python 3.11.
REFERENCE_S = 0.031


def reference_loop() -> float:
    counts: dict[str, float] = {}
    keys = [f"w{i}" for i in range(997)]
    for i in range(125_000):
        key = keys[i % 997]
        counts[key] = counts.get(key, 0.0) + 1.5 * i
    total = 0.0
    for i in range(40_000):
        total += counts[keys[i % 997]] / (i + 1)
    return total


def _loop_s() -> float:
    start = perf_counter()
    reference_loop()
    return perf_counter() - start


class Clock:
    """Time of one pass, raw and at reference speed, split into laps.

    Ungauged, it times no reference loop and its scaled time is the raw time.
    """

    def __init__(self, gauged: bool = True):
        self.gauged = gauged
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self.marks: dict[str, tuple[float, float]] = {}  # lap name -> (raw_s, scaled_s) at its end
        self._loop_s = _loop_s() if gauged else REFERENCE_S
        self._start = perf_counter()

    def lap(self, name: str) -> None:
        segment = perf_counter() - self._start
        loop_s = _loop_s() if self.gauged else REFERENCE_S
        self.raw_s += segment
        self.scaled_s += segment * 2 * REFERENCE_S / (self._loop_s + loop_s)
        self.marks[name] = (self.raw_s, self.scaled_s)
        self._loop_s = loop_s
        self._start = perf_counter()
