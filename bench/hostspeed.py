"""Host speed readings, so that timings from a shared host can be compared.

On a shared host the same code runs up to about 2x slower or faster from
one tenth of a second to the next, and in regimes that last from seconds
to minutes (see README.md, "Noise"). The benchmark takes a reading of the
host's current speed with two fixed kernels kept in this file, at most
every READ_EVERY_S while it measures, and divides each stretch of timed
work between two readings by the mean of those two readings:

    reading = geometric mean over kernels of (kernel time / reference time)

A kernel time is the fastest of REPS runs. The kernels are the
benchmark's code, so a change to hvdesign moves the timings and never the
readings. A reading of 1 is the reference speed: the kernels' times on a
2-vCPU Xeon VM (Python 3.11, numpy 2.4) in its faster regime.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left, bisect_right

import numpy as np

REPS = 2
READ_EVERY_S = 0.1
clock = time.perf_counter


class HostSpeed:
    def __init__(self, kernels):
        rng = np.random.default_rng(12345)
        # Interpreter work: tuple comparisons and dict updates, as in ranking,
        # variation and the CLI.
        self._rows = [(float(x), float(y), int(k)) for x, y, k in
                      zip(rng.random(170), rng.random(170), rng.integers(0, 1 << 20, 170))]
        # Many small numpy calls: fancy indexing and sums on arrays of
        # S=1600 samples at D=64, as in one GA candidate evaluation.
        self._signs = rng.integers(0, 2, (2, 20, 64), dtype=np.int8) * 2 - 1
        self._levels = rng.integers(1, 21, (1600, 2))
        # One large gather and sum: 100 samples of a D=8192 level table, as
        # in a batch encode.
        self._wide_signs = rng.integers(0, 2, (2, 20, 8192), dtype=np.int8) * 2 - 1
        self._wide_levels = rng.integers(0, 20, (100, 2))
        table = {
            "python": (self._python, 0.0015),
            "small_arrays": (self._small_arrays, 0.0018),
            "gather": (self._gather, 0.0023),
            "fresh_pages": (self._fresh_pages, 0.0097),
        }
        self.kernels = [table[name] for name in kernels]
        self.readings = []  # (start, end, reading), in time order
        self._last = -math.inf  # end of the last reading

    def _python(self) -> int:
        seen, wins = {}, 0
        for a in self._rows:
            for b in self._rows:
                if a[0] >= b[0] and a[1] <= b[1] and a != b:
                    wins += 1
            seen[a[2] & 63] = seen.get(a[2] & 63, 0) + 1
        return wins + len(seen)

    def _small_arrays(self) -> int:
        total = 0
        for _ in range(3):
            picked = self._signs[np.arange(2)[None, :], self._levels - 1]
            sums = picked.sum(axis=1, dtype=np.int64)
            total += int((sums @ sums[:4].T).argmax())
        return total

    def _gather(self) -> int:
        picked = self._wide_signs[np.arange(2)[None, :], self._wide_levels]
        return int(picked.sum(axis=1, dtype=np.int64)[:, :8].sum())

    @staticmethod
    def _fresh_pages() -> int:
        # 40 MB is above glibc's largest mmap threshold, so every call maps
        # and faults in new pages, like the D=8192 encode of a whole dataset.
        x = np.full(5_000_000, 3, dtype=np.int64)
        return int(x[::4096].sum())

    def read(self) -> float:
        """Take one reading and keep it; returns it."""
        start = clock()
        logs = []
        for kernel, ref_s in self.kernels:
            runs = []
            for _ in range(REPS):
                t = clock()
                kernel()
                runs.append(clock() - t)
            logs.append(math.log(min(runs) / ref_s))
        value = math.exp(sum(logs) / len(logs))
        self._last = clock()
        self.readings.append((start, self._last, value))
        return value

    def maybe_read(self) -> None:
        """Take a reading if READ_EVERY_S have passed since the last one."""
        if clock() - self._last >= READ_EVERY_S:
            self.read()

    def normalize(self, spans) -> list[tuple[float, float]]:
        """(wall, scaled) seconds of each (start, end) span, readings taken
        inside it left out. Each stretch between two readings is divided by
        their mean; a span needs a reading before and after it."""
        starts = [r[0] for r in self.readings]
        ends = [r[1] for r in self.readings]
        out = []
        for start, end in spans:
            first = bisect_right(ends, start) - 1  # last reading before the span
            last = bisect_left(starts, end)  # first reading after it
            if first < 0 or last == len(self.readings):
                raise ValueError(f"no reading on both sides of [{start}, {end}]")
            wall = scaled = 0.0
            begin = start
            for i in range(first, last):
                stop = min(end, self.readings[i + 1][0])
                wall += stop - begin
                scaled += (stop - begin) * 2 / (self.readings[i][2] + self.readings[i + 1][2])
                begin = self.readings[i + 1][1]
            out.append((wall, scaled))
        return out
