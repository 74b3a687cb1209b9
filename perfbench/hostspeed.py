"""Host-speed calibration for the benchmark's timings.

On a shared host the speed of one CPU drifts: the same fixed pass over
codes can take twice as long a minute later. The drift hits qrank and any
other pure-Python work on that CPU alike. So the benchmark pins itself
and its children to one CPU, and a background thread times a fixed
calibration slice (`slice_work`, qrank-independent) every `INTERVAL_S`.
A measured interval is then scaled by

    REFERENCE_SLICE_S / (mean slice time around that interval)

which gives its length on a host that runs one slice in
`REFERENCE_SLICE_S`. That is close to what one slice takes on the 2-core
host the benchmark was built on, run alone when nothing else loads it.
The calibration code never changes with qrank, so a change to qrank
moves the scaled times as it moves the raw ones. Raw times are printed
next to the scaled ones.
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_left, bisect_right
from statistics import fmean
from time import perf_counter

REFERENCE_SLICE_S = 2e-4
INTERVAL_S = 0.01
WINDOW_S = 0.05  # slices this close to an interval count for it

_P = 7
_MATRIX = tuple(tuple((3 * i * j + i + 2 * j + 1) % _P for j in range(12)) for i in range(10))


def slice_work() -> int:
    """Fixed pure-Python work: ranks over F_7 of six fixed 10x12 matrices."""
    total = 0
    for shift in range(6):
        rows = [[(v + shift) % _P for v in row] for row in _MATRIX]
        rank = 0
        for col in range(12):
            pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
            if pivot is None:
                continue
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            inv = pow(rows[rank][col], _P - 2, _P)
            rows[rank] = [(inv * v) % _P for v in rows[rank]]
            for i in range(len(rows)):
                if i != rank and rows[i][col]:
                    f = rows[i][col]
                    rows[i] = [(a - f * b) % _P for a, b in zip(rows[i], rows[rank])]
            rank += 1
        total += rank
    return total


def pin_to_one_cpu():
    """Keep this process, its threads and its future children on one CPU,
    so that the calibration thread measures the CPU the work runs on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class SpeedProbe:
    """Background thread timing one calibration slice every `INTERVAL_S`.

    Use as a context manager around the timed work; call `scale` after it
    has exited.
    """

    def __init__(self):
        self._slices = []  # (start, seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def _run(self):
        while not self._stop.wait(INTERVAL_S):
            t0 = perf_counter()
            slice_work()
            self._slices.append((t0, perf_counter() - t0))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False

    def scale(self, start: float, seconds: float) -> float:
        """Factor turning `seconds` measured from `start` into reference seconds."""
        lo = bisect_left(self._slices, (start - WINDOW_S,))
        hi = bisect_right(self._slices, (start + seconds + WINDOW_S,))
        near = [dt for _, dt in self._slices[lo:hi]]
        if not near:
            raise RuntimeError("no calibration slice ran near a timed interval")
        return REFERENCE_SLICE_S / fmean(near)

    def mean_slice_s(self) -> float:
        return fmean(dt for _, dt in self._slices)
