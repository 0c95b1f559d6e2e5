"""Timings taken back to a fixed reference host speed.

The benchmark runs on a few virtual CPUs of a shared host, where the speed
of the same code drifts by up to 2x from second to second and between
minutes. On a 2-vCPU Xeon (2.0 GHz) virtual machine with nothing else
running in it, a fixed pure-Python loop took 10.3 to 21.5 ms and a
desk-short forward plus backward on one fixed batch 59 to 142 ms, the two
rising and falling together (correlation 0.7 over 292 paired samples). The
median desk-short step of five 32 s runs then ranged from 76 to 121 ms.

So every timed unit is split into laps, and each lap is bracketed by a short
fixed calibration loop doing the kinds of work the program does:
interpreter object churn like autodiff's graph bookkeeping, small NumPy
element-wise ops and one float32 BLAS matmul. A lap's slowness is the mean
of the two calibrations around it over ``NOMINAL_S``. How much a unit
slows with it depends on the code (work that waits on memory slows less
than the cache-resident loop), so each run fits the slope of log wall time
on log slowness over its own units and takes every unit back to slowness 1
along it. Over ten 36 s runs each, fitted slopes were 0.72 to 0.85 for
desk-short, 0.64 to 0.94 for desk-long and 0.33 to 0.56 for full-long, and
the median desk-short step so taken back ranged from 87 to 96 ms while its
wall time ranged from 95 to 120 ms. The loop never calls the program, so a
change to the program moves these times as it moves wall times on a steady
host.
"""
from __future__ import annotations

import gc
import statistics
from time import perf_counter

import numpy as np

# median seconds of one calibration pass at the reference speed; on the host
# above a pass took about 0.6 ms in its fast spells and 1.2 ms in its slow ones
NOMINAL_S = 0.8e-3
PASSES = 3


class _Cell:
    __slots__ = ("value", "parents")

    def __init__(self, value, parents):
        self.value, self.parents = value, parents


_rng = np.random.default_rng(0)
_SMALL_A = _rng.standard_normal((16, 32))
_SMALL_B = _rng.standard_normal((16, 32))
_MAT_A = _rng.standard_normal((64, 512)).astype(np.float32)
_MAT_B = _rng.standard_normal((512, 256)).astype(np.float32)


def _one_pass():
    start = perf_counter()
    cells, seen = [], {}
    for i in range(500):
        cell = _Cell(0.5 * i, (cells[-1],) if cells else ())
        cells.append(cell)
        seen[id(cell)] = i
    sum(seen[id(c)] for c in cells)
    x = _SMALL_A
    for _ in range(40):
        x = np.tanh(x * 0.5 + _SMALL_B)
    _MAT_A @ _MAT_B
    return perf_counter() - start


def calibration_seconds():
    """Median wall seconds of PASSES passes of the fixed calibration loop.

    The median ignores a pass hit by an interrupt; the garbage collector is
    held off so that the loop times the CPU alone.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return statistics.median(_one_pass() for _ in range(PASSES))
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Wall time of the work between calls, with the host's slowness around it.

    ``restart()`` calibrates and starts timing. Each ``lap()`` takes the wall
    time since the last restart or lap, calibrates again and returns
    ``(wall seconds, slowness)``, where slowness is the mean of the two
    calibrations around the lap over NOMINAL_S (1 at the reference speed,
    above 1 on a slower host). The calibration itself is not timed.
    ``begin()`` starts timing again without calibrating, after untimed
    bookkeeping.
    """

    def __init__(self, calibrate=calibration_seconds):
        self._calibrate = calibrate
        self.restart()

    def restart(self):
        self._before = self._calibrate()
        self.begin()

    def begin(self):
        self._start = perf_counter()

    def lap(self):
        wall = perf_counter() - self._start
        after = self._calibrate()
        slowness = 0.5 * (self._before + after) / NOMINAL_S
        self._before = after
        self.begin()
        return wall, slowness


def elasticity(units_by_kind):
    """How strongly the measured work follows the host's slowness.

    ``units_by_kind`` maps a kind of unit (step, eval item, ...) to its
    units in the order they ran, each a list of laps. The result is the
    slope of log wall time on log slowness, pooled over the kinds with an
    intercept per kind. A single calibration jitters by several per cent,
    which would flatten a plain least-squares slope, so the slope is fitted
    with the slowness of the kind's previous unit as the instrument: the
    host's state lasts longer than one unit, its jitter does not. The slope
    is clipped to [0, 1.5], and is 1 when the slowness did not vary.
    """
    szy = szx = 0.0
    for units in units_by_kind.values():
        if len(units) < 3:
            continue
        x = np.log([_slowness(laps) for laps in units])
        y = np.log([sum(wall for wall, _ in laps) for laps in units])
        z = x[:-1] - x[:-1].mean()
        szy += float(z @ (y[1:] - y[1:].mean()))
        szx += float(z @ (x[1:] - x[1:].mean()))
    return min(max(szy / szx, 0.0), 1.5) if szx > 0 else 1.0


def _slowness(laps):
    """Effective slowness of a unit: the one that scales its whole wall time as its laps do."""
    wall = sum(w for w, _ in laps)
    return wall / sum(w / s for w, s in laps)


def at_reference(laps, beta):
    """Seconds the laps would take at the reference speed."""
    return sum(wall * slowness ** -beta for wall, slowness in laps)
