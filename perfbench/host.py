"""Host metadata recorded with every benchmark report.

Absolute throughput depends on the machine, so each report carries what a
later comparison needs to normalise across hosts: core count, CPU model,
interpreter and NumPy versions, the load average when the run started and
ended, and the median time of a fixed unit of work
(:func:`calibration_unit`: pure Python plus NumPy kernels, the two kinds
of work the monitor's per-bin path mixes).

The same units are also interleaved with the measured work:
:data:`REFERENCE_UNIT_S` over the time of the units next to a bin is the
host's speed at that moment relative to the reference host, and the
benchmark scales its timings by it (:class:`ReferenceClock`,
``measure.speed_factors``).  A shared host's speed drifts by tens of
percent over seconds to minutes; the program's code does not change the
units, so a slower program still shows as slower.
"""

from __future__ import annotations

import gc
import os
import platform
from time import perf_counter
from typing import Callable, Dict, List, TypeVar

import numpy as np


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _loadavg() -> list:
    try:
        return list(os.getloadavg())
    except OSError:
        return []


#: Median seconds of one :func:`calibration_unit` on the reference host (a
#: 2-vCPU Intel Xeon VM, Python 3.11, NumPy 2.4).  Timings scaled by
#: ``REFERENCE_UNIT_S / unit time`` read in that host's seconds.
REFERENCE_UNIT_S = 0.0005
_UNIT_DATA = np.random.default_rng(0).integers(0, 1 << 20, size=2048)


def calibration_unit() -> float:
    """Seconds of one fixed unit of work (about 0.5 ms on the reference
    host): an interpreter loop, dict updates and small NumPy kernels.  The
    cyclic collector is held off, so the program's garbage never lands in
    a unit."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        total = 0
        for value in range(1500):
            total += value * value % 7
        table: Dict[int, int] = {}
        for value in range(300):
            table[value & 31] = table.get(value & 31, 0) + value
        np.unique(_UNIT_DATA ^ total)
        np.bincount(_UNIT_DATA & 1023).cumsum()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def calibrate(units: int) -> List[float]:
    """Times of ``units`` consecutive calibration units."""
    return [calibration_unit() for _ in range(units)]


T = TypeVar("T")


class ReferenceClock:
    """Times a sequence of steps in wall and in reference-host seconds.

    A block of calibration units runs before the first step and after
    every step (outside the timed intervals); each step's wall time is
    scaled by the host speed of the blocks on either side of it.
    """

    def __init__(self, units: int = 8) -> None:
        self.units = units
        self.wall = 0.0
        self.reference = 0.0
        self._before = calibrate(units)

    def step(self, fn: Callable[..., T], *args) -> T:
        start = perf_counter()
        out = fn(*args)
        wall = perf_counter() - start
        after = calibrate(self.units)
        samples = sorted(self._before + after)
        self.wall += wall
        self.reference += wall * REFERENCE_UNIT_S / samples[len(samples) // 2]
        self._before = after
        return out


def start_metadata() -> Dict:
    """Metadata taken before the workload runs."""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_start": _loadavg(),
        "calibration_unit_s": sorted(calibrate(200))[100],
    }


def finish_metadata(meta: Dict) -> Dict:
    """Add the end-of-run load average."""
    meta["loadavg_end"] = _loadavg()
    return meta
