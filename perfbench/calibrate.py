"""Host-speed calibration for the benchmark's wall-clock metrics.

Shared virtual machines switch between speed states, for fractions of a
second up to minutes at a time, and a whole 20 s run can fall into a slow
state (README.md, "Host noise"). A fixed kernel, half interpreted and
half array code, timed right before and right after each chunk of
requests, measures how fast the host runs at that moment. Each chunk's
wall time is scaled by ``scale(cal_ms)``, REFERENCE_MS over the faster
of the two calibrations, which gives its time at the reference speed.

The kernel is the benchmark's own code and calls nothing in minworld, so
a change to the program never changes it: a slower program shows in full.
"""

from __future__ import annotations

import gc
import time

# Timings of the kernel per calibration; the fastest counts.
REPEATS = 3
# The kernel's time, fastest of REPEATS, on a 2-vCPU Intel Xeon KVM guest
# (Python 3.11, numpy 2.4) in its fast state. Scaled times are times at
# this speed.
REFERENCE_MS = 0.80

_ARRAYS: dict = {}


def _arrays() -> dict:
    # numpy is imported on first use, so that importing this module does
    # not take numpy's import out of a timed set-up.
    if not _ARRAYS:
        import numpy as np
        n = 12000
        _ARRAYS.update(
            np=np, idx=(np.arange(n) * 7919) % 3000,
            val=np.where(np.arange(n) % 2, 1.0, -1.0),
            w=np.linspace(-1.0, 1.0, 3000), off=np.arange(0, n, 4))
    return _ARRAYS


def _kernel(a: dict) -> None:
    # Interpreted work (integer arithmetic, dict stores) and array work
    # (gather, segmented sum, exp, scatter-add), about half each: host
    # slowdowns hit the two differently, and requests mix both.
    s = 0
    d = {}
    for i in range(4000):
        s += i * i % 7
        d[i & 255] = s
    np = a["np"]
    for _ in range(4):
        m = np.add.reduceat(a["w"][a["idx"]] * a["val"], a["off"])
        g = np.zeros(3000)
        p = np.repeat(1.0 / (1.0 + np.exp(-m)), 4)
        np.add.at(g, a["idx"], p * a["val"])


def calibrate() -> float:
    """The kernel's time now, in ms: the fastest of REPEATS timings, with
    the garbage collector held off."""
    a = _arrays()
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = None
        for _ in range(REPEATS):
            t0 = time.perf_counter_ns()
            _kernel(a)
            ns = time.perf_counter_ns() - t0
            best = ns if best is None else min(best, ns)
    finally:
        if enabled:
            gc.enable()
    return best / 1e6


def scale(cal_ms: float) -> float:
    """Factor that takes a time measured at calibration ``cal_ms`` to the
    reference speed."""
    return REFERENCE_MS / cal_ms
