"""Steady timings on a shared host: the fastest CPU, and its speed alongside.

On a shared host one vCPU can run the same code up to twice as slowly for
seconds to minutes at a time, while a neighbour loads the physical core
beneath it.  Raw wall-clock medians of runs of the same code then differ by
more than any useful regression bound.  Two measures counter that:

* While a loop runs, a timer signal every ``PROBE_EVERY`` seconds times a
  fixed reference computation on every CPU the process may use and pins
  the process to the fastest.  The other vCPU is often not slowed at the
  same moment.
* The reference time measured on the chosen CPU at each probe gives the
  host's current speed.  ``normalized`` rescales an interval by
  ``REF_NOMINAL_S`` over the mean reference time of the probes within
  ``WINDOW_S`` of it, so it reads as the time the interval would have
  taken with the reference at its nominal speed.  Loops normalize their
  times once they have ended, so the probes after an operation count too.

The reference is SciPy's ``solve_ivp`` on a forced Duffing oscillator with
a Python right-hand side: NumPy scalar work of the same kind as the
package's own, which slows with it, and code the package cannot change.
Probes pause the benchmark's clock (``clock``), so no latency, throughput
or span includes them.  With one allowed CPU, or where affinity cannot be
set, nothing is pinned and the reference is timed where the process runs.
The clock and the probes are state of the process, as the timer signal and
the CPU affinity are; one loop runs at a time.
"""

from __future__ import annotations

import math
import os
import signal
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from time import perf_counter

import numpy as np
from scipy.integrate import solve_ivp

#: Seconds between two probes while a loop runs.
PROBE_EVERY = 0.5
#: Timings of the reference per CPU and probe; the fastest counts.
PROBE_REPEATS = 2
#: Probes this many seconds before and after an interval set its speed.
WINDOW_S = 2.5
#: Time span of the reference integration.
REF_SPAN = 2.0
#: Reference time on an unloaded vCPU of a 2.1 GHz Intel Xeon host; it only
#: scales normalized times, and must never change once runs are compared.
REF_NOMINAL_S = 1.5e-3

_paused = 0.0
#: Clock times and reference times of the probes since the loop began.
_probe_at: list[float] = []
_probe_ref: list[float] = []


def clock() -> float:
    """``perf_counter`` less the time spent probing."""
    return perf_counter() - _paused


def _duffing(t, z):
    x, y = z
    return np.array([y, -0.1 * y + x - x * x * x + 0.3 * math.cos(1.2 * t)])


def reference_time() -> float:
    """Wall time of one run of the reference computation."""
    t0 = perf_counter()
    solve_ivp(_duffing, (0.0, REF_SPAN), np.array([0.1, 0.0]), rtol=1e-9, atol=1e-11)
    return perf_counter() - t0


def allowed_cpus() -> list[int]:
    try:
        return sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return []


def best_reference() -> float:
    """The fastest of ``PROBE_REPEATS`` reference runs where the process runs now."""
    return min(reference_time() for _ in range(PROBE_REPEATS))


def pin_fastest(cpus: list[int]) -> float:
    """Pin to whichever of ``cpus`` runs the reference fastest; its time."""
    if len(cpus) >= 2:
        try:
            timed = []
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                timed.append((best_reference(), cpu))
            ref, cpu = min(timed)
            os.sched_setaffinity(0, {cpu})
            return ref
        except OSError:
            cpus.clear()
    return best_reference()


def probe(cpus: list[int]) -> float:
    """Pin to the fastest of ``cpus`` and record its reference time."""
    global _paused
    t0 = perf_counter()
    try:
        ref = pin_fastest(cpus)
    finally:
        _paused += perf_counter() - t0
    _probe_at.append(clock())
    _probe_ref.append(ref)
    return ref


def unpin(cpus: list[int]) -> None:
    if len(cpus) >= 2:
        try:
            os.sched_setaffinity(0, cpus)
        except OSError:
            pass


def normalized(start: float, end: float) -> float:
    """``end - start`` (clock times) at the reference's nominal speed.

    The scale is ``REF_NOMINAL_S`` over the mean reference time of the
    probes from ``WINDOW_S`` before ``start`` to ``WINDOW_S`` after ``end``
    (or of the last probe before, if none falls in that span).  A single probe
    is too short to say how fast one short operation ran; a few seconds of
    them say how fast the host ran around it.
    """
    lo = bisect_left(_probe_at, start - WINDOW_S)
    hi = bisect_right(_probe_at, end + WINDOW_S)
    if lo == hi:
        lo, hi = max(lo - 1, 0), max(lo, 1)
    refs = _probe_ref[lo:hi]
    return (end - start) * REF_NOMINAL_S * len(refs) / sum(refs)


@contextmanager
def steady(every: float = PROBE_EVERY):
    """Run the block on the fastest CPU, probing now and every ``every`` s."""
    cpus = allowed_cpus()
    busy = False

    def reprobe(signum, frame) -> None:
        nonlocal busy
        if busy:
            return
        busy = True
        try:
            probe(cpus)
        finally:
            busy = False

    _probe_at.clear()
    _probe_ref.clear()
    previous = signal.signal(signal.SIGALRM, reprobe)
    probe(cpus)
    signal.setitimer(signal.ITIMER_REAL, every, every)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
        unpin(cpus)
