"""Host speed, read from a fixed kernel timed next to each of the benchmark's
timed calls.

On a shared host, other tenants slow every program on it, for tens of
seconds at a time and by up to 1.6 times.  The benchmark times a kernel
before and after every op and scales the op's time by its ``REFERENCE_S``
over the mean of those two kernel readings.  The scaled time reads as seconds
on the host at the speed it had when ``REFERENCE_S`` was measured.  A change
to the program does not touch the kernels, so the scaled times of two
commits compare like raw times taken at one speed.  Set-up, which starts a
fresh process, is scaled the same way by a start probe, a fresh interpreter
that only imports numpy (run.py).

Each workload names the kernel that slows most like its ops.  The
``python`` kernel, a pure-Python float loop plus building a dict of small
lists and strings, serves ``check_default``, ``grid72`` and ``cli_matrix``.
The ``recurrence`` kernel, a series quotient recurrence of numpy calls on
short arrays like ``series.div``, serves ``identities``: those ops slow
about 1.4 times as much as the ``python`` kernel on a busy host, while the
other workloads spread wider against the recurrence (perfbench/README.md,
"Steadiness on shared hosts").
"""

from __future__ import annotations

import time

import numpy as np

REPEAT = 3          # kernel runs in one reading

_B = np.linspace(1.0, 2.0, 49) + 0.5j


def _python_loop() -> None:
    x = 0.5
    for _ in range(25000):
        x = 3.7 * x * (1.0 - x)
    table = {}
    for i in range(4500):
        table[i] = [i, str(i)]


def _recurrence() -> None:
    for _ in range(15):
        q = np.zeros(_B.size, dtype=np.complex128)
        for k in range(1, _B.size):
            q[k] = (_B[k] - np.dot(_B[1:k + 1], q[k - 1::-1])) / _B[0]


_WORK = {"python": _python_loop, "recurrence": _recurrence}
# The fastest tenth of each kernel's readings over seven minutes on a
# 2-vCPU Intel Xeon VM (2.0 GHz), that is, the host with little contention.
REFERENCE_S = {"python": 0.0021, "recurrence": 0.00106}
# A fresh interpreter importing numpy (run.py's start probe) on that host.
START_REFERENCE_S = 0.125


def kernel(kind: str) -> float:
    """Run a kernel REPEAT times; return the fastest wall time in seconds.

    The fastest run drops the millisecond stalls that hit single runs, and
    keeps the slowdown that lasts through all of them."""
    work = _WORK[kind]
    best = float("inf")
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        work()
        best = min(best, time.perf_counter() - t0)
    return best


def scale(times: list[float], kernels: list[float], kind: str) -> list[float]:
    """Each of ``times`` in reference seconds; ``kernels`` holds one reading
    of kernel ``kind`` before the first call and one after each call."""
    if len(kernels) != len(times) + 1:
        raise ValueError("need one kernel reading before and after each call")
    return [t * 2.0 * REFERENCE_S[kind] / (before + after)
            for t, before, after in zip(times, kernels, kernels[1:])]
