"""How fast the machine runs, sampled while a job runs, to scale its wall time.

On a shared virtual machine the same pure-Python loop runs at speeds up to
1.8 times apart, switching every second or so as other tenants come and go.
A job of a few seconds spans several such states, so a sample before and
after it is not enough.  A ``Sampler`` instead interrupts the process every
``INTERVAL_S`` (``SIGALRM``, handled in the main thread between bytecodes)
and times one fixed reference slice.  A job's reported time is its wall time
minus the time spent in the handler, times the mean over the samples taken
during the job of ``REFERENCE_S / sample``: it reads in seconds on a machine
where the slice takes ``REFERENCE_S``.

The slice uses builtins only (fraction-free integer elimination and
dict-keyed polynomial products, the operations that dominate cdga), so it
imports nothing that set-up would then not pay for, and no change to cdga
changes it.
"""

from __future__ import annotations

import signal
import statistics
import time

# wall time of one slice on the fast state of the baseline machine
REFERENCE_S = 0.0009
INTERVAL_S = 0.05

_MATRIX = [[(i * 7 + j * 13) % 11 - 5 for j in range(14)] for i in range(12)]
_POLY = {(i, j, (i * j) % 3): i - 2 * j + 1 for i in range(5) for j in range(6)}


def _bareiss(rows):
    rows = [r[:] for r in rows]
    prev, r = 1, 0
    for c in range(len(rows[0])):
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, len(rows)):
            f = rows[i][c]
            rows[i] = [(piv * a - f * b) // prev for a, b in zip(rows[i], rows[r])]
        prev, r = piv, r + 1
    return rows


def _polymul(a, b):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            out[k] = out.get(k, 0) + va * vb
    return {k: v for k, v in out.items() if v}


def reference_slice():
    _bareiss(_MATRIX)
    _polymul(_POLY, _POLY)


class Sampler:
    """Times `reference_slice` every INTERVAL_S while running; one per process."""

    def __init__(self):
        self.samples = []  # seconds of each slice, in order
        self.spent = 0.0   # seconds spent in the handler

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        reference_slice()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def start(self):
        for _ in range(20):  # first-call costs, before the first sample
            reference_slice()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        return len(self.samples), self.spent, time.perf_counter()

    def scaled(self, mark):
        """(reported seconds, unscaled seconds) of the interval since `mark`.

        A short interval with no sample of its own takes the latest sample;
        one that starts before any sample is taken waits for the first.
        """
        n, spent, t0 = mark
        wall = time.perf_counter() - t0 - (self.spent - spent)
        while not self.samples:
            signal.pause()
        inside = self.samples[n:] or self.samples[-1:]
        return wall * statistics.fmean(REFERENCE_S / x for x in inside), wall
