"""The machine's speed, measured by a fixed piece of work run between calls.

The benchmark runs on a shared virtual machine whose speed swings by up to
half for minutes at a time.  ``probe`` is a fixed computation of the kind
ysyslab spends its time on: small integer-matrix mutations and coefficient
updates in numpy, Fraction sums and dict updates, interpreted step by step.
It does not touch ysyslab, so no change to the program can move its time.
A round runs the probe a few times before its first call and after each
call; dividing a call's time by the probe time around it takes out the
machine's speed at that moment.

Import this module only after ysyslab is usable: it imports numpy, which
would otherwise leave the set-up time.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

import numpy as np

#: Probe runs between two calls.
PROBES_PER_GAP = 5
#: Median probe time on the reference machine, the 2-vCPU virtual machine
#: the figures in README.md come from.  A call's time divided by the probe
#: time around it, times this, is the call's time at the reference speed.
REFERENCE_PROBE_S = 0.0100

_STEPS = 320
_N = 12


def probe():
    """One fixed computation of about 10 ms on the reference machine."""
    B = np.zeros((_N, _N), dtype=int)
    for i in range(_N - 1):
        B[i, i + 1] = 1 + i % 2
        B[i + 1, i] = -1
    y = np.linspace(0.5, 1.5, _N)
    acc = Fraction(0)
    table = {}
    for step in range(_STEPS):
        # each vertex is mutated twice in a row, so B stays bounded
        k = (step // 2 * 5) % _N
        col = B[:, k]
        row = B[k, :]
        Bp = B + np.sign(col)[:, None] * np.maximum(np.outer(col, row), 0)
        Bp[k, :] = -B[k, :]
        Bp[:, k] = -B[:, k]
        B = Bp
        yk = y[k]
        y = y * yk ** np.maximum(row, 0) * (1.0 + yk) ** (-row)
        y[k] = 1.0 / yk
        y = np.clip(y, 1e-3, 1e3)
        acc += Fraction(step % 7, 1 + step % 5)
        table[k, step % 13] = table.get((k, step % 13), 0) + 1
    return float(acc) + len(table) + float(y.sum())


def gap():
    """Run the probe PROBES_PER_GAP times; return each run's time.

    The garbage collector is paused meanwhile, so that the size of the
    program's heap cannot move the probe's time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(PROBES_PER_GAP):
            start = perf_counter()
            probe()
            times.append(perf_counter() - start)
        return times
    finally:
        if enabled:
            gc.enable()
