"""Reference implementations the tests check ysyslab against.

The per-vertex exchange rules, driven by Quiver.mutate, are the reference
for the slot step of ysyslab.schedule: each payload mutates one vertex at a
time, with the exchange matrix that Quiver.mutate produces before that
vertex, in multiplicative notation.  exhaustive_isomorphism is the
brute-force reference for quiver.find_isomorphism.
"""

from itertools import permutations

import numpy as np

from ysyslab.schedule import slot_sets


class TropicalCoefficients:
    """Row v of E is the exponent vector of the tropical coefficient y_v."""

    def __init__(self, E):
        self.E = np.array(E, dtype=np.int64)

    def copy(self):
        return TropicalCoefficients(self.E)

    def mutate(self, k, B):
        row = B[k, :]
        ek = self.E[k].copy()
        self.E += np.outer(np.maximum(row, 0), ek) - np.outer(row, np.minimum(ek, 0))
        self.E[k] = -ek

    def snapshot(self):
        return self.E.copy()


class NumericSeedPayload:
    """Cluster x and coefficients y over the positive reals.

    y=None drops the coefficients: x then follows the plain two-monomial
    exchange (the coefficient-free cluster dynamics).
    """

    def __init__(self, x, y=None):
        self.x = np.array(x, dtype=float)
        self.y = None if y is None else np.array(y, dtype=float)

    def copy(self):
        return NumericSeedPayload(self.x, self.y)

    def mutate(self, k, B):
        col = B[:, k]
        mon_in = float(np.prod(self.x[col > 0]))
        mon_out = float(np.prod(self.x[col < 0]))
        if self.y is None:
            self.x[k] = (mon_in + mon_out) / self.x[k]
            return
        yk = self.y[k]
        self.x[k] = (yk * mon_in + mon_out) / ((1.0 + yk) * self.x[k])
        row = B[k, :]
        self.y *= yk ** np.maximum(row, 0) * (1.0 + yk) ** (-row)
        self.y[k] = 1.0 / yk

    def snapshot(self):
        return self.x.copy(), None if self.y is None else self.y.copy()


def run_payload(model, s_lo, s_hi, payload):
    """Snapshots of the payload at every time from 0 forward to s_hi and
    backward to s_lo, mutating vertex by vertex with Quiver.mutate."""
    period = 2 * model.cartan["t"]
    sets = slot_sets(model)
    snapshots = {0: payload.snapshot()}
    for step, stop in ((1, s_hi), (-1, s_lo)):
        Q, s, pl = model.quiver, 0, payload.copy()
        while (stop - s) * step > 0:
            for k in sets[s % period if step > 0 else (s - 1) % period]:
                pl.mutate(k, Q.B)
                Q = Q.mutate(k)
            s += step
            snapshots[s] = pl.snapshot()
    return snapshots


def exhaustive_isomorphism(Q1, Q2):
    """Brute-force isomorphism search over all vertex permutations."""
    if Q1.n != Q2.n:
        return None
    for p in permutations(range(Q1.n)):
        if Q1.apply_perm(p) == Q2:
            return p
    return None
