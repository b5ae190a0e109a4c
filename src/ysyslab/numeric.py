"""Coefficient and cluster dynamics over positive reals along the schedule.

A run carries cluster tuples x and (in tracked mode) coefficient tuples y
through the mutation schedule, one column per random seed, and records the
full tuples at every time, in one array indexed by time.  One indexed
assignment at its mutation points fills the labelled arrays T[a, m, s] and
Y[a, m, s] (the schedule's labels name the (a, m) of each point).  Residual
checks then certify the recursion relations and the periodicity claims row
by row on slices of those arrays, every seed at once; they are
initialization-free in the sense that any positive starting data must
satisfy them.  The relations are the tables of the schedule (Schedule.g,
Schedule.numerators), read off its exchange matrices.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# numpy 2 loads numpy.random on first use; load it at import, with the rest
# of the start-up, so that the first run does not pay for it
import numpy.random  # noqa: F401

from .schedule import run_schedule


def real_plus1(L):
    """log(1 + y) for the positive reals y = exp(L)."""
    return np.logaddexp(0.0, L)


def trivial_plus1(L):
    """The one-element semifield: 1 (+) 1 = 1, so log(y (+) 1) = 0."""
    return np.zeros_like(L)


class NumericRun:
    """Labelled values of one schedule run over a window around one period,
    one column per seed.

    The run record x[s - lo_s, v, j] (and y[s - lo_s, v, j] in a tracked run)
    holds the cluster (and coefficient) value of vertex v at time s from
    seeds[j], for lo_s <= s <= hi_s.  T[a, m, s - s0, j] and
    Y[a, m, s - s0, j] hold T^{(a)}_m(s/t) and Y^{(a)}_m(s/t).  T is filled
    on the P+ grid and is 1 on the boundary rows (a = 0, m = 0 and
    m = t_a*level); Y is filled on the P'+ grid, with 1 throughout a
    coefficient-free run.  Every other entry is NaN, in every column.  The
    run is driven by a verified schedule.Schedule; seeds is a tuple, and
    memory grows linearly with its length.
    """

    def __init__(self, schedule, seeds=(0,), tracked=True):
        self.schedule = schedule
        self.model = schedule.model
        self.seeds = seeds
        cd, level, n = self.model.cartan, self.spec.level, self.model.n
        self.t = schedule.t
        self.full_s = 2 * (cd["h_dual"] + level) * self.t
        # the checked times [0, full_s + 2t), widened by three time units
        lo_s, hi_s = -3 * self.t, self.full_s + 5 * self.t
        # each seed draws its cluster, then (when tracked) its coefficients
        draws = np.log([np.random.default_rng(seed).uniform(0.5, 2.0, (1 + tracked, n)) for seed in seeds]).T
        self.tracked = tracked
        if tracked:
            L0, oplus1 = draws[:, 1], real_plus1
        else:  # coefficient-free: the trivial semifield
            L0, oplus1 = np.zeros((n, len(seeds))), trivial_plus1
        Ls, logxs = run_schedule(schedule, lo_s, hi_s, L0, oplus1, draws[:, 0])
        with np.errstate(over="raise", under="raise"):  # a value off the float range raises
            self.x = np.exp(logxs, out=logxs)
            self.y = np.exp(Ls, out=Ls) if tracked else None
        self.lo_s, self.hi_s = lo_s, hi_s
        self.tops = {a: t_a * level for a, t_a in cd["t_a"].items()}
        self.lags = {a: self.t // t_a for a, t_a in cd["t_a"].items()}
        self.rows = list(schedule.g)
        self._fill(lo_s - self.t)  # T of a point at s sits at s - t/t_a >= lo_s - t

    def _fill(self, s0):
        """Fill T and Y from the mutation points of the run; s0 is the first time."""
        shape = (self.spec.rank + 1, max(self.tops.values()) + 1, self.hi_s + 1 - s0, len(self.seeds))
        self.s0, self.T, self.Y = s0, np.full(shape, np.nan), np.full(shape, np.nan)
        self.T[0] = 1.0
        for a, top in self.tops.items():
            self.T[a, [0, top]] = 1.0
        node, row = np.array(self.schedule.labels).T
        lag = np.array([self.lags[a] for a in node])
        s, v = self.schedule.points(self.lo_s, self.hi_s + 1)
        self.T[node[v], row[v], s - lag[v] - s0] = self.x[s - self.lo_s, v]
        self.Y[node[v], row[v], s - s0] = 1.0 if self.y is None else self.y[s - self.lo_s, v]

    @property
    def spec(self):
        return self.model.spec

    def _times(self, arr, a, m, s_lo, s_hi):
        """The times s in [s_lo, s_hi) at which arr[a, m] is filled; every
        seed's column has the same fill pattern."""
        filled = ~np.isnan(arr[a, m, s_lo - self.s0 : s_hi - self.s0, 0])
        return np.flatnonzero(filled) + s_lo

    def _at(self, arr, a, m, s):
        """arr[a, m] at the times s, one column per seed; raises if a time is
        off the grid."""
        vals = arr[a, m, s - self.s0]
        off = np.isnan(vals).any(axis=1)
        if off.any():
            bad = s[off][0]
            raise ValueError(f"({a}, {m}, {bad}/{self.t}) is off the grid")
        return vals

    # -- relation residuals -------------------------------------------------

    def t_residuals(self):
        """Relative residuals of the cluster-variable recursion at all P'+
        centers inside one period (coefficient-free in untracked mode)."""
        out = []
        for a, m in self.rows:
            s, dt = self._times(self.Y, a, m, 0, self.full_s), self.lags[a]
            lhs = self._at(self.T, a, m, s - dt) * self._at(self.T, a, m, s + dt)
            adj = self._at(self.T, a, m - 1, s) * self._at(self.T, a, m + 1, s)
            mon = 1.0
            for b, k, ds in self.schedule.g[(a, m)]:
                mon *= self._at(self.T, b, k, s + ds)
            if self.tracked:
                yk = self._at(self.Y, a, m, s)
                rhs = (yk * mon + adj) / (1.0 + yk)
            else:
                rhs = adj + mon
            out.append(np.abs(lhs - rhs) / np.maximum(np.abs(lhs), np.abs(rhs)))
        return np.concatenate(out)

    def y_residuals(self):
        """Relative residuals of the coefficient recursion at all P+ centers."""
        if not self.tracked:
            raise ValueError("coefficient residuals need a tracked run")
        numerators = self.schedule.numerators
        out = []
        for a, m in self.rows:
            s, dt = self._times(self.T, a, m, 0, self.full_s), self.lags[a]
            lhs = self._at(self.Y, a, m, s - dt) * self._at(self.Y, a, m, s + dt)
            num = 1.0
            for b, k, ds in numerators[(a, m)]:
                num *= 1.0 + self._at(self.Y, b, k, s + ds)
            den = 1.0
            for k in (m - 1, m + 1):  # the boundary rows carry no factor
                if (a, k) in numerators:
                    den *= 1.0 + 1.0 / self._at(self.Y, a, k, s)
            rhs = num / den
            out.append(np.abs(lhs - rhs) / np.maximum(np.abs(lhs), np.abs(rhs)))
        return np.concatenate(out)

    # -- periodicity ----------------------------------------------------------

    def _periodicity_errors(self, arr):
        """Relative half/full periodicity errors of the labelled values.

        The half statement is checked as V_{top-m}(u + half) = V_m(u); the
        row flip compensates the parity-class swap of the half shift, so
        both ends carry labels of the realized parity class.
        """
        half = self.full_s // 2
        errs = []
        for a, m in self.rows:
            s = self._times(arr, a, m, 0, 2 * self.t)
            base = self._at(arr, a, m, s)
            errs.append(np.abs(self._at(arr, a, m, s + self.full_s) - base) / np.abs(base))
            errs.append(np.abs(self._at(arr, a, self.tops[a] - m, s + half) - base) / np.abs(base))
        return np.concatenate(errs)

    def t_periodicity_errors(self):
        """Periodicity errors of the labelled T values, on the P+ class."""
        return self._periodicity_errors(self.T)

    def y_periodicity_errors(self):
        """Periodicity errors of the labelled Y values, on the P'+ class."""
        return self._periodicity_errors(self.Y)

    def labelled_coefficients(self, s_lo, s_hi):
        """The Y values at the P'+ points with s_lo <= s < s_hi: one row per
        seed, each in (s, a, m) order and contiguous."""
        ys = self.Y[:, :, s_lo - self.s0 : s_hi - self.s0].transpose(3, 2, 0, 1).reshape(len(self.seeds), -1)
        return np.compress(~np.isnan(ys[0]), ys, axis=1)


def worst_errors(tracked, plain):
    """(worst residual, worst periodicity error) over a tracked and a plain
    run, every seed: the T-recursion in both runs and the Y-recursion in the
    tracked one, the T values of the plain run and the Y values of the
    tracked one."""
    res = max(plain.t_residuals().max(), tracked.t_residuals().max(), tracked.y_residuals().max())
    per = max(plain.t_periodicity_errors().max(), tracked.y_periodicity_errors().max())
    return float(res), float(per)


# -- tropical shadow -----------------------------------------------------------


def tropical_shadow_mismatches(trop, seed=0, eps=1e-12):
    """Compare the exponents of a TropicalRun against small-parameter numeric slopes.

    Coefficients are started at y_v = eps**(e_v) for a random integer
    direction e; after running the TropicalRun's own verified schedule,
    log(y_i(u)) / log(eps) must approach the pairing of the tropical
    exponent vector with e at every mutation point with -2 <= u < 2, to
    within sqrt(eps).
    """
    mdl = trop.model
    e = np.random.default_rng(seed).integers(1, 4, mdl.n)
    logy0 = e * np.log(eps)
    t = trop.t
    Ls, _ = run_schedule(trop.schedule, -2 * t, 2 * t, logy0, real_plus1)
    s, v = trop.schedule.points(-2 * t, 2 * t)
    slopes = Ls[s + 2 * t, v] / np.log(eps)
    want = trop.E[s - trop.lo_s, v] @ e
    return [
        (mdl.position(v[i]), Fraction(int(s[i]), t), slopes[i], int(want[i]))
        for i in np.flatnonzero(np.abs(slopes - want) > math.sqrt(eps))
    ]
