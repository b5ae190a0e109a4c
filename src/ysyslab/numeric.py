"""Coefficient and cluster dynamics over positive reals along the schedule.

A run carries a cluster tuple x and (in tracked mode) a coefficient tuple
y through the mutation schedule, records the full tuples at every grid
time, and exposes the labelled values via the grid bijections.  Residual
checks then certify the recursion relations and the periodicity claims
on those labelled values; they are initialization-free in the sense that
any positive starting data must satisfy them.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .builders import model
from .gfun import g_factors, transpose_factors
from .schedule import grid_points, label_g, label_g_prime, run_schedule


def real_plus1(L):
    """log(1 + y) for the positive reals y = exp(L)."""
    return np.logaddexp(0.0, L)


def trivial_plus1(L):
    """The one-element semifield: 1 (+) 1 = 1, so log(y (+) 1) = 0."""
    return np.zeros_like(L)


class NumericRun:
    """Labelled values of one schedule run over a window around one period."""

    def __init__(self, family, rank, level, seed=0, tracked=True):
        self.model = model(family, rank, level)
        cd = self.model.cartan
        self.t = cd["t"]
        self.full_s = 2 * (cd["h_dual"] + level) * self.t
        # the checked times [0, full_s + 2t), widened by three time units
        lo_s, hi_s = -3 * self.t, self.full_s + 5 * self.t
        rng = np.random.default_rng(seed)
        logx0 = np.log(rng.uniform(0.5, 2.0, self.model.n))
        self.tracked = tracked
        if tracked:
            L0, oplus1 = np.log(rng.uniform(0.5, 2.0, self.model.n)), real_plus1
        else:  # coefficient-free: the trivial semifield
            L0, oplus1 = np.zeros(self.model.n), trivial_plus1
        runs = run_schedule(self.model, lo_s, hi_s, L0, oplus1, logx0)
        with np.errstate(over="raise"):  # a value past the float range raises
            self.snaps = {
                s: (np.exp(logx), np.exp(L) if tracked else None) for s, (L, logx) in runs.items()
            }
        self.lo_s, self.hi_s = lo_s, hi_s

    @property
    def spec(self):
        return self.model.spec

    def X(self, a, m, s_w):
        """Labelled cluster value at grid point (a, m, w = s_w/t); boundary 1."""
        if a == 0 or m == 0:
            return 1.0
        if m == self.model.cartan["t_a"][a] * self.model.spec.level:
            return 1.0
        v, s = label_g(self.model, a, m, s_w)
        return float(self.snaps[s][0][v])

    def Y(self, a, m, s):
        v, s2 = label_g_prime(self.model, a, m, s)
        return float(self.snaps[s2][1][v])

    # -- relation residuals -------------------------------------------------

    def _grid(self, prime, s_lo, s_hi):
        return grid_points(self.spec.family, self.spec.rank, self.spec.level, s_lo, s_hi, prime)

    def t_residuals(self):
        """Relative residuals of the cluster-variable recursion at all P'+
        centers inside one period (coefficient-free in untracked mode)."""
        fam, rank, lev = self.spec.family, self.spec.rank, self.spec.level
        cd = self.model.cartan
        out = []
        for a, m, s in self._grid(True, 0, self.full_s):
            dt = self.t // cd["t_a"][a]
            lhs = self.X(a, m, s - dt) * self.X(a, m, s + dt)
            adj = self.X(a, m - 1, s) * self.X(a, m + 1, s)
            mon = 1.0
            for b, k, dv in g_factors(fam, rank, lev, a, m):
                mon *= self.X(b, k, s + int(dv * self.t))
            if self.tracked:
                yk = self.Y(a, m, s)
                rhs = (yk * mon + adj) / (1.0 + yk)
            else:
                rhs = adj + mon
            out.append(abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
        return np.array(out)

    def y_residuals(self):
        """Relative residuals of the coefficient recursion at all P+ centers."""
        if not self.tracked:
            raise ValueError("coefficient residuals need a tracked run")
        cd = self.model.cartan
        numerators = transpose_factors(self.spec.family, self.spec.rank, self.spec.level)
        out = []
        for a, m, s in self._grid(False, 0, self.full_s):
            dt = self.t // cd["t_a"][a]
            lhs = self.Y(a, m, s - dt) * self.Y(a, m, s + dt)
            num = 1.0
            for b, k, dv in numerators[(a, m)]:
                num *= 1.0 + self.Y(b, k, s + int(dv * self.t))
            den = 1.0
            for k in (m - 1, m + 1):  # the boundary rows carry no factor
                if (a, k) in numerators:
                    den *= 1.0 + 1.0 / self.Y(a, k, s)
            rhs = num / den
            out.append(abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
        return np.array(out)

    # -- periodicity ----------------------------------------------------------

    def _periodicity_errors(self, value, prime):
        """Relative half/full periodicity errors of the labelled values.

        The half statement is checked as V_{top-m}(u + half) = V_m(u); the
        row flip compensates the parity-class swap of the half shift, so
        both ends carry labels of the realized parity class.
        """
        cd = self.model.cartan
        half = self.full_s // 2
        errs = []
        for a, m, s in self._grid(prime, 0, 2 * self.t):
            base = value(a, m, s)
            top = cd["t_a"][a] * self.spec.level
            errs.append(abs(value(a, m, s + self.full_s) - base) / abs(base))
            errs.append(abs(value(a, top - m, s + half) - base) / abs(base))
        return np.array(errs)

    def t_periodicity_errors(self):
        """Periodicity errors of the labelled T values, on the P+ class."""
        return self._periodicity_errors(self.X, prime=False)

    def y_periodicity_errors(self):
        """Periodicity errors of the labelled Y values, on the P'+ class."""
        return self._periodicity_errors(self.Y, prime=True)

    def labelled_coefficients(self, s_lo, s_hi):
        """(a, m, s, y) over the P'+ grid points in the window."""
        for a, m, s in self._grid(True, s_lo, s_hi):
            yield a, m, s, self.Y(a, m, s)


def run_pairs(family, rank, level, seeds):
    """A (tracked, plain) pair of runs of one case for each seed."""
    return [
        (NumericRun(family, rank, level, seed=seed), NumericRun(family, rank, level, seed=seed, tracked=False))
        for seed in seeds
    ]


def worst_errors(pairs):
    """(worst residual, worst periodicity error) over (tracked, plain) run pairs:
    the T-recursion in both runs and the Y-recursion in the tracked one, the
    T values of the plain run and the Y values of the tracked one."""
    res = max(
        max(plain.t_residuals().max(), tracked.t_residuals().max(), tracked.y_residuals().max())
        for tracked, plain in pairs
    )
    per = max(
        max(plain.t_periodicity_errors().max(), tracked.y_periodicity_errors().max())
        for tracked, plain in pairs
    )
    return float(res), float(per)


def positivity_violations(run):
    """Times at which any cluster or coefficient entry fails to be positive."""
    bad = []
    for s, (x, y) in run.snaps.items():
        if x is not None and not (x > 0).all():
            bad.append(("x", s))
        if y is not None and not (y > 0).all():
            bad.append(("y", s))
    return bad


# -- tropical shadow -----------------------------------------------------------


def tropical_shadow_mismatches(trop, seed=0, n_points=20, eps=1e-12):
    """Compare the exponents of a TropicalRun against small-parameter numeric slopes.

    Coefficients are started at y_v = eps**(e_v) for a random integer
    direction e; after running the schedule, log(y_i(u)) / log(eps) must
    approach the pairing of the tropical exponent vector with e.
    """
    mdl = trop.model
    rng = np.random.default_rng(seed)
    e = rng.integers(1, 4, mdl.n)
    logy0 = e * np.log(eps)
    t = trop.t
    snaps = run_schedule(mdl, -2 * t, 2 * t, logy0, real_plus1)
    points = list(trop.p_plus_points(-2 * t, 2 * t))
    rng.shuffle(points)
    bad = []
    for v, s in points[:n_points]:
        slope = snaps[s][0][v] / np.log(eps)
        want = int(trop.monomial(v, s) @ e)
        if abs(slope - want) > 0.3:
            bad.append((mdl.position(v), Fraction(s, t), slope, want))
    return bad
