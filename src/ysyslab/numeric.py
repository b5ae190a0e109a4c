"""Coefficient and cluster dynamics over positive reals along the schedule.

One run carries cluster tuples x and coefficient tuples y through the
mutation schedule and records the full tuples at every time, in two arrays
indexed by time.  The cluster record has the columns [positive-real seeds |
coefficient-free seeds]: the J random seeds with coefficients in the
positive reals, then the same cluster draws in the trivial semifield, where
y (+) 1 = 1 keeps every y exactly 1.  The coefficient record holds the J
positive-real columns alone, since the coefficient-free y is 1 throughout.
The schedule's GatherPlan names the record row of each labelled value
T^{(a)}_m and Y^{(a)}_m (the schedule's labels name the (a, m) of each
point), so the residual checks certify the recursion relations and the
periodicity claims as whole-array gathers, one factor of every relation and
seed at a time; they are initialization-free in the sense that any
positive starting data must satisfy them.  The relations are the tables of
the schedule (Schedule.g, Schedule.numerators), read off its exchange
matrices.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# numpy 2 loads numpy.random on first use; load it at import, with the rest
# of the start-up, so that the first run does not pay for it
import numpy.random  # noqa: F401

from .schedule import UNIT, run_schedule


def real_plus1(L, out=None):
    """log(1 + y) for the positive reals y = exp(L)."""
    return np.logaddexp(0.0, L, out=out)


class NumericRun:
    """The run records of one schedule over the window of its GatherPlan,
    one column per seed and semifield, and the relation and periodicity
    checks gathered from them.

    The run records x[s - lo_s, v, c] and y[s - lo_s, v, j] hold the
    cluster and the coefficient value of vertex v at time s, for
    lo_s <= s <= hi_s.  Column j < J of x (the slice real) and column j of
    y run seeds[j] with coefficients in the positive reals, and column
    J + j of x (the slice free) the same cluster draw coefficient-free,
    with y exactly 1, which no record holds.  The schedule's GatherPlan
    names the record row of each labelled value T^{(a)}_m(s/t) (in x) and
    Y^{(a)}_m(s/t) (in y), so every check is a few whole-array gathers; T
    is 1 on its boundary rows.  The T-relations are read in both blocks of
    x, the Y checks in y and T periodicity in free.  The run is driven by a
    verified schedule.Schedule with one run_schedule call from the seed
    draws at lo_s, which fills the records in logs; seeds is a non-empty
    tuple, and memory grows linearly with its length.

    Each record is kept flattened to one row per (time, vertex), as the
    plan numbers them, with one trailing row of exact 1.0 that UNIT reads,
    and is exponentiated in place; x and y are views of all but that row,
    so every plan read is one np.take (gather).
    """

    def __init__(self, schedule, seeds=(0,)):
        if len(seeds) == 0:
            raise ValueError("NumericRun needs at least one seed; seeds is empty")
        self.schedule = schedule
        self.model = schedule.model
        self.seeds = seeds
        self.t = schedule.t
        plan = schedule.plan
        self.full_s, self.lo_s, self.hi_s = plan.full_s, plan.lo_s, plan.hi_s
        J, n, times = len(seeds), self.model.n, self.hi_s - self.lo_s + 1
        self.real, self.free = slice(0, J), slice(J, 2 * J)
        # each seed draws its cluster, then its coefficients; both blocks
        # start from the same cluster draw
        draws = np.log([np.random.default_rng(seed).uniform(0.5, 2.0, (2, n)) for seed in seeds]).T
        logy, logx = draws[:, 1], np.tile(draws[:, 0], 2)
        self._x, self._y = np.empty((times * n + 1, 2 * J)), np.empty((times * n + 1, J))
        self.x, self.y = self._x[:-1].reshape(times, n, 2 * J), self._y[:-1].reshape(times, n, J)
        run_schedule(schedule, self.lo_s, self.hi_s, logy, real_plus1, logx, (self.y, self.x))
        # a value off the float range raises FloatingPointError
        with np.errstate(over="raise", under="raise"):
            for record in (self._x, self._y):
                np.exp(record[:-1], out=record[:-1])
                record[-1] = 1.0

    @property
    def spec(self):
        return self.model.spec

    def t_values(self, rows):
        """The T values at record rows of the schedule's GatherPlan, one
        column per column of x."""
        return gather(self._x, rows)

    def y_values(self, rows):
        """The Y values at record rows of the schedule's GatherPlan, one
        column per seed of the positive-real block."""
        return gather(self._y, rows)

    # -- relation residuals -------------------------------------------------

    def t_residuals(self):
        """Relative residuals of the cluster-variable recursion at all P'+
        centers inside one period, one column per column of x: with the
        coefficients in the positive-real block, coefficient-free in the
        other."""
        plan = self.schedule.plan
        rel = plan.translated(plan.t_relation)
        lhs, adj = gather_prod(self._x, rel.lhs), gather_prod(self._x, rel.adjacent)
        rhs = gather_prod(self._x, rel.factors)  # the monomial; the padding is an exact 1.0
        # adj + mon coefficient-free, (yk mon + adj) / (1 + yk) with the
        # coefficients, in place over the monomial
        yk = self.y_values(rel.center)
        rhs[:, self.free] += adj[:, self.free]
        real = rhs[:, self.real]
        real *= yk
        real += adj[:, self.real]
        yk += 1.0
        real /= yk
        del adj, yk
        return _relative_residuals(lhs, rhs)

    def y_residuals(self):
        """Relative residuals of the coefficient recursion at all P+ centers,
        in the positive-real block."""
        plan = self.schedule.plan
        rel = plan.translated(plan.y_relation)
        lhs = gather_prod(self._y, rel.lhs)
        # 1 + Y of each factor over 1 + 1/Y of each adjacent row; the
        # padding and the boundary rows carry no factor
        rhs = gather_prod(self._y, rel.factors, _one_plus)
        rhs /= gather_prod(self._y, rel.adjacent, _one_plus_inverse)
        return _relative_residuals(lhs, rhs)

    # -- periodicity ----------------------------------------------------------

    def t_periodicity_errors(self):
        """Relative half/full periodicity errors of the labelled T values, on
        the P+ class, in the coefficient-free block.

        The half statement is checked as T_{top-m}(u + half) = T_m(u); the
        row flip compensates the parity-class swap of the half shift, so
        both ends carry labels of the realized parity class.
        """
        base, other = self.schedule.plan.t_period
        base = self.t_values(base)[:, self.free]
        return np.abs(self.t_values(other)[:, self.free] - base) / np.abs(base)

    def y_periodicity_errors(self):
        """Periodicity errors of the labelled Y values, on the P'+ class, in
        the positive-real block, as t_periodicity_errors."""
        base, other = self.schedule.plan.y_period
        base = self.y_values(base)
        return np.abs(self.y_values(other) - base) / np.abs(base)

    def labelled_coefficients(self, s_lo, s_hi):
        """The Y values at the P'+ points with s_lo <= s < s_hi: one row per
        seed of the positive-real block, each in (s, a, m) order and
        contiguous."""
        return np.ascontiguousarray(self.y_values(self.schedule.plan.coefficients(s_lo, s_hi)).T)


def gather(record, rows):
    """record[rows] in one np.take, for a flattened run record and plan
    rows; a record that ends in a row of exact 1.0, as NumericRun keeps
    them, gives 1.0 where a row is UNIT (-1), which reads that last row."""
    return np.take(record, rows, axis=0)


def gather_prod(record, rows, term=None):
    """The product along axis 1 of the record values at (relations, factors)
    plan rows, gathered one factor column at a time and multiplied into the
    first in place, left to right as np.prod multiplies them, bit for bit.
    term(values, rows), when given, turns each gathered column into its
    factor in place first."""
    out = None
    for column in rows.T:
        values = gather(record, column)
        if term is not None:
            term(values, column)
        if out is None:
            out = values
        else:
            out *= values
    return out


def _one_plus(y, rows):
    """y -> 1 + y in place, and 1.0 where rows is UNIT."""
    y += 1.0
    y[rows == UNIT] = 1.0


def _one_plus_inverse(y, rows):
    """y -> 1 + 1/y in place, and 1.0 where rows is UNIT."""
    np.divide(1.0, y, out=y)
    _one_plus(y, rows)


def _relative_residuals(lhs, rhs):
    """|lhs - rhs| / max(|lhs|, |rhs|), elementwise, bit for bit, computed
    in place over lhs and rhs, which it overwrites."""
    out = lhs - rhs
    np.abs(out, out=out)
    np.abs(lhs, out=lhs)
    np.abs(rhs, out=rhs)
    np.maximum(lhs, rhs, out=lhs)
    out /= lhs
    return out


def worst_errors(run):
    """(worst residual, worst periodicity error) of a NumericRun, every seed:
    the T-recursion in both blocks and the Y-recursion, the T values of the
    coefficient-free block and the Y values.  A NaN anywhere is the worst."""
    res = np.max([run.t_residuals().max(), run.y_residuals().max()])
    per = np.max([run.t_periodicity_errors().max(), run.y_periodicity_errors().max()])
    return float(res), float(per)


# -- tropical shadow -----------------------------------------------------------

#: The small parameter the shadow run starts its coefficients at.
SHADOW_EPS = 1e-12


def tropical_shadow_mismatches(trop, seed=0):
    """Compare the exponents of a TropicalRun against small-parameter numeric slopes.

    Coefficients are started at y_v = SHADOW_EPS**(e_v) for a random integer
    direction e; after running the TropicalRun's own verified schedule,
    log(y_i(u)) / log(SHADOW_EPS) must approach the pairing of the tropical
    exponent vector with e at every mutation point with 0 <= u < 4, to
    within sqrt(SHADOW_EPS).
    """
    mdl = trop.model
    e = np.random.default_rng(seed).integers(1, 4, mdl.n)
    logy0 = e * np.log(SHADOW_EPS)
    t = trop.t
    Ls, _ = run_schedule(trop.schedule, 0, 4 * t, logy0, real_plus1)
    s, v = trop.schedule.points(0, 4 * t)
    slopes = Ls[s, v] / np.log(SHADOW_EPS)
    want = trop.monomial(v, s) @ e
    return [
        (mdl.position(v[i]), Fraction(int(s[i]), t), slopes[i], int(want[i]))
        for i in np.flatnonzero(np.abs(slopes - want) > math.sqrt(SHADOW_EPS))
    ]
