"""Coefficient and cluster dynamics over positive reals along the schedule.

One run carries cluster tuples x and coefficient tuples y through the
mutation schedule and records the full tuples at every time, in one array
indexed by time, with the columns [positive-real seeds | coefficient-free
seeds]: the J random seeds with coefficients in the positive reals, then
the same cluster draws in the trivial semifield, where y (+) 1 = 1 keeps
every y exactly 1.  The schedule's GatherPlan names the record row of each
labelled value T^{(a)}_m and Y^{(a)}_m (the schedule's labels name the
(a, m) of each point), so the residual checks certify the recursion
relations and the periodicity claims as a few whole-array gathers, every
relation and seed at once; they are initialization-free in the sense that
any positive starting data must satisfy them.  The relations are the tables
of the schedule (Schedule.g, Schedule.numerators), read off its exchange
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


def real_plus1(L):
    """log(1 + y) for the positive reals y = exp(L)."""
    return np.logaddexp(0.0, L)


class NumericRun:
    """The run record of one schedule over the window of its GatherPlan,
    one column per seed and semifield, and the relation and periodicity
    checks gathered from it.

    The run record x[s - lo_s, v, c] (and y[s - lo_s, v, c]) holds the
    cluster (and coefficient) value of vertex v at time s, for
    lo_s <= s <= hi_s.  Column j < J (the slice real) runs seeds[j] with
    coefficients in the positive reals, and column J + j (the slice free)
    the same cluster draw coefficient-free, with y exactly 1.  The
    schedule's GatherPlan names the record row of each labelled value
    T^{(a)}_m(s/t) (in x) and Y^{(a)}_m(s/t) (in y), so every check is a
    few whole-array gathers; T is 1 on its boundary rows.  The T-relations
    are read in both blocks, the Y checks in real and T periodicity in
    free.  The run is driven by a verified schedule.Schedule with one
    run_schedule call from the seed draws at lo_s; seeds is a non-empty
    tuple, and memory grows linearly with its length.

    Each record is kept flattened to one row per (time, vertex), as the
    plan numbers them, with one trailing row of exact 1.0 that UNIT reads;
    x and y are views of all but that row, so every plan read is one
    np.take (gather).
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
        J = len(seeds)
        self.real, self.free = slice(0, J), slice(J, 2 * J)
        # each seed draws its cluster, then its coefficients; both blocks
        # start from the same cluster draw
        draws = np.log([np.random.default_rng(seed).uniform(0.5, 2.0, (2, self.model.n)) for seed in seeds]).T
        logx = np.tile(draws[:, 0], 2)
        L = np.concatenate([draws[:, 1], np.zeros_like(draws[:, 1])], axis=1)
        Ls, logxs = run_schedule(schedule, self.lo_s, self.hi_s, L, self._plus1, logx)
        self._x, self._y = _exp_record(logxs), _exp_record(Ls)
        self.x, self.y = self._x[:-1].reshape(logxs.shape), self._y[:-1].reshape(Ls.shape)

    def _plus1(self, L):
        """log(y (+) 1) column by column: log(1 + y) in the positive-real
        block and exactly 0 in the coefficient-free one, where 1 (+) 1 = 1."""
        out = np.zeros(L.shape)
        np.logaddexp(0.0, L[:, self.real], out=out[:, self.real])
        return out

    @property
    def spec(self):
        return self.model.spec

    def t_values(self, rows):
        """The T values at record rows of the schedule's GatherPlan, one
        column per record column."""
        return gather(self._x, rows)

    def y_values(self, rows):
        """The Y values at record rows of the schedule's GatherPlan, one
        column per seed of the positive-real block."""
        return gather(self._y, rows)[..., self.real]

    # -- relation residuals -------------------------------------------------

    def t_residuals(self):
        """Relative residuals of the cluster-variable recursion at all P'+
        centers inside one period, one column per record column: with the
        coefficients in the positive-real block, coefficient-free in the
        other."""
        plan = self.schedule.plan
        rel = plan.translated(plan.t_relation)
        lhs, adj = self.t_values(rel.lhs), self.t_values(rel.adjacent)
        lhs, adj = lhs[:, 0] * lhs[:, 1], adj[:, 0] * adj[:, 1]
        mon = _product(self.t_values(rel.factors))  # the padding is an exact 1.0
        rhs = adj + mon
        yk = self.y_values(rel.center)
        rhs[:, self.real] = (yk * mon[:, self.real] + adj[:, self.real]) / (1.0 + yk)
        return np.abs(lhs - rhs) / np.maximum(np.abs(lhs), np.abs(rhs))

    def y_residuals(self):
        """Relative residuals of the coefficient recursion at all P+ centers,
        in the positive-real block."""
        plan = self.schedule.plan
        rel = plan.translated(plan.y_relation)
        lhs = self.y_values(rel.lhs)
        lhs = lhs[:, 0] * lhs[:, 1]
        num = 1.0 + self.y_values(rel.factors)
        num[rel.factors == UNIT] = 1.0  # the padding
        den = 1.0 + 1.0 / self.y_values(rel.adjacent)
        den[rel.adjacent == UNIT] = 1.0  # the boundary rows carry no factor
        rhs = _product(num) / _product(den)
        return np.abs(lhs - rhs) / np.maximum(np.abs(lhs), np.abs(rhs))

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


def _exp_record(logs):
    """exp of a (time, vertex, column) log run record, flattened to one row
    per (time, vertex) and followed by one row of exact 1.0 (see gather).
    A value off the float range raises FloatingPointError."""
    record = np.empty((logs.shape[0] * logs.shape[1] + 1, logs.shape[2]))
    with np.errstate(over="raise", under="raise"):
        np.exp(logs.reshape(record.shape[0] - 1, -1), out=record[:-1])
    record[-1] = 1.0
    return record


def gather(record, rows):
    """record[rows] in one np.take, for a flattened run record and plan
    rows; a record that ends in a row of exact 1.0, as NumericRun keeps
    them, gives 1.0 where a row is UNIT (-1), which reads that last row."""
    return np.take(record, rows, axis=0)


def _product(values):
    """The product of values along axis 1, multiplied left to right as
    np.prod multiplies them, bit for bit, but column by column in place,
    at a fraction of its cost on a narrow axis."""
    out = values[:, 0].copy()
    for j in range(1, values.shape[1]):
        out *= values[:, j]
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
