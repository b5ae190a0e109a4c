"""Coefficient dynamics in the tropical semifield along the schedule.

A tropical coefficient is a Laurent monomial in the initial generators
y_v (one per vertex), stored as its integer exponent vector.  Tropical
addition takes componentwise minima, so y (+) 1 has exponent vector
min(e, 0).  schedule.run_schedule carries the exponent rows in float64,
one product per slot step, and records them as int8.  It checks each
time's rows against the int8 range before it stores them, so an exponent
past it raises ArithmeticError instead of wrapping.
The products are exact: see TropicalRun for the bound.

TropicalRun runs forward only, over the first half period 0 <= s <= half_s,
and serves every time of -h_dual*t <= s <= full_s from that record by
relabelling with the half-period involution omega.  Its premise, that the
schedule is omega-equivariant, is checked when the Schedule is made; the
half statement itself is compared once, on the seed (see TropicalRun).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .builders import cartan_data
from .quiver import FILL_CIRCLE
from .schedule import run_schedule

POSITIVE = "positive"
NEGATIVE = "negative"
UNIT = "unit"
MIXED = "mixed"


def tropical_plus1(E, out=None):
    """Exponent rows of y (+) 1 for the monomials with exponent rows E."""
    return np.minimum(E, 0, out=out)


def sign_classes(E):
    """The sign class of each exponent vector along the last axis of E:
    positive, negative, unit or mixed.  It reduces E along that axis
    without a mask of E's size."""
    pos, neg = E.max(-1) > 0, E.min(-1) < 0
    return np.select([pos & neg, pos, neg], [MIXED, POSITIVE, NEGATIVE], UNIT)


def boundary_targets(model, omega):
    """dst: the closed-form coefficient tuple at u = level.

    At that time the coefficient of vertex v is the inverse of the initial
    generator at dst[v] = (column of v, row of omega(v)): the half-period
    involution omega read on one coordinate.  The tuple at u = -h_dual,
    half a period earlier, is this one relabelled by omega, with the
    generator (column of omega(v), row of v) at v.
    """
    pos = [model.position(v) for v in range(model.n)]
    return [(col, pos[w][1]) for (col, _), w in zip(pos, omega)]


class PeriodicityError(ArithmeticError):
    """A read of a TropicalRun whose seed comparison failed: its record then
    gives no time but those it was run over, so no check may pass on it."""


class TropicalRun:
    """Tropical evaluation of the coefficient tuple along a verified
    schedule.Schedule, run forward over the first half period.

    H[s] holds the int8 exponent rows of the coefficients at time s, for
    0 <= s <= half_s = (h_dual + level)*t: row v is the monomial of y_v.
    monomial reads the times the checks need, lo_s = -h_dual*t <= s <=
    full_s = 2*half_s, from H by relabelling: with q, r = divmod(s, half_s),

        E(s)[v] = H[r][omega(v)] when q is odd, H[r][v] when q is even.

    That is exact on two premises.  The Schedule is omega-equivariant (it
    checks so when it is made): the operator of slot (j + half_s) mod 2t is
    that of slot j relabelled by omega, and each step is exact in integers,
    so E(s + half_s) = E(s)[omega] for every s, either way, as soon as it
    holds at s = 0.  And that seed comparison, H[half_s] = H[0][omega], is
    made once here (seed_mismatches lists the vertices where it fails);
    omega is an involution, so full periodicity follows.  When the
    comparison fails, every read of monomial raises PeriodicityError, so
    the counts, signs, t-vectors and shadow never pass on relabelled rows.
    Making one raises ArithmeticError when a step's exponent leaves the
    int8 range (the guard of run_schedule).

    The float64 product of every step, L + W @ [L[ks]; min(L[ks], 0)], is
    exact.  Each slot matrix is the built quiver relabelled or opposite,
    with entries in {-1, 0, 1}, so every entry of a slot operator's W is in
    {-2, -1, 0, 1}, and each -2 sits in a row that is otherwise zero.  A
    step's input is an int8-checked seed, so no partial sum exceeds
    128*(2n + 1) < 2**53.
    """

    def __init__(self, schedule):
        self.schedule = schedule
        self.model = schedule.model
        self.t = schedule.t
        self.half_s = schedule.half_s
        self.full_s = 2 * self.half_s
        self.lo_s = -self.model.cartan["h_dual"] * self.t
        self.omega = schedule.omega
        E0 = np.eye(self.model.n, dtype=np.int8)
        self.H, _ = run_schedule(schedule, 0, self.half_s, E0, tropical_plus1)
        self.seed_mismatches = seed_mismatches(self.H, self.omega)

    @property
    def spec(self):
        return self.model.spec

    def monomial(self, v, s):
        """The exponent rows of vertices v at times s, broadcast over arrays,
        for lo_s <= s <= full_s only: H read through omega (see TropicalRun)."""
        s = np.asarray(s)
        outside = (s < self.lo_s) | (s > self.full_s)
        if outside.any():
            bad = s.flat[np.argmax(outside)]
            raise IndexError(f"time s={bad} is outside the tropical record [{self.lo_s}, {self.full_s}]")
        if len(self.seed_mismatches):
            pos, u = self.model.position(self.seed_mismatches[0]), Fraction(self.half_s, self.t)
            raise PeriodicityError(
                f"the seed comparison E({u})[v] = E(0)[omega(v)] fails at {len(self.seed_mismatches)} of "
                f"{self.model.n} vertices, first at {pos}, so no time is read from the half record"
            )
        q, r = np.divmod(s, self.half_s)
        return self.H[r, np.where(q % 2, self.omega[v], v)]

    def point_signs(self, s_lo, s_hi):
        """(s, v, classes): the mutation points with s_lo <= s < s_hi, as
        Schedule.points lists them, and the sign class of each one's monomial."""
        s, v = self.schedule.points(s_lo, s_hi)
        return s, v, sign_classes(self.monomial(v, s))

    # -- headline checks ------------------------------------------------------

    def count_signs(self):
        """(N+, N-) over one full period; raises on a mixed or unit monomial.

        The points of the second half period are those of the first with
        their vertices relabelled by omega, and so are their monomials, so
        the tallies are twice those over 0 <= s < half_s."""
        s, v, classes = self.point_signs(0, self.half_s)
        for i in np.flatnonzero((classes != POSITIVE) & (classes != NEGATIVE))[:1]:
            pos, u = self.model.position(v[i]), Fraction(int(s[i]), self.t)
            raise ArithmeticError(f"{classes[i]} tropical monomial at vertex {pos}, u={u}")
        return 2 * int((classes == POSITIVE).sum()), 2 * int((classes == NEGATIVE).sum())

    def periodicity_mismatches(self):
        """The vertices violating half periodicity with omega on the seed, as
        ("half", position, u = 0): those v with E(half_s)[v] != E(0)[omega(v)].

        This one comparison gives the half statement, E(s + half_s)[v] =
        E(s)[omega(v)], at every s, and full periodicity too, since omega is
        an involution (see TropicalRun)."""
        return [("half", self.model.position(v), Fraction(0)) for v in self.seed_mismatches]

    def boundary_mismatches(self):
        """Vertices whose coefficient at u = level is not its closed form
        (boundary_targets), as (u, position, dst[v]).

        The tuple at u = -h_dual needs no comparison of its own: monomial
        reads that time as the one half a period later, u = level, with its
        rows relabelled by omega, and its closed form is the level one
        relabelled the same way, so it would report each fault again."""
        m = self.model
        dst = boundary_targets(m, self.omega)
        want = -np.eye(m.n, dtype=np.int64)[[m.vid(*pos) for pos in dst]]
        s = m.spec.level * self.t
        bad = np.flatnonzero((self.monomial(np.arange(m.n), s) != want).any(1))
        return [(Fraction(s, self.t), m.position(v), dst[v]) for v in bad]

    def sign_pattern_mismatches(self):
        """Mutation points whose tropical sign contradicts the region/row
        classification, as (position, u, got, want).

        Region one (0 <= u < level): every mutation-point monomial is
        positive.  Region two (-h_dual <= u < 0): circle rows and the bullet
        rows that are multiples of t are negative; the remaining bullet rows
        are negative except at the times of positive_times, where they are
        positive.
        """
        m = self.model
        s, v, got = self.point_signs(-m.cartan["h_dual"] * self.t, m.spec.level * self.t)
        meta = m.quiver.meta
        exceptional = np.array([x.fill != FILL_CIRCLE and x.row % self.t != 0 for x in meta])[v]
        positive = (s >= 0) | (exceptional & np.isin(s, positive_times(m.spec.family, m.cartan["h_dual"])))
        want = np.where(positive, POSITIVE, NEGATIVE)
        return [
            (m.position(v[i]), Fraction(int(s[i]), self.t), str(got[i]), str(want[i]))
            for i in np.flatnonzero(got != want)
        ]


def seed_mismatches(H, omega):
    """The vertices v at which the last time of the record H is not its first
    relabelled by omega: H[-1][v] != H[0][omega(v)]."""
    return np.flatnonzero((H[-1] != H[0][omega]).any(1))


def positive_times(family, h_dual):
    """The region-two times s = t*u at which the bullet rows that are not
    multiples of t are positive (u = -h_dual/2 and -h_dual/2 - 1/2 for C)."""
    return {
        "C": (-h_dual - 1, -h_dual),
        "F4": (-15, -14, -10, -9, -5, -4),
        "G2": (-10, -9, -8, -5, -4, -3),
    }[family]


def expected_counts(family, rank, level):
    """The (N+, N-) sign tallies over one full period, from the Lie data:
    N+ = t*l*((sum_a t_a)(h_dual + l) - dim g) and N- = t*r*(l*h - h_dual)."""
    cd = cartan_data(family, rank)
    t, hd, lev = cd["t"], cd["h_dual"], level
    return t * lev * (sum(cd["t_a"].values()) * (hd + lev) - cd["dim"]), t * rank * (lev * cd["h"] - hd)

