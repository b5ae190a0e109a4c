"""Coefficient dynamics in the tropical semifield along the schedule.

A tropical coefficient is a Laurent monomial in the initial generators
y_v (one per vertex), stored as its integer exponent vector.  Tropical
addition takes componentwise minima, so y (+) 1 has exponent vector
min(e, 0).  schedule.run_schedule carries the exponent rows in float64,
one product per slot step (schedule.mutate_slot), and records them as
int8.  It checks each time's rows against the int8 range before it stores
them, so an exponent past it raises ArithmeticError instead of wrapping.
The products are exact: see TropicalRun for the bound.

TropicalRun records one full period and the backward window the checks
read, -h_dual*t <= s <= full_s.  Full periodicity is checked once, on the
seed, and the half statement with omega over the first half period; the
rest of both statements follows exactly (see periodicity_mismatches).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .builders import cartan_data, involutions
from .quiver import FILL_CIRCLE
from .schedule import run_schedule

POSITIVE = "positive"
NEGATIVE = "negative"
UNIT = "unit"
MIXED = "mixed"


def tropical_plus1(E):
    """Exponent rows of y (+) 1 for the monomials with exponent rows E."""
    return np.minimum(E, 0)


def sign_classes(E):
    """The sign class of each exponent vector along the last axis of E:
    positive, negative, unit or mixed."""
    pos, neg = (E > 0).any(-1), (E < 0).any(-1)
    return np.select([pos & neg, pos, neg], [MIXED, POSITIVE, NEGATIVE], UNIT)


def boundary_targets(model, omega):
    """{s: dst}: the closed-form coefficient tuples at u = level and u = -h_dual.

    At time s the coefficient of vertex v is the inverse of the initial
    generator at dst[v]: the half-period involution omega read on one
    coordinate.  At u = level dst[v] is (column of v, row of omega(v)); at
    u = -h_dual it is (column of omega(v), row of v).
    """
    t = model.cartan["t"]
    pos = [model.position(v) for v in range(model.n)]
    img = [pos[w] for w in omega]
    return {
        model.spec.level * t: [(col, w_row) for (col, _), (_, w_row) in zip(pos, img)],
        -model.cartan["h_dual"] * t: [(w_col, row) for (_, row), (w_col, _) in zip(pos, img)],
    }


class TropicalRun:
    """Tropical evaluation of the coefficient tuple over a time window, driven
    by a verified schedule.Schedule.

    E[s - lo_s] holds the int8 exponent rows of the coefficients at time s:
    row v is the monomial of y_v.  The record spans the times the checks
    read, lo_s = -h_dual*t <= s <= full_s: the sign region and the boundary
    times from u = -h_dual to u = level, the shadow window -2t <= s < 2t,
    one full period of mutation points, and the seed one period on, at
    full_s.  Making one raises ArithmeticError when a step's exponent leaves
    the int8 range (the guard of run_schedule).

    The float64 product of every step, L + W @ [L[ks]; min(L[ks], 0)], is
    exact.  Each slot matrix is the built quiver relabelled or opposite,
    with entries in {-1, 0, 1}, so every entry of a slot operator's W is in
    {-2, -1, 0, 1}, and each -2 sits in a row that is otherwise zero.  A
    step's input is an int8-checked seed, negated on a backward step, so no
    partial sum exceeds 128*(2n + 1) < 2**53.
    """

    def __init__(self, schedule):
        self.schedule = schedule
        self.model = schedule.model
        cd = self.model.cartan
        self.t = schedule.t
        self.half_s = (cd["h_dual"] + self.spec.level) * self.t
        self.full_s = 2 * self.half_s
        self.lo_s = -cd["h_dual"] * self.t
        E0 = np.eye(self.model.n, dtype=np.int8)
        self.E, _ = run_schedule(schedule, self.lo_s, self.full_s, E0, tropical_plus1)
        self.omega = np.array(involutions(self.model)["omega"])

    @property
    def spec(self):
        return self.model.spec

    def monomial(self, v, s):
        """The exponent row of v at time s, for lo_s <= s <= full_s only."""
        if not self.lo_s <= s <= self.full_s:
            raise IndexError(f"time s={s} is outside the tropical record [{self.lo_s}, {self.full_s}]")
        return self.E[s - self.lo_s, v]

    def point_signs(self, s_lo, s_hi):
        """(s, v, classes): the mutation points with s_lo <= s < s_hi, as
        Schedule.points lists them, and the sign class of each one's monomial."""
        s, v = self.schedule.points(s_lo, s_hi)
        classes = sign_classes(self.E[s_lo - self.lo_s : s_hi - self.lo_s])
        return s, v, classes[s - s_lo, v]

    # -- headline checks ------------------------------------------------------

    def count_signs(self):
        """(N+, N-) over one full period; raises on a mixed or unit monomial."""
        s, v, classes = self.point_signs(0, self.full_s)
        for i in np.flatnonzero((classes != POSITIVE) & (classes != NEGATIVE))[:1]:
            pos, u = self.model.position(v[i]), Fraction(int(s[i]), self.t)
            raise ArithmeticError(f"{classes[i]} tropical monomial at vertex {pos}, u={u}")
        return int((classes == POSITIVE).sum()), int((classes == NEGATIVE).sum())

    def periodicity_mismatches(self):
        """Coordinates violating half (with omega) or full periodicity: the
        half mismatches in time order, by vertex, then the full one.

        Full periodicity is compared once, on the seed: E at full_s against
        E at 0, reported at u = 0.  The half statement, E(s + half_s)[v] =
        E(s)[omega(v)], is compared for 0 <= s < half_s, one slot period
        (2t times) at a time, so a comparison holds 2t*n^2 entries.  Both
        statements then hold at every s >= 0, exactly, on two premises:
        - step s applies the slot operator of s mod 2t to the exponent rows,
          exactly in integers, and full_s is a multiple of 2t, so E(full_s)
          = E(0) gives E(s + full_s) = E(s) for every s >= 0;
        - omega is an involution, so for half_s <= s < full_s the half
          statement at s - half_s and full periodicity give E(s + half_s) =
          E(s - half_s) = E(s)[omega].
        """
        bad, i0, period = [], -self.lo_s, 2 * self.t
        for c in range(0, self.half_s, period):
            base = self.E[i0 + c : i0 + min(c + period, self.half_s)]
            ahead = self.E[i0 + c + self.half_s : i0 + c + self.half_s + len(base)]
            for i, v in np.argwhere((ahead != base[:, self.omega]).any(2)):
                bad.append(("half", self.model.position(v), Fraction(c + int(i), self.t)))
        full = not np.array_equal(self.E[i0 + self.full_s], self.E[i0])
        return bad + [("full", None, Fraction(0))] * full

    def boundary_mismatches(self):
        """Vertices whose coefficient at u = level or u = -h_dual is not its
        closed form (boundary_targets)."""
        m = self.model
        bad = []
        for s, dst in boundary_targets(m, self.omega).items():
            want = -np.eye(m.n, dtype=np.int64)[[m.vid(*pos) for pos in dst]]
            for v in np.flatnonzero((self.E[s - self.lo_s] != want).any(1)):
                bad.append((Fraction(s, self.t), m.position(v), dst[v]))
        return bad

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

