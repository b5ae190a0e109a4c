"""Coefficient dynamics in the tropical semifield along the schedule.

A tropical coefficient is a Laurent monomial in the initial generators
y_v (one per vertex), stored as its integer exponent vector.  Tropical
addition takes componentwise minima, so y (+) 1 has exponent vector
min(e, 0), and the exchange rule of schedule.mutate_slot acts on the
exponent rows by exact integer arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .builders import involutions
from .quiver import FILL_CIRCLE
from .schedule import run_schedule

POSITIVE = "positive"
NEGATIVE = "negative"
UNIT = "unit"
MIXED = "mixed"


def tropical_plus1(E):
    """Exponent rows of y (+) 1 for the monomials with exponent rows E."""
    return np.minimum(E, 0)


def sign_of(vec):
    """Classify an exponent vector: positive / negative / unit / mixed."""
    vec = np.asarray(vec)
    if not vec.any():
        return UNIT
    if (vec >= 0).all():
        return POSITIVE
    if (vec <= 0).all():
        return NEGATIVE
    return MIXED


def specialize(vec, kill):
    """Set the generators listed in kill to 1 (zero out their exponents)."""
    out = np.array(vec, dtype=np.int64)
    for v in kill:
        out[v] = 0
    return out


class TropicalRun:
    """Tropical evaluation of the coefficient tuple over a time window, driven
    by a verified schedule.Schedule."""

    def __init__(self, schedule):
        self.schedule = schedule
        self.model = schedule.model
        cd = self.model.cartan
        self.t = schedule.t
        self.half_s = (cd["h_dual"] + self.spec.level) * self.t
        self.full_s = 2 * self.half_s
        E0 = np.eye(self.model.n, dtype=np.int64)
        lo_s, hi_s = -cd["h_dual"] * self.t - 1, 2 * self.full_s
        runs = run_schedule(schedule, lo_s, hi_s, E0, tropical_plus1)
        self.tuples = {s: E for s, (E, _) in runs.items()}
        self.omega = involutions(self.model)["omega"]

    @property
    def spec(self):
        return self.model.spec

    def monomial(self, v, s):
        return self.tuples[s][v]

    def p_plus_points(self, s_lo, s_hi):
        """Vertex-time mutation points (v, s) with s_lo <= s < s_hi."""
        for s in range(s_lo, s_hi):
            for v in self.schedule.sets[s % (2 * self.t)]:
                yield v, s

    # -- headline checks ------------------------------------------------------

    def count_signs(self):
        """(N+, N-) over one full period; raises on a mixed or unit monomial."""
        npos = nneg = 0
        for v, s in self.p_plus_points(0, self.full_s):
            cls = sign_of(self.monomial(v, s))
            if cls == POSITIVE:
                npos += 1
            elif cls == NEGATIVE:
                nneg += 1
            else:
                pos = self.model.position(v)
                raise ArithmeticError(
                    f"{cls} tropical monomial at vertex {pos}, u={Fraction(s, self.t)}"
                )
        return npos, nneg

    def periodicity_mismatches(self):
        """Coordinates violating half (with omega) or full periodicity."""
        bad = []
        for s in range(0, self.full_s):
            Eh = self.tuples[s + self.half_s]
            E0 = self.tuples[s]
            for v in range(self.model.n):
                if not np.array_equal(Eh[v], E0[self.omega[v]]):
                    bad.append(("half", self.model.position(v), Fraction(s, self.t)))
            Ef = self.tuples[s + self.full_s]
            if not np.array_equal(Ef, E0):
                bad.append(("full", None, Fraction(s, self.t)))
        return bad

    def boundary_mismatches(self):
        """Check the closed-form coefficient tuples at u = level and u = -h_dual.

        At u = level every y_{(i,k)} equals the inverse of an initial
        generator with the row index reflected inside its column; at
        u = -h_dual the tuple is the inverse of the initial one up to the
        families' column swaps.
        """
        m = self.model
        fam, r, lev = m.spec.family, m.spec.rank, m.spec.level
        bad = []

        def expect_inverse(s, src_pos, dst_pos):
            vec = self.monomial(m.vid(*src_pos), s)
            want = np.zeros(m.n, dtype=np.int64)
            want[m.vid(*dst_pos)] = -1
            if not np.array_equal(vec, want):
                bad.append((Fraction(s, self.t), src_pos, dst_pos))

        for v in range(m.n):
            col, row = m.position(v)
            if fam == "C":
                top = 2 * lev if col <= r - 1 else lev
                expect_inverse(lev * self.t, (col, row), (col, top - row))
                swap = col if (r % 2 == 1 or col <= r - 1) else 2 * r + 1 - col
                expect_inverse(-m.cartan["h_dual"] * self.t, (col, row), (swap, row))
            elif fam == "F4":
                top = 2 * lev if col in (3, 4) else lev
                expect_inverse(lev * self.t, (col, row), (col, top - row))
                swap = col if col in (3, 4) else 7 - col
                expect_inverse(-m.cartan["h_dual"] * self.t, (col, row), (swap, row))
            else:
                top = 3 * lev if col == 4 else lev
                expect_inverse(lev * self.t, (col, row), (col, top - row))
                expect_inverse(-m.cartan["h_dual"] * self.t, (col, row), (col, row))
        return bad

    def expected_sign(self, v, s):
        """Sign predicted by the region/row classification, or None outside it.

        Region one (0 <= u < level): every mutation-point monomial is
        positive.  Region two (-h_dual <= u < 0): circle rows and the even
        (for G2: multiple-of-three) bullet rows are negative; the remaining
        bullet rows are negative except at an explicit finite list of
        times, where they are positive.
        """
        m = self.model
        fam = m.spec.family
        u = Fraction(s, self.t)
        if 0 <= u < m.spec.level:
            return POSITIVE
        if not -m.cartan["h_dual"] <= u < 0:
            return None
        meta = m.quiver.meta[v]
        if fam == "C":
            if meta.fill == FILL_CIRCLE or meta.row % 2 == 0:
                return NEGATIVE
            hd = Fraction(m.cartan["h_dual"])
            return POSITIVE if u in (-hd / 2, -hd / 2 - Fraction(1, 2)) else NEGATIVE
        if fam == "F4":
            if meta.fill == FILL_CIRCLE or meta.row % 2 == 0:
                return NEGATIVE
            pos_times = [Fraction(x) for x in ("-2", "-5/2", "-9/2", "-5", "-7", "-15/2")]
            return POSITIVE if u in pos_times else NEGATIVE
        if meta.fill == FILL_CIRCLE or meta.row % 3 == 0:
            return NEGATIVE
        pos_times = [Fraction(x) for x in ("-1", "-4/3", "-5/3", "-8/3", "-3", "-10/3")]
        return POSITIVE if u in pos_times else NEGATIVE

    def sign_pattern_mismatches(self):
        """Mutation points whose tropical sign contradicts the classification."""
        bad = []
        lo = -self.model.cartan["h_dual"] * self.t
        hi = self.model.spec.level * self.t
        for v, s in self.p_plus_points(lo, hi):
            want = self.expected_sign(v, s)
            got = sign_of(self.monomial(v, s))
            if want is not None and got != want:
                bad.append((self.model.position(v), Fraction(s, self.t), got, want))
        return bad


def expected_counts(family, rank, level):
    """Closed forms for the (N+, N-) sign tallies over one full period."""
    r, lev = rank, level
    if family == "C":
        return 2 * lev * (2 * r * lev - lev - 1), 2 * r * (2 * lev * r - r - 1)
    if family == "F4":
        return 4 * lev * (3 * lev + 1), 24 * (4 * lev - 3)
    if family == "G2":
        return 6 * lev * (2 * lev + 1), 12 * (3 * lev - 2)
    raise ValueError(f"unknown family {family!r}")


def total_points(family, rank, level):
    """t*(h_dual+level)*((sum_a t_a)*level - rank): mutation points per period."""
    from .builders import cartan_data

    cd = cartan_data(family, rank)
    return cd["t"] * (cd["h_dual"] + level) * (sum(cd["t_a"].values()) * level - rank)
