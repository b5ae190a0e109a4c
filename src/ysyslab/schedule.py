"""Time-indexed mutation schedules, the column fold, and the schedule runner.

Time u runs over (1/t)*Z and is stored as the exact scaled integer s = t*u.
One period of the quiver sequence is two time units, i.e. 2t steps:

* types C/F4 (t=2): the four-step cycle
      mu_bullet+ mu_circle+ | mu_bullet- | mu_bullet+ mu_circle- | mu_bullet-
  after which the quiver returns to itself, passing through its opposite
  and its left-right reflection on the way;
* type G2 (t=3): the six-step cycle that pairs mu_bullet+/- with the
  circle regions I..VI, passing through column-permuted (and opposite)
  copies of the quiver.

A Schedule verifies the expected quiver at each slot over one period when
it is made, and every run is driven by one; a failure means a transcription
or sign-convention fault in the builders.

The labelled values T^{(a)}_m(u) and Y^{(a)}_m(u) sit at the mutation
points: the vertex of column col and row m mutated at time u carries
Y^{(a)}_m(u) and T^{(a)}_m(u - 1/t_a), with a = column_fold(col).
Schedule.points lists the mutation points of a time window, and
run_schedule records a seed at every time of one, so a run's value at a
point (s, v) is one array read.  A Schedule holds one SlotOperator per slot
and direction, so a run's step only indexes them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .builders import ROMAN, involutions
from .gfun import g_factors, transpose_factors
from .quiver import FILL_BULLET, FILL_CIRCLE


# -- mutation slots and the column fold -----------------------------------------


#: The tag of the circles mutated at each of the 2t slots; the "+" bullets
#: join them at even slots and the "-" bullets make up the odd ones.
CIRCLE_TAGS = {"C": ("+", None, "-", None), "F4": ("+", None, "-", None), "G2": ROMAN}


def slot_sets(model):
    """Vertex sets mutated at each of the 2t schedule slots."""
    if model.spec.family not in CIRCLE_TAGS:
        raise ValueError(f"no schedule for family {model.spec.family!r}")
    meta, bullets = model.quiver.meta, ((FILL_BULLET, "+"), (FILL_BULLET, "-"))
    return [
        tuple(v for v, m in enumerate(meta) if (m.fill, m.tag) in ((FILL_CIRCLE, tag), bullets[k % 2]))
        for k, tag in enumerate(CIRCLE_TAGS[model.spec.family])
    ]


def column_fold(family, rank, col):
    """The Dynkin node a of quiver column col.

    The vertex in column col and row m that is mutated at time u carries
    Y^{(a)}_m(u) and T^{(a)}_m(u - 1/t_a); these mutation points are the
    labelled values, one for each point of the P'+ grid.
    """
    if family == "C":
        return min(col, rank)  # the two circle columns both carry a = r
    if family == "F4":
        return col if col <= 4 else 7 - col  # columns 6, 5 mirror 1, 2
    if family == "G2":
        return 1 if col <= 3 else 2
    raise ValueError(f"unknown family {family!r}")


#: The expected quiver at each of the 2t slots, as the involution of
#: builders.involutions that relabels the initial quiver and whether the
#: slot's quiver is its opposite ("id" leaves the labels as they are).
TRANSFORMS = {
    "C": (("id", False), ("id", True), ("r", False), ("r", True)),
    "F4": (("id", False), ("id", True), ("r", False), ("r", True)),
    # G2: the six-step cycle alternates opposite copies with column 3-cycles
    "G2": (
        ("id", False), ("nu_132", True), ("nu_312", False), ("nu_321", True), ("nu_231", False), ("nu_213", True),
    ),
}


def expected_quivers(model):
    """Expected exchange matrix at each slot, relative to the initial quiver."""
    invs = involutions(model)
    out = []
    for name, opposite in TRANSFORMS[model.spec.family]:
        B = model.quiver.B if name == "id" else model.quiver.apply_perm(invs[name]).B
        out.append(-B if opposite else B)
    return out


# -- the runner ----------------------------------------------------------------


class ScheduleError(AssertionError):
    """A step produced a quiver different from the expected transform."""


def slot_matrices(model, sets):
    """The exchange matrix at each slot, verified by one period of mutation.

    The initial quiver is mutated through one forward period at the slot
    sets with Quiver.mutate, and every step is compared with
    expected_quivers.  Each slot set must be pairwise non-adjacent, so its
    composite mutation is an involution: the one forward period also
    certifies every backward step and every later period.
    """
    t = model.cartan["t"]
    expected = expected_quivers(model)
    Q = model.quiver
    for s, ks in enumerate(sets):
        try:
            Q = Q.composite_mutate(ks)
        except ValueError as err:
            raise ScheduleError(f"step from u={Fraction(s, t)}: {err}") from err
        if not np.array_equal(Q.B, expected[(s + 1) % (2 * t)]):
            raise ScheduleError(
                f"quiver mismatch after step to u={Fraction(s + 1, t)} "
                f"(family {model.spec.family}, rank {model.spec.rank}, "
                f"level {model.spec.level})"
            )
    return expected


class Schedule:
    """The verified schedule of one case: its model, the vertex sets of the
    2t slots, the exchange matrix at each slot, the forward and backward
    SlotOperator of each slot (slot_operators), the (a, m) label of each
    vertex, and the T- and Y-relation tables read off them (g and its
    transpose numerators, see gfun).

    Making one runs slot_matrices and g_factors, and raises ScheduleError on
    a quiver mismatch or an exchange relation not of T-relation shape, so
    holding a Schedule means both one-period checks have passed.  Instances
    hash by identity.
    """

    def __init__(self, model):
        self.model = model
        self.t = model.cartan["t"]
        self.sets = slot_sets(model)
        self.matrices = slot_matrices(model, self.sets)
        self.forward, self.backward = slot_operators(self.sets, self.matrices)
        fam, rank = model.spec.family, model.spec.rank
        self.labels = [(column_fold(fam, rank, col), m) for col, m in map(model.position, range(model.n))]
        try:
            self.g = g_factors(self)
        except ValueError as err:
            raise ScheduleError(f"no T-relation (family {fam}, rank {rank}, level {model.spec.level}): {err}") from err
        self.numerators = transpose_factors(self.g)

    def points(self, s_lo, s_hi):
        """The mutation points (s, v) with s_lo <= s < s_hi, as two int arrays
        in time order: vertex v is mutated at time s, in the slot s mod 2t."""
        pairs = [(s, v) for s in range(s_lo, s_hi) for v in self.sets[s % (2 * self.t)]]
        s, v = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
        return s, v


class SlotOperator(NamedTuple):
    """The composite mutation at the pairwise non-adjacent vertices ks of an
    exchange matrix B: ks as an index array, and P = B[ks] with its positive
    parts plus = [P]+ and minus = [-P]+, in float64 so that mutate_slot's
    products run in BLAS."""

    ks: np.ndarray
    P: np.ndarray
    plus: np.ndarray
    minus: np.ndarray


def slot_operator(B, ks):
    """The SlotOperator of mutating B at the vertices ks."""
    ks = np.array(ks, dtype=np.intp)
    P = B[ks].astype(np.float64)
    return SlotOperator(ks, P, np.maximum(P, 0), np.maximum(-P, 0))


def slot_operators(sets, matrices):
    """(forward, backward): the SlotOperator of a step from each slot s.

    A forward step mutates the matrix at s at its own set; a backward step
    from s undoes the slot before s, applying that slot's set to the matrix
    at s.
    """
    forward = [slot_operator(B, ks) for B, ks in zip(matrices, sets)]
    backward = [slot_operator(B, sets[s - 1]) for s, B in enumerate(matrices)]
    return forward, backward


def mutate_slot(op, L, oplus1, logx=None):
    """Mutate the seed (L, logx) by the SlotOperator op of vertices ks in B.

    The seed is written additively: L holds the coefficients (one entry, or
    one exponent row, per vertex) of a semifield whose y (+) 1 is oplus1,
    and logx the log cluster.  Each k in ks sends

        L_j    -> L_j + [B_kj]+ L_k - B_kj oplus1(L_k)   (j != k),   L_k -> -L_k,
        logx_k -> logaddexp(L_k + sum_i [-B_ki]+ logx_i, sum_i [B_ki]+ logx_i)
                  - oplus1(L_k) - logx_k.

    Non-adjacency keeps the rows of B at ks fixed inside the slot, so the
    slot is one array update.  The products are taken in float64 and the
    result cast back to L's dtype, so an integer L stays exact while every
    partial sum is below 2**53 (TropicalRun checks this).  Returns new arrays.
    """
    ks, P = op.ks, op.P
    Lk = L[ks]
    plus1 = oplus1(Lk)
    L = (L + op.plus.T @ Lk - P.T @ plus1).astype(L.dtype, copy=False)
    L[ks] = -Lk
    if logx is not None:
        xk = np.logaddexp(Lk + op.minus @ logx, op.plus @ logx)
        logx = logx.copy()
        logx[ks] = xk - plus1 - logx[ks]
    return L, logx


def run_schedule(schedule, s_lo, s_hi, L, oplus1, logx=None):
    """Drive the seed (L, logx) of mutate_slot through a verified Schedule,
    from time 0 forward to s_hi and backward to s_lo, with s_lo <= 0 <= s_hi.

    Returns the run record (Ls, xs): Ls[s - s_lo] and xs[s - s_lo] are L
    and logx at time s, for s_lo <= s <= s_hi; xs is None without logx.
    """
    if not s_lo <= 0 <= s_hi:
        raise ValueError(f"the window [{s_lo}, {s_hi}] must contain time 0")
    period = 2 * schedule.t
    Ls = np.empty((s_hi - s_lo + 1, *L.shape), dtype=L.dtype)
    xs = None if logx is None else np.empty((s_hi - s_lo + 1, *logx.shape))
    for step, stop, ops in ((1, s_hi, schedule.forward), (-1, s_lo, schedule.backward)):
        s, Lc, xc = 0, L, logx
        while True:
            Ls[s - s_lo] = Lc
            if xs is not None:
                xs[s - s_lo] = xc
            if s == stop:
                break
            Lc, xc = mutate_slot(ops[s % period], Lc, oplus1, xc)
            s += step
    return Ls, xs
