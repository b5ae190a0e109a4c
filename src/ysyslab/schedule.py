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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .builders import ROMAN, involutions
from .quiver import FILL_BULLET, FILL_CIRCLE


# -- mutation slots and the column fold -----------------------------------------


def slot_sets(model):
    """Vertex sets mutated at each of the 2t schedule slots."""
    q = model.quiver
    fam = model.spec.family
    bullets_plus = [v for v in range(q.n) if q.meta[v].fill == FILL_BULLET and q.meta[v].tag == "+"]
    bullets_minus = [v for v in range(q.n) if q.meta[v].fill == FILL_BULLET and q.meta[v].tag == "-"]
    if fam in ("C", "F4"):
        circ_plus = [v for v in range(q.n) if q.meta[v].fill == FILL_CIRCLE and q.meta[v].tag == "+"]
        circ_minus = [v for v in range(q.n) if q.meta[v].fill == FILL_CIRCLE and q.meta[v].tag == "-"]
        return [
            tuple(sorted(circ_plus + bullets_plus)),
            tuple(bullets_minus),
            tuple(sorted(circ_minus + bullets_plus)),
            tuple(bullets_minus),
        ]
    if fam == "G2":
        sets = []
        for k, tag in enumerate(ROMAN):
            circ = [v for v in range(q.n) if q.meta[v].tag == tag]
            sets.append(tuple(sorted(circ + (bullets_plus if k % 2 == 0 else bullets_minus))))
        return sets
    raise ValueError(f"no schedule for family {fam!r}")


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


def expected_quivers(model):
    """Expected exchange matrix at each slot, relative to the initial quiver."""
    B0 = model.quiver.B
    invs = involutions(model)

    def permuted(perm):
        Bp = np.zeros_like(B0)
        p = np.asarray(perm)
        Bp[np.ix_(p, p)] = B0
        return Bp

    if model.spec.family in ("C", "F4"):
        rB = permuted(invs["r"])
        return [B0, -B0, rB, -rB]
    # G2: the six-step cycle alternates opposite copies with column 3-cycles.
    nu = {name: permuted(invs[name]) for name in ("nu_132", "nu_213", "nu_321", "nu_231", "nu_312")}
    return [B0, -nu["nu_132"], nu["nu_312"], -nu["nu_321"], nu["nu_231"], -nu["nu_213"]]


def expected_transform_names(family):
    if family in ("C", "F4"):
        return [("id", False), ("id", True), ("r", False), ("r", True)]
    return [
        ("id", False),
        ("nu_132", True),
        ("nu_312", False),
        ("nu_321", True),
        ("nu_231", False),
        ("nu_213", True),
    ]


@dataclass(frozen=True)
class ScheduleStep:
    u_from: Fraction
    u_to: Fraction
    vertices: tuple
    expected_perm: str
    expected_op: bool


def schedule_steps(model, u_from, u_to):
    """The composite-mutation steps covering [u_from, u_to]."""
    t = model.cartan["t"]
    s_from, s_to = Fraction(u_from) * t, Fraction(u_to) * t
    if s_from.denominator != 1 or s_to.denominator != 1:
        raise ValueError("schedule endpoints must be multiples of 1/t")
    sets = slot_sets(model)
    names = expected_transform_names(model.spec.family)
    steps = []
    for s in range(int(s_from), int(s_to)):
        slot_next = (s + 1) % (2 * t)
        perm, op = names[slot_next]
        steps.append(
            ScheduleStep(
                Fraction(s, t),
                Fraction(s + 1, t),
                tuple(model.position(v) for v in sets[s % (2 * t)]),
                perm,
                op,
            )
        )
    return steps


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
    2t slots and the exchange matrix at each slot.

    Making one runs slot_matrices, which raises ScheduleError on a mismatch,
    so holding a Schedule means its one-period check has passed.  Instances
    hash by identity.
    """

    def __init__(self, model):
        self.model = model
        self.t = model.cartan["t"]
        self.sets = slot_sets(model)
        self.matrices = slot_matrices(model, self.sets)


def mutate_slot(B, ks, L, oplus1, logx=None):
    """Mutate the seed (L, logx) at the pairwise non-adjacent vertices ks of B.

    The seed is written additively: L holds the coefficients (one entry, or
    one exponent row, per vertex) of a semifield whose y (+) 1 is oplus1,
    and logx the log cluster.  Each k in ks sends

        L_j    -> L_j + [B_kj]+ L_k - B_kj oplus1(L_k)   (j != k),   L_k -> -L_k,
        logx_k -> logaddexp(L_k + sum_i [-B_ki]+ logx_i, sum_i [B_ki]+ logx_i)
                  - oplus1(L_k) - logx_k.

    Non-adjacency keeps the rows of B at ks fixed inside the slot, so the
    slot is one array update.  Returns new arrays.
    """
    ks = list(ks)
    P = B[ks]
    Lk = L[ks]
    plus1 = oplus1(Lk)
    L = L + np.maximum(P, 0).T @ Lk - P.T @ plus1
    L[ks] = -Lk
    if logx is not None:
        xk = np.logaddexp(Lk + np.maximum(-P, 0) @ logx, np.maximum(P, 0) @ logx)
        logx = logx.copy()
        logx[ks] = xk - plus1 - logx[ks]
    return L, logx


def run_schedule(schedule, s_lo, s_hi, L, oplus1, logx=None):
    """Drive the seed (L, logx) of mutate_slot through a verified Schedule,
    from time 0 forward to s_hi and backward to s_lo.

    Returns {s: (L, logx)} at every visited time.
    """
    t, sets, mats = schedule.t, schedule.sets, schedule.matrices
    snapshots = {0: (L, logx)}
    for step, stop in ((1, s_hi), (-1, s_lo)):
        s, Ls, xs = 0, L, logx
        while (stop - s) * step > 0:
            # a backward step from s undoes the slot before s, applying its
            # composite mutation to the matrix at s
            ks = sets[s % (2 * t) if step > 0 else (s - 1) % (2 * t)]
            Ls, xs = mutate_slot(mats[s % (2 * t)], ks, Ls, oplus1, xs)
            s += step
            snapshots[s] = (Ls, xs)
    return snapshots
