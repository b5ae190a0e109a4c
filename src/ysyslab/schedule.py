"""Time-indexed mutation schedules and the schedule runner.

Time u runs over (1/t)*Z and is stored as the exact scaled integer s = t*u.
One period of the quiver sequence is two time units, i.e. 2t steps:

* types C/F4 (t=2): the four-step cycle
      mu_bullet+ mu_circle+ | mu_bullet- | mu_bullet+ mu_circle- | mu_bullet-
  after which the quiver returns to itself, passing through its opposite
  and its left-right reflection on the way;
* type G2 (t=3): the six-step cycle that pairs mu_bullet+/- with the
  circle regions I..VI, passing through column-permuted (and opposite)
  copies of the quiver.

A Schedule verifies the expected quiver at each slot over one period, and
that the slots half a period apart are relabellings of each other by the
involution omega, when it is made, and every run is driven by one; a
failure means a transcription or sign-convention fault in the builders.

The labelled values T^{(a)}_m(u) and Y^{(a)}_m(u) sit at the mutation
points: the vertex of column col and row m mutated at time u carries
Y^{(a)}_m(u) and T^{(a)}_m(u - 1/t_a), with a = model.columns[col], the node
of col in the column table of builders.
Schedule.points lists the mutation points of a time window, and
run_schedule records a seed at every time of one, so a run's value at a
point (s, v) is one array read.  A Schedule holds one SlotOperator per slot,
so a run's step only indexes them, and one GatherPlan, the record rows of
every value its numeric checks read.  run_schedule carries the seed forward
from the first time of its window in a two-row float64 carry, each slot
step one affine update by a product written into the carry's other row,
and checks an integer record's range where it stores a time's seed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .builders import ROMAN, involutions
from .gfun import g_factors, transpose_factors
from .quiver import FILL_BULLET, FILL_CIRCLE, mutations


# -- mutation slots ---------------------------------------------------------------


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


def expected_quivers(model, invs):
    """Expected exchange matrix at each slot, relative to the initial quiver,
    with invs the model's builders.involutions."""
    out = []
    for name, opposite in TRANSFORMS[model.spec.family]:
        B = model.quiver.B if name == "id" else model.quiver.apply_perm(invs[name]).B
        out.append(-B if opposite else B)
    return out


# -- the runner ----------------------------------------------------------------


class ScheduleError(AssertionError):
    """A step produced a quiver different from the expected transform."""


def slot_matrices(model, sets, invs):
    """The exchange matrix at each slot, verified by one period of mutation.

    The initial exchange matrix is mutated through one forward period at
    the slot sets with quiver.mutations, and every step is compared with
    expected_quivers (invs are the model's builders.involutions).  Each
    slot set is first checked to be pairwise non-adjacent, so its composite
    mutation is one update; the period ends on the initial matrix, so it
    certifies every later one.  The cycle mutates a float64 copy of the
    matrix, so that the products of quiver.mutations run in BLAS.  It is
    exact: each matrix it mutates is the built one or one that matched its
    expected quiver, so its entries are in {-1, 0, 1} (the builders make
    simple arrows), and an update sums at most n products of two of them,
    far inside the 2**53 float64 integers.  The matrices returned are the
    int64 expected ones.
    """
    t = model.cartan["t"]
    expected = expected_quivers(model, invs)
    B = model.quiver.B.astype(np.float64)
    for s, ks in enumerate(sets):
        inner = np.argwhere(B[np.ix_(ks, ks)])
        if len(inner):  # the first pair (i, j) in row order has i < j
            i, j = inner[0]
            raise ScheduleError(
                f"step from u={Fraction(s, t)}: composite mutation set contains adjacent vertices {ks[i]} and {ks[j]}"
            )
        B = mutations(B, [ks])[0]
        if not np.array_equal(B, expected[(s + 1) % (2 * t)]):
            raise ScheduleError(
                f"quiver mismatch after step to u={Fraction(s + 1, t)} "
                f"(family {model.spec.family}, rank {model.spec.rank}, "
                f"level {model.spec.level})"
            )
    return expected


class Schedule:
    """The verified schedule of one case: its model, its time frame, the
    half-period involution omega of its vertices (builders.involutions), the
    vertex sets of the 2t slots, the exchange matrix and the SlotOperator of
    each slot (operators, which run_schedule applies in time order), the
    (a, m) label of each vertex, the T- and Y-relation tables read off them
    (g and its transpose numerators, see gfun), and the GatherPlan of those
    relations.

    The time frame is half_s = (h_dual + level)*t, half a period; full_s =
    2*half_s, one period; and region_two_s = -h_dual*t, the first time of
    region two (-h_dual <= u < 0) of the tropical sign pattern and of the
    level-2 root dynamics.  It is not GatherPlan.lo_s, the -2t start of the
    numeric window.

    Making one runs slot_matrices, checks that the schedule is
    omega-equivariant, runs g_factors and GatherPlan, and raises
    ScheduleError on a quiver mismatch, an operator that is not
    equivariant, an exchange relation not of T-relation shape or a relation
    that reads off the grid, so holding a Schedule means all four checks
    have passed.  Equivariance is the premise of the tropical half record
    (tropical.TropicalRun): the operator of slot (j + half_s) mod 2t is the
    operator of slot j with its vertices relabelled by omega, so the step
    at s + half_s is the step at s relabelled.  Instances hash by identity.
    """

    def __init__(self, model):
        self.model = model
        self.t = model.cartan["t"]
        self.half_s = (model.cartan["h_dual"] + model.spec.level) * self.t
        self.full_s = 2 * self.half_s
        self.region_two_s = -model.cartan["h_dual"] * self.t
        invs = involutions(model)
        self.omega = np.array(invs["omega"])
        self.sets = slot_sets(model)
        self.matrices = slot_matrices(model, self.sets, invs)
        self.operators = [slot_operator(B, ks) for B, ks in zip(self.matrices, self.sets)]
        fam, rank = model.spec.family, model.spec.rank
        context = f"family {fam}, rank {rank}, level {model.spec.level}"
        self._check_equivariance(context)
        self.labels = [(model.columns[col], m) for col, m in map(model.position, range(model.n))]
        try:
            self.g = g_factors(self)
        except ValueError as err:
            raise ScheduleError(f"no T-relation ({context}): {err}") from err
        self.numerators = transpose_factors(self.g)
        self.plan = GatherPlan(self)

    def _check_equivariance(self, context):
        """Raise ScheduleError unless, for every slot j, the operator of slot
        j2 = (j + half_s) mod 2t is the operator of slot j relabelled by
        omega: its ks are omega(ks), and its W is that of slot j with the
        vertex axis relabelled by omega and each ks block put in the order
        of slot j2's ks.  W holds all of P = B[ks], from which X is built
        too, so this is the whole operator."""
        period, omega = 2 * self.t, self.omega
        for j, op in enumerate(self.operators):
            j2 = (j + self.half_s) % period
            image, m = self.operators[j2], len(op.ks)
            column = np.full(self.model.n, -1)
            column[image.ks] = np.arange(len(image.ks))
            c = column[omega[op.ks]]  # slot j2's column of each of slot j's, -1 for none
            ks_axis = np.concatenate([c, c + m])
            same = len(image.ks) == m and (c >= 0).all() and np.array_equal(image.W[np.ix_(omega, ks_axis)], op.W)
            if not same:
                raise ScheduleError(
                    f"the operator of slot {j2} is not that of slot {j} relabelled by omega ({context})"
                )

    def points(self, s_lo, s_hi):
        """The mutation points (s, v) with s_lo <= s < s_hi, as two int arrays
        in time order: vertex v is mutated at time s, in the slot s mod 2t."""
        period = 2 * self.t
        slot = np.repeat(np.arange(period), [len(ks) for ks in self.sets])
        starts = np.arange(s_lo - s_lo % period, s_hi, period)  # the periods that meet the window
        s = (starts[:, None] + slot).ravel()
        v = np.tile(np.array([w for ks in self.sets for w in ks], dtype=np.int64), len(starts))
        keep = (s_lo <= s) & (s < s_hi)
        return s[keep], v[keep]


class SlotOperator(NamedTuple):
    """The composite mutation at the pairwise non-adjacent vertices ks of an
    exchange matrix B, as the two float64 matrices of run_schedule's products
    (so that they run in BLAS).  With P = B[ks] and the exchanged vertices
    stacked on top of their oplus1 values:

        W = [[P]+^T + D | -P^T]   (n x 2|ks|),   X = [[-P]+ ; [P]+]   (2|ks| x n),

    where D is -2 at (ks[i], i) and 0 elsewhere.  Non-adjacency makes the
    rows of W at ks zero but for that -2."""

    ks: np.ndarray
    W: np.ndarray
    X: np.ndarray


def slot_operator(B, ks):
    """The SlotOperator of mutating B at the vertices ks."""
    ks = np.array(ks, dtype=np.intp)
    P = B[ks].astype(np.float64)
    plus, minus = np.maximum(P, 0), np.maximum(-P, 0)
    W = np.concatenate([plus.T, -P.T], axis=1)
    W[ks, np.arange(len(ks))] = -2.0
    return SlotOperator(ks, W, np.concatenate([minus, plus]))


#: For each integer dtype of a run record, the integers a float64 seed may
#: hold to be stored in it exactly: the dtype's range, inside the float64
#: exact integers.  Built once, since np.iinfo is slow next to a small step.
CAST_RANGE = {
    np.dtype(t): (max(int(np.iinfo(t).min), -(2**53)), min(int(np.iinfo(t).max), 2**53))
    for t in (np.int8, np.int16, np.int32, np.int64)
}


def run_schedule(schedule, s_lo, s_hi, L, oplus1, logx=None, out=None):
    """Drive the seed (L, logx) through a verified Schedule, forward from
    time s_lo, where it stands, to s_hi; the step out of time s applies the
    SlotOperator op of slot s mod 2t, at its vertices ks.

    The seed is written additively: L holds the coefficients (one entry, or
    one exponent row, per vertex) of a semifield whose y (+) 1 is
    oplus1(L, out=...), and logx the log cluster.  Each k in ks sends

        L_j    -> L_j + [B_kj]+ L_k - B_kj oplus1(L_k)   (j != k),   L_k -> -L_k,
        logx_k -> logaddexp(L_k + sum_i [-B_ki]+ logx_i, sum_i [B_ki]+ logx_i)
                  - oplus1(L_k) - logx_k.

    Non-adjacency keeps the rows of B at ks fixed inside the slot, so a
    step is one affine update, L + W @ [L[ks]; oplus1(L[ks])], and the
    cluster one product X @ logx.  The -2 of W at each k sends L_k to
    L_k - 2 L_k = -L_k exactly.  A 2-D logx may carry more columns than L:
    its first L.shape[1] columns pair with L's, and the rest run
    coefficient-free, in the trivial semifield, where y = 1 and y (+) 1 = 1,
    so L_k and oplus1(L_k) drop out of their update.

    Returns the run record (Ls, xs): Ls[s - s_lo] and xs[s - s_lo] are L
    and logx at time s, for s_lo <= s <= s_hi; xs is None without logx.
    Ls has L's dtype and xs is float64; out=(Ls, xs) fills records of those
    shapes instead and returns them.  The seed runs in a two-row float64
    carry, each step writing the next time's seed over the last but one
    before the record stores it, and each step's products go to buffers
    sized for the largest slot, so a step allocates nothing.  Each slot's
    operator arrays and its views of those buffers are gathered once per
    call, and the step out of time s looks them up by its slot s mod 2t.
    For an integer record each time's seed is checked against CAST_RANGE as
    it will be stored, since the cast would wrap silently, and an entry
    outside it raises ArithmeticError naming the time and the vertex.  The
    float64 steps are exact while every partial sum is below 2**53, which
    holds for an int8 record and a B with entries in {-1, 0, 1} (see
    tropical.TropicalRun).
    """
    if s_lo > s_hi:
        raise ValueError(f"the window [{s_lo}, {s_hi}] is empty")
    times = s_hi - s_lo + 1
    if out is None:
        out = np.empty((times, *L.shape), dtype=L.dtype), None if logx is None else np.empty((times, *logx.shape))
    Ls, xs = out
    shapes = [None if seed is None else (times, *seed.shape) for seed in (L, logx)]
    if [None if record is None else record.shape for record in out] != shapes:
        raise ValueError(f"out must be records of shapes {shapes}, for the seed at each time of [{s_lo}, {s_hi}]")
    bounds, carry = CAST_RANGE.get(Ls.dtype), np.empty((2, *L.shape))
    carry[0] = L
    width = 2 * max(len(op.ks) for op in schedule.operators)
    stacked = np.empty((width, *L.shape[1:]))
    if xs is not None:
        xs[0] = logx
        sums = np.empty((width, *logx.shape[1:]))
        paired = (..., slice(None, L.shape[1] if L.ndim == 2 else None))  # the columns of logx with a coefficient
    # each slot's operator and buffer views, made once per call
    slots = []
    for op in schedule.operators:
        m = len(op.ks)
        views = (op.ks, op.W, op.X, stacked[:m], stacked[m : 2 * m], stacked[: 2 * m])
        if xs is None:
            views += (None,) * 4
        else:
            minus = sums[:m]  # the [-P]+ sums on top of the [P]+ ones
            views += (sums[: 2 * m], minus, sums[m : 2 * m], minus[paired])
        slots.append(views)
    period = 2 * schedule.t
    for i, s in enumerate(range(s_lo, s_hi + 1)):
        Lc = carry[i % 2]
        if bounds is not None:
            _check_range(Lc, s, Ls.dtype, *bounds)
        Ls[i] = Lc
        if s == s_hi:
            break
        ks, W, X, Lk, plus, stack, both, minus, plus_sums, minus_paired = slots[s % period]
        Lc.take(ks, 0, Lk, "clip")  # ks is in range; "raise" would buffer
        oplus1(Lk, out=plus)
        new = carry[1 - i % 2]
        np.matmul(W, stack, out=new)
        new += Lc
        if xs is not None:
            x, new_x = xs[i], xs[i + 1]
            np.matmul(X, x, out=both)
            minus_paired += Lk
            np.logaddexp(minus, plus_sums, out=minus)
            minus_paired -= plus
            x.take(ks, 0, plus_sums, "clip")
            minus -= plus_sums
            new_x[...] = x
            new_x[ks] = minus
    return Ls, xs


def _check_range(L, s, dtype, lo, hi):
    """Raise ArithmeticError unless every entry of the float64 seed L of time
    s is in [lo, hi], the CAST_RANGE of the record's dtype; the error names
    the time, the entry farthest out and the vertex (row of L) holding it."""
    low, high = L.min(), L.max()
    if low < lo or high > hi:
        entry = high if high > hi else low
        v = np.argwhere(L == entry)[0][0]
        raise ArithmeticError(
            f"a mutation step to time s={s} gives the entry {entry:g} at vertex {v}, "
            f"outside the {dtype} range [{lo}, {hi}]"
        )


# -- the gather plan -------------------------------------------------------------

#: Plan entries that are not record rows: an exact 1.0 (a boundary row of T,
#: or an absent factor) and a value off the grid.  A flattened run record
#: ends in one row of exact 1.0, the row that UNIT reads (numeric.gather).
UNIT, OFF = -1, -2


class Relations(NamedTuple):
    """Record rows of the relations centered at the points of one grid, one
    row of each array per center: lhs the two values whose product is the
    left side, adjacent the rows m-1 and m+1 at the center, factors the
    neighbour factors padded with UNIT, center the coefficient at the
    center (T-relations only), and relation the index of the center's row
    in the relation tables."""

    lhs: np.ndarray
    adjacent: np.ndarray
    factors: np.ndarray
    center: np.ndarray | None
    relation: np.ndarray


def _padded(table, rows):
    """(b, k, ds, pad): the factors of each row of a relation table as
    (rows, width) int arrays, padded to the longest list; pad marks the
    padding."""
    lengths = np.array([len(table[row]) for row in rows])
    pad = np.arange(lengths.max()) >= lengths[:, None]
    out = np.zeros((*pad.shape, 3), dtype=np.int64)
    out[~pad] = np.array([f for row in rows for f in table[row]], dtype=np.int64).reshape(-1, 3)
    return out[..., 0], out[..., 1], out[..., 2], pad


class GatherPlan:
    """The record rows of every value the numeric checks of a Schedule read,
    over the window lo_s <= s <= hi_s, from -2t to full_s + 3t (full_s is
    the Schedule's, one full period).  The relations and periodicity pairs
    read from -t to full_s + 2t on C and F4 and to full_s + 8t/3 on G2, and
    -2t is a whole slot period, so a run from lo_s takes the steps of a run
    from 0.

    A run record of the window, flattened to one row per (time, vertex) and
    one column per seed, holds the value of vertex v at time s in row
    (s - lo_s)*n + v.  The label (a, m) of a mutation point (s, v) names
    Y^{(a)}_m(s/t) and T^{(a)}_m(s/t - 1/t_a), so each labelled value is one
    row (y_rows and t_rows), and the boundary rows of T are UNIT.

    The slots repeat every 2t steps, so shifting every value a relation
    reads by 2t steps shifts its rows by 2t*n.  t_relation and y_relation
    therefore hold the T-relations centered at the P'+ points and the
    Y-relations centered at the P+ points of one slot period, 0 <= s < 2t,
    and translated gives those of every center with 0 <= s < full_s, row by
    row of the relation tables and in time order within a row.  t_period
    and y_period are (base, other) pairs of row arrays: each labelled value
    with 0 <= s < 2t paired with its value one full period later, then with
    the row-flipped value half a period later, row by row.

    Making one looks up every value it reads in one batched call, and
    checks the translates of the relation reads by a bound on their
    largest row; it raises ScheduleError naming the first value read off
    the grid, in the order of the reads: the T-relations (lhs, adjacent,
    factors, center), the Y-relations (lhs, adjacent, factors), each read
    before its translates, then the T and the Y periodicity pairs (full,
    then half).  The plan holds indices only, so it gathers records of any
    value type.
    """

    def __init__(self, schedule):
        model, t = schedule.model, schedule.t
        spec, cd = model.spec, model.cartan
        self.t, self.n = t, model.n
        self.full_s = schedule.full_s
        self.lo_s, self.hi_s = -2 * t, self.full_s + 3 * t
        self.tops = np.zeros(spec.rank + 1, dtype=np.int64)
        self.lags = np.zeros_like(self.tops)
        for a, t_a in cd["t_a"].items():
            self.tops[a], self.lags[a] = t_a * spec.level, t // t_a
        self._context = f"family {spec.family}, rank {spec.rank}, level {spec.level}"

        # the vertex labelled (a, m) in each slot, OFF where there is none
        s, v = schedule.points(0, 2 * t)
        a, m = np.array(schedule.labels).T[:, v]
        self._vertex = np.full((spec.rank + 1, self.tops.max() + 1, 2 * t), OFF)
        self._vertex[a, m, s] = v

        keys = list(schedule.g)
        ra, rm = np.array(keys).T[:, :, None]  # one row per relation
        period = np.arange(2 * t)
        # the P'+ centers (T-relations, Y periodicity) and the P+ centers
        # (Y-relations, T periodicity) of one slot period, row by row
        Y0, T0 = self.y_rows(ra, rm, period), self.t_rows(ra, rm, period)
        t_ri, t_s = np.nonzero(Y0 != OFF)
        y_ri, y_s = np.nonzero(T0 != OFF)

        # every read as (T or not, a, m, s, UNIT where), in the order of the checks
        a, m, dt, s = ra[t_ri], rm[t_ri], self.lags[ra[t_ri]], t_s[:, None]
        b, k, ds, pad = (x[t_ri] for x in _padded(schedule.g, keys))
        reads = [
            (True, a, m, s + dt * [-1, 1], False),
            (True, a, m + [-1, 1], s, False),
            (True, b, k, s + ds, pad),
            (False, a[:, 0], m[:, 0], t_s, False),
        ]
        # a boundary row carries no factor in a Y-relation
        a, m, dt, s = ra[y_ri], rm[y_ri], self.lags[ra[y_ri]], y_s[:, None]
        b, k, ds, pad = (x[y_ri] for x in _padded(schedule.numerators, keys))
        rows_m = m + [-1, 1]
        reads += [
            (False, a, m, s + dt * [-1, 1], False),
            (False, a, rows_m, s, (rows_m == 0) | (rows_m == self.tops[a])),
            (False, b, k, s + ds, pad),
        ]
        relation_reads = len(reads)
        for is_t, ri, s in ((True, y_ri, y_s), (False, t_ri, t_s)):
            a, m = ra[ri, 0], rm[ri, 0]
            reads += [(is_t, a, m, s + self.full_s, False), (is_t, a, self.tops[a] - m, s + self.full_s // 2, False)]
        lhs, adjacent, factors, center, y_lhs, y_adjacent, y_factors, *period_rows = self._read(reads, relation_reads)

        self.t_relation = Relations(lhs, adjacent, factors, center, t_ri)
        self.y_relation = Relations(y_lhs, y_adjacent, y_factors, None, y_ri)
        self.t_period = _pairs(y_ri, T0[y_ri, y_s], *period_rows[:2])
        self.y_period = _pairs(t_ri, Y0[t_ri, t_s], *period_rows[2:])

    def y_rows(self, a, m, s):
        """The record rows of Y^{(a)}_m(s/t), broadcast over a, m and s: OFF
        where no mutation point of the window carries it."""
        return self._rows(False, a, m, s)

    def t_rows(self, a, m, s):
        """The record rows of T^{(a)}_m(s/t), broadcast over a, m and s: UNIT
        on the boundary rows a = 0, m = 0 and m = t_a*level, OFF off the P+
        grid and the window."""
        return self._rows(True, a, m, s)

    def _rows(self, is_t, a, m, s):
        """t_rows(a, m, s) where is_t holds and y_rows(a, m, s) elsewhere,
        broadcast over is_t, a, m and s: T^{(a)}_m(s/t) is the Y of the
        same label t/t_a steps later."""
        s = s + is_t * self.lags[a]
        on = (self.lo_s <= s) & (s <= self.hi_s) & (0 <= m) & (m < self._vertex.shape[1])
        v = self._vertex[a, np.where(on, m, 0), s % (2 * self.t)]
        rows = np.where(on & (v != OFF), (s - self.lo_s) * self.n + v, OFF)
        return np.where(is_t & ((a == 0) | (m == 0) | (m == self.tops[a])), UNIT, rows)

    def _read(self, reads, relations):
        """The record rows of each read (is_t, a, m, s, unit) of a list, in
        one lookup: _rows(is_t, a, m, s) broadcast over the five, UNIT where
        unit holds.  The translates of the first `relations` reads by the
        last slot period must stay inside the window too, so that
        translated stays on the grid: no row of theirs may reach the bound
        past which it shifts beyond hi_s.  Raises ScheduleError at the first
        value off the grid, as described in the class docstring."""
        shapes = [np.broadcast(*read).shape for read in reads]
        sizes = [math.prod(shape) for shape in shapes]
        ends = np.cumsum(sizes)
        spans = list(zip(ends - sizes, ends, shapes))
        columns = np.empty((5, ends[-1]), dtype=np.int64)
        for read, (lo, hi, shape) in zip(reads, spans):
            for column, x in zip(columns, read):
                column[lo:hi].reshape(shape)[...] = x
        is_t, a, m, s, unit = columns
        rows = np.where(unit == 1, UNIT, self._rows(is_t == 1, a, m, s))
        shift = self.full_s - 2 * self.t
        bound = (self.hi_s - self.lo_s + 1 - shift) * self.n
        if (rows == OFF).any() or rows[: ends[relations - 1]].max() >= bound:
            for i, (lo, hi, _) in enumerate(spans):
                checks = [(rows[lo:hi] == OFF, 0)] + [(rows[lo:hi] >= bound, shift)] * (i < relations)
                for off, ds in checks:
                    if off.any():
                        j = lo + int(np.argmax(off))
                        raise ScheduleError(
                            f"({a[j]}, {m[j]}, {s[j] + ds}/{self.t}) is off the grid, read by a relation ({self._context})"
                        )
        return [rows[lo:hi].reshape(shape) for lo, hi, shape in spans]

    def translated(self, relations):
        """The Relations of every center with 0 <= s < full_s, from those of
        one slot period: each of its rows shifted by each whole slot period
        (UNIT stays UNIT), in (relation, time) order."""
        shifts = 2 * self.t * self.n * np.arange(self.full_s // (2 * self.t))
        lhs, adjacent, factors, center, relation = relations
        relation = np.tile(relation, len(shifts))
        order = np.argsort(relation, kind="stable")

        def every_period(rows):
            shifted = np.where(rows == UNIT, UNIT, rows + shifts.reshape(-1, *[1] * rows.ndim))
            return shifted.reshape(-1, *rows.shape[1:])[order]

        center = None if center is None else every_period(center)
        return Relations(every_period(lhs), every_period(adjacent), every_period(factors), center, relation[order])

    def coefficients(self):
        """The record rows of the P'+ points of one period, 0 <= s < full_s,
        in (s, a, m) order."""
        s = np.arange(self.full_s)
        by_label = self._vertex[:, :, s % (2 * self.t)].transpose(2, 0, 1).reshape(len(s), -1)
        i, j = np.nonzero(by_label != OFF)
        return (s[i] - self.lo_s) * self.n + by_label[i, j]


def _pairs(ri, base, full, half):
    """The (base, other) periodicity pairs of the values base of relation
    rows ri, row by row: the full pairs of a row, then its half pairs."""
    order = np.argsort(np.concatenate([2 * ri, 2 * ri + 1]), kind="stable")
    return np.concatenate([base, base])[order], np.concatenate([full, half])[order]
