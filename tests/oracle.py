"""Reference implementations the tests check ysyslab against.

The per-vertex exchange rules, driven by Quiver.mutate, are the reference
for the slot step of ysyslab.schedule: each payload mutates one vertex at a
time, with the exchange matrix that Quiver.mutate produces before that
vertex, in multiplicative notation.  two_product_step, the slot step as two
products that casts an integer seed back to its dtype after every step, and
run_two_product, which drives it, are the reference for the one-product
step and the float64 seed that schedule.run_schedule carries.  mutate_slot,
that one-product step returning new arrays, and run_slots, a loop of it, are
the bit-for-bit reference for run_schedule, which writes the same products
into its records in place.  run_payload and run_two_product run in both
directions from time 0: their forward part, from a seed at 0, is the
reference for the forward runs of run_schedule, and their backward part for
the negative times that tropical.TropicalRun.monomial reads through omega.  exhaustive_isomorphism is the brute-force reference for
quiver.find_isomorphism, and matrix_refine_colors and matrix_canonical_key,
which read the exchange matrix entry by entry, the reference for
quiver.refine_colors and mutclass.canonical_key.
search_equivalence, the bidirectional BFS that mutates each child alone on
int rows (mutate_rows) and keys it with mutclass.canonical_key, and that
skips only the child undoing a node's own move, is the reference for
mutclass.search_equivalence, which mutates, refines and classes all the
children of a node as one numpy batch, and also skips the children that
commuting mutations and the pentagon relation have already made.
mutate_rows, the row mutation that search used, is also a reference for
quiver.mutations.  composite_mutate, which mutates a Quiver at a pairwise
non-adjacent vertex set in one update after checking the set, is the
reference for quiver.mutations on vertex sets and for the adjacency check
of schedule.slot_matrices.
quiver_from_json reads back what Quiver.to_json writes, and compose_perms
composes vertex permutations.

g_factors and transpose_factors, the T- and Y-relation tables typed out
family by family as printed, are the reference for gfun.g_factors and
gfun.transpose_factors, which read them off the verified schedule.
constant_relations drops their time shifts.  damped_constant_Y, a damped
fixed-point loop over those printed constant relations, is the reference
for the Newton solve of dilog.solve_constant_Y on the derived ones, and
constant_residuals measures how far a solution is from the printed
relations.  rogers_L_quad, adaptive quadrature of the
defining integral, is the reference for the Bernoulli series of
dilog.rogers_L; it is the only user of scipy, which the tests need and
ysyslab itself does not.

The parity classes P+ / P'+ and the label maps label_g / label_g_prime are
the per-family formulas of the grid bijection: the reference for
the column table and for the record rows of schedule.GatherPlan.
LabelledArrays, the NaN-filled labelled arrays of one block of a run and
the relation and periodicity checks read from them row by row, is the
reference for the GatherPlan gathers of numeric.NumericRun.  NumericRun, a
run in one semifield driven by its own run_schedule call, is the reference
for the two column blocks of numeric.NumericRun: a tracked one for the
positive-real block and a plain one (trivial_plus1, on log-coefficients
of 0) for the coefficient-free block, whose y numeric.NumericRun does not
record.  expected_sign, the region sign classification
with its typed times as fractions, point by point, is the reference for
tropical.TropicalRun.sign_pattern_mismatches.  periodicity_mismatches,
which runs the schedule over two full periods and compares each time of
the first with the same time half and one period later, is the reference
for tropical.TropicalRun.periodicity_mismatches, which compares the seed
half a period on with the seed relabelled by omega, on a forward record of
half a period.  record_periodicity_mismatches, the same per-time
comparison on a given record at given times, is the reference for the
latter on a record with a planted fault.  tropical_record, the record run
in both directions from time 0 by run_two_product, is the reference for
the times tropical.TropicalRun.monomial reads from its half record through
omega.
The per-family closed forms of the tropical boundary tuples, the sign
tallies and the doubled functional sums, as printed, are the reference for
tropical.boundary_targets, which reads them off omega, and for
tropical.expected_counts, which reads them off the Lie data, and
total_points, the number of mutation points per period, is the reference
for their sum.

The typed sigma words and alpha tables, one per family, are the reference
for roots.pl_dynamics, which derives both from the verified schedule on the
level-2 core (and, for type C, on the thin row).  per_point_alpha, which
carries each point's root through its own chain of RootSystem.sigma calls,
is the reference for the one sweep of pl_dynamics that carries them all
together.

PiecewisePlan, the gather plan built one lookup and one off-grid check per
array, is the reference for the batched lookup of schedule.GatherPlan, and
masked_gather, which writes 1.0 where a row is UNIT, for the unit row that
numeric.NumericRun keeps at the end of each record.  int64_slot_cycle, the
one-period cycle of quiver.mutations in int64, is the reference for the
float64 cycle of schedule.slot_matrices.

build_C, build_F4 and build_G2, the quiver builders typed family by family,
are the reference for builders.build, which builds the C and F4 quivers with
one builder from the column table.  involutions, with omega and the
reflection r typed per family, column_fold, the Dynkin node of each column
typed per family, and level2_core, which reads it, are the reference for
builders.involutions, the column table (builders.column_table) and
roots.level2_core, which read the table.
"""

import json
import math
from collections import deque
from fractions import Fraction
from itertools import permutations

import numpy as np
from scipy import integrate

from ysyslab.builders import _G2_FAN, _G2_TAGS, _finish, cartan_data, dynkin_edges
from ysyslab.mutclass import MutationPath, canonical_key
from ysyslab.quiver import FILL_BULLET, FILL_CIRCLE, Quiver, Vertex, find_isomorphism, invert_perm, mutations
from ysyslab.roots import RootSystem, SigmaMap, neg_simple
from ysyslab.numeric import real_plus1
from ysyslab.schedule import CAST_RANGE, OFF, UNIT, Relations, ScheduleError, _padded, run_schedule, slot_sets
from ysyslab.tropical import NEGATIVE, POSITIVE, tropical_plus1


class TropicalCoefficients:
    """Row v of E is the exponent vector of the tropical coefficient y_v."""

    def __init__(self, E):
        self.E = np.array(E, dtype=np.int64)

    def copy(self):
        return TropicalCoefficients(self.E)

    def mutate(self, k, B):
        row = B[k, :]
        ek = self.E[k].copy()
        self.E += np.outer(np.maximum(row, 0), ek) - np.outer(row, np.minimum(ek, 0))
        self.E[k] = -ek

    def snapshot(self):
        return self.E.copy()


class NumericSeedPayload:
    """Cluster x and coefficients y over the positive reals.

    y=None drops the coefficients: x then follows the plain two-monomial
    exchange (the coefficient-free cluster dynamics).
    """

    def __init__(self, x, y=None):
        self.x = np.array(x, dtype=float)
        self.y = None if y is None else np.array(y, dtype=float)

    def copy(self):
        return NumericSeedPayload(self.x, self.y)

    def mutate(self, k, B):
        col = B[:, k]
        mon_in = float(np.prod(self.x[col > 0]))
        mon_out = float(np.prod(self.x[col < 0]))
        if self.y is None:
            self.x[k] = (mon_in + mon_out) / self.x[k]
            return
        yk = self.y[k]
        self.x[k] = (yk * mon_in + mon_out) / ((1.0 + yk) * self.x[k])
        row = B[k, :]
        self.y *= yk ** np.maximum(row, 0) * (1.0 + yk) ** (-row)
        self.y[k] = 1.0 / yk

    def snapshot(self):
        return self.x.copy(), None if self.y is None else self.y.copy()


def run_payload(model, s_lo, s_hi, payload):
    """Snapshots of the payload at every time from 0 forward to s_hi and
    backward to s_lo, with s_lo <= 0 <= s_hi, mutating vertex by vertex
    with Quiver.mutate."""
    period = 2 * model.cartan["t"]
    sets = slot_sets(model)
    snapshots = {0: payload.snapshot()}
    for step, stop in ((1, s_hi), (-1, s_lo)):
        Q, s, pl = model.quiver, 0, payload.copy()
        while (stop - s) * step > 0:
            for k in sets[s % period if step > 0 else (s - 1) % period]:
                pl.mutate(k, Q.B)
                Q = Q.mutate(k)
            s += step
            snapshots[s] = pl.snapshot()
    return snapshots


def two_product_step(B, ks, L, oplus1, logx=None):
    """The slot step of the seed (L, logx) at the pairwise non-adjacent
    vertices ks of B as two products, with the exchanged rows scattered in,
    in L's dtype: an integer L goes to float64 for the products and back,
    after a range check that raises ArithmeticError."""
    ks = np.array(ks, dtype=np.intp)
    P = B[ks].astype(np.float64)
    plus, minus = np.maximum(P, 0), np.maximum(-P, 0)
    Lk = L[ks].astype(np.float64, copy=False)  # in float64, -(-128) does not wrap
    plus1 = oplus1(Lk)
    new = L + plus.T @ Lk - P.T @ plus1
    new[ks] = -Lk
    bounds = CAST_RANGE.get(L.dtype)
    if bounds is not None:
        lo, hi = bounds
        low, high = new.min(), new.max()
        if low < lo or high > hi:
            raise ArithmeticError(
                f"a mutation step gives the entry {high if high > hi else low:g}, "
                f"outside the {L.dtype} range [{lo}, {hi}]"
            )
    L = new.astype(L.dtype, copy=False)
    if logx is not None:
        xk = np.logaddexp(Lk + minus @ logx, plus @ logx)
        logx = logx.copy()
        logx[ks] = xk - plus1 - logx[ks]
    return L, logx


def mutate_slot(op, L, oplus1, logx=None):
    """Mutate the float64 seed (L, logx) by the schedule.SlotOperator op of
    vertices ks, returning new float64 arrays: the step reference for
    schedule.run_schedule, which writes the same products into its records.

    Non-adjacency keeps the rows of B at ks fixed inside the slot, so the
    slot is one affine update, L + W @ [L[ks]; oplus1(L[ks])], and the
    cluster one product X @ logx, with

        logx_k -> logaddexp(L_k + sum_i [-B_ki]+ logx_i, sum_i [B_ki]+ logx_i)
                  - oplus1(L_k) - logx_k.

    The columns of a 2-D logx past L's run coefficient-free: L_k and
    oplus1(L_k) are 0 there, the trivial semifield's y = 1 in logs."""
    ks = op.ks
    m = len(ks)
    Lk = L[ks]
    stacked = np.concatenate([Lk, oplus1(Lk)])
    new = op.W @ stacked
    new += L
    if logx is not None:
        sums = op.X @ logx  # the [-P]+ sums on top of the [P]+ ones
        plus1 = stacked[m:]
        if L.ndim == 2 and logx.shape[1] > L.shape[1]:
            pad = ((0, 0), (0, logx.shape[1] - L.shape[1]))
            Lk, plus1 = np.pad(Lk, pad), np.pad(plus1, pad)
        logx = logx.copy()
        logx[ks] = np.logaddexp(Lk + sums[:m], sums[m:]) - plus1 - logx[ks]
    return new, logx


def run_slots(schedule, s_lo, s_hi, L, oplus1, logx=None):
    """The run record (Ls, xs) of schedule.run_schedule, as a loop of
    mutate_slot steps on float64 seeds, each stored in L's dtype."""
    period = 2 * schedule.t
    Lc, Ls, xs = L.astype(np.float64), [], []
    for s in range(s_lo, s_hi + 1):
        Ls.append(Lc.astype(L.dtype))
        xs.append(logx)
        if s < s_hi:
            Lc, logx = mutate_slot(schedule.operators[s % period], Lc, oplus1, logx)
    return np.array(Ls), None if logx is None else np.array(xs)


def run_two_product(schedule, s_lo, s_hi, L, oplus1, logx=None):
    """The run record over s_lo <= 0 <= s_hi of a seed at time 0, each step a
    two_product_step on the slot matrices and sets of the Schedule: a
    forward step from s at the set of s, a backward step from s at the set
    of s - 1.  With s_lo = 0 it is the record of schedule.run_schedule."""
    period = 2 * schedule.t
    Ls = np.empty((s_hi - s_lo + 1, *L.shape), dtype=L.dtype)
    xs = None if logx is None else np.empty((s_hi - s_lo + 1, *logx.shape))
    for step, stop in ((1, s_hi), (-1, s_lo)):
        s, Lc, xc = 0, L, logx
        while True:
            Ls[s - s_lo] = Lc
            if xs is not None:
                xs[s - s_lo] = xc
            if s == stop:
                break
            ks = schedule.sets[s % period if step > 0 else (s - 1) % period]
            Lc, xc = two_product_step(schedule.matrices[s % period], ks, Lc, oplus1, xc)
            s += step
    return Ls, xs


def fz_mutate(B, k):
    """Fomin-Zelevinsky matrix mutation at vertex k, entry by entry:
    B'_ij = -B_ij if i == k or j == k, otherwise
    B'_ij = B_ij + sgn(B_ik) * max(B_ik * B_kj, 0)."""
    n = len(B)
    return np.array([
        [-B[i][j] if k in (i, j) else B[i][j] + int(np.sign(B[i][k])) * max(B[i][k] * B[k][j], 0) for j in range(n)]
        for i in range(n)
    ])


def composite_mutate(Q, vertices):
    """Mutate the Quiver Q simultaneously at a pairwise non-adjacent vertex
    set ks (this is asserted), so the order of the mutations is immaterial
    and they are one update: B' = B + [P]+[R]+ - [-P]+[-R]+ with P = B[:, ks]
    and R = B[ks, :], and then the rows and columns in ks negated."""
    ks = list(vertices)
    B = Q.B
    inner = np.argwhere(B[np.ix_(ks, ks)])
    if len(inner):  # the first pair (i, j) in row order has i < j
        i, j = inner[0]
        raise ValueError(f"composite mutation set contains adjacent vertices {ks[i]} and {ks[j]}")
    P, R = B[:, ks], B[ks, :]
    Bp = B + np.maximum(P, 0) @ np.maximum(R, 0) - np.maximum(-P, 0) @ np.maximum(-R, 0)
    Bp[ks, :] = -R
    Bp[:, ks] = -P
    return Quiver(Bp, Q.meta)


def quiver_from_json(text):
    """The Quiver that Quiver.to_json wrote as text."""
    data = json.loads(text)
    n = data["n"]
    B = np.zeros((n, n), dtype=np.int64)
    for i, j in data["edges"]:
        B[i, j] = 1
        B[j, i] = -1
    return Quiver(B, [Vertex(m["col"], m["row"], m["fill"], m["tag"]) for m in data["meta"]])


def compose_perms(p, q):
    """Composition acting as i -> p[q[i]]."""
    return tuple(p[q[i]] for i in range(len(q)))


def exhaustive_isomorphism(Q1, Q2):
    """Brute-force isomorphism search over all vertex permutations."""
    if Q1.n != Q2.n:
        return None
    for p in permutations(range(Q1.n)):
        if Q1.apply_perm(p) == Q2:
            return p
    return None


def matrix_refine_colors(B, colors):
    """Iterative color refinement on the directed graph of B.  New colors are
    the ranks of the signatures (color, sorted neighbour (color, entry) pairs)."""
    n = len(colors)
    nbrs = [np.nonzero(B[i])[0] for i in range(n)]
    while True:
        sigs = [
            (colors[i], tuple(sorted((colors[j], int(B[i, j])) for j in nbrs[i])))
            for i in range(n)
        ]
        lookup = {s: c for c, s in enumerate(sorted(set(sigs)))}
        new = [lookup[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def matrix_canonical_key(Q):
    """Smallest int16 encoding of B over the leaves of the individualization
    tree of matrix_refine_colors."""
    n = Q.n
    B = Q.B
    best = None

    def encode(colors):
        order = np.array(sorted(range(n), key=lambda v: colors[v]))
        return B[np.ix_(order, order)].astype(np.int16).tobytes()

    def search(colors):
        nonlocal best
        cells = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        branch = min(
            (vs for vs in cells.values() if len(vs) > 1),
            key=lambda vs: (len(vs), colors[vs[0]]),
            default=None,
        )
        if branch is None:
            key = encode(colors)
            if best is None or key < best:
                best = key
            return
        fresh = max(colors) + 1
        for v in branch:
            child = list(colors)
            child[v] = fresh
            search(matrix_refine_colors(B, child))

    search(matrix_refine_colors(B, [0] * n))
    return best


def mutate_rows(rows, k):
    """Fomin-Zelevinsky mutation at vertex k of an exchange matrix held as int
    rows; returns a tuple of int tuples.  Row k is negated; a row i with
    b = B_ik != 0 gets B_ij + b * max(sgn(b) B_kj, 0) off column k and -b in
    it; every other row is shared with the input, which is not modified.
    Tuples are sized exactly, so a search holding thousands of matrices
    keeps no spare list capacity."""
    rk = rows[k]
    ups = ([max(x, 0) for x in rk], [max(-x, 0) for x in rk])
    out = []
    for i, row in enumerate(rows):
        b = row[k]
        if i == k:
            row = tuple([-x for x in row])
        elif b:
            new = [x + b * up for x, up in zip(row, ups[b < 0])]
            new[k] = -b
            row = tuple(new)
        out.append(row)
    return tuple(out)


def search_equivalence(Q1, Q2, depth_cap=12, node_cap=10**6, stores=None):
    """Bidirectional BFS for a mutation path from Q1 to an isomorph of Q2.

    Returns (MutationPath, isomorphism) or None when the caps are exhausted
    (which proves nothing: the search cannot certify inequivalence).  A list
    given as stores is set to the two sides' stores, canonical key ->
    (representative rows, parent key, vertex mutated), once both roots are
    keyed; the search then fills them.
    """
    if Q1.n != Q2.n:
        return None
    rows1, rows2 = Q1.B.tolist(), Q2.B.tolist()
    key1, key2 = canonical_key(rows1), canonical_key(rows2)

    # store per side: key -> (representative rows, parent key, vertex mutated)
    sides = [
        {key1: (rows1, None, None)},
        {key2: (rows2, None, None)},
    ]
    if stores is not None:
        stores[:] = sides
    frontiers = [deque([key1]), deque([key2])]
    depths = [0, 0]
    nodes = 2

    def path_to_root(side, key):
        moves = []
        while True:
            _, parent, k = sides[side][key]
            if parent is None:
                return list(reversed(moves))
            moves.append(k)
            key = parent

    def stitch(meet_key):
        pa = path_to_root(0, meet_key)
        pb = path_to_root(1, meet_key)
        Ma = Quiver(sides[0][meet_key][0])
        Mb = Quiver(sides[1][meet_key][0])
        sigma = find_isomorphism(Ma, Mb)
        if sigma is None:  # key collision; treat the meet as spurious
            return None
        inv = invert_perm(sigma)
        moves = tuple(pa) + tuple(inv[k] for k in reversed(pb))
        path = MutationPath(Q1, moves)
        iso = find_isomorphism(path.replay(), Q2)
        if iso is None:
            return None
        return path, iso

    if key1 == key2:
        result = stitch(key1)
        if result is not None:
            return result

    while any(frontiers):
        side = 0 if (frontiers[0] and (not frontiers[1] or len(frontiers[0]) <= len(frontiers[1]))) else 1
        if depths[side] >= depth_cap:
            if depths[1 - side] >= depth_cap or not frontiers[1 - side]:
                return None
            side = 1 - side
        depths[side] += 1
        nxt = deque()
        while frontiers[side]:
            key = frontiers[side].popleft()
            rep, _, last = sides[side][key]
            for k in range(len(rep)):
                if k == last:  # mu_k mu_k is the identity: the parent is seen
                    continue
                child = mutate_rows(rep, k)
                ckey = canonical_key(child)
                if ckey in sides[side]:
                    continue
                sides[side][ckey] = (child, key, k)
                nodes += 1
                if ckey in sides[1 - side]:
                    result = stitch(ckey)
                    if result is not None:
                        return result
                if nodes > node_cap:
                    return None
                nxt.append(ckey)
        frontiers[side] = nxt
    return None


def rogers_L_quad(x):
    """Rogers dilogarithm by adaptive quadrature of its defining integral."""
    if x == 0:
        return 0.0

    def integrand(y):
        return np.log1p(-y) / y + np.log(y) / (1.0 - y)

    val, _ = integrate.quad(integrand, 0.0, x, points=[0.0, x], limit=200)
    return -0.5 * val


def g_factors(family, rank, level, a, m):
    """Neighbour factors (b, k, ds) of the T-relation centered at (a, m, u),
    as printed, with the boundary factors (index 0, component 0, or top row
    t_b*level) dropped."""
    cd = cartan_data(family, rank)
    out = []

    def add(b, k, ds=0):
        if b < 1 or k < 1 or k > cd["t_a"][b] * level - 1:
            return
        out.append((b, k, ds))

    if family == "C":
        r = rank
        if a <= r - 2:
            add(a - 1, m)
            add(a + 1, m)
        elif a == r - 1:
            add(r - 2, m)
            if m % 2 == 0:
                add(r, m // 2, -1)
                add(r, m // 2, +1)
            else:
                add(r, (m - 1) // 2)
                add(r, (m + 1) // 2)
        else:
            add(r - 1, 2 * m)
    elif family == "F4":
        if a == 1:
            add(2, m)
        elif a == 2:
            add(1, m)
            add(3, 2 * m)
        elif a == 3:
            if m % 2 == 0:
                add(2, m // 2, -1)
                add(2, m // 2, +1)
            else:
                add(2, (m - 1) // 2)
                add(2, (m + 1) // 2)
            add(4, m)
        else:
            add(3, m)
    elif family == "G2":
        if a == 1:
            add(2, 3 * m)
        else:
            q, rem = divmod(m, 3)
            if rem == 0:
                add(1, q, -2)
                add(1, q)
                add(1, q, +2)
            elif rem == 1:
                add(1, q, -1)
                add(1, q, +1)
                add(1, q + 1)
            else:
                add(1, q)
                add(1, q + 1, -1)
                add(1, q + 1, +1)
    else:
        raise ValueError(f"unknown family {family!r}")
    return out


def transpose_factors(family, rank, level):
    """The printed Y-relation numerators {(a, m): [(b, k, ds)]}, built in one
    pass over g_factors, listed in ascending (b, k)."""
    cd = cartan_data(family, rank)
    rows = [(a, m) for a in range(1, rank + 1) for m in range(1, cd["t_a"][a] * level)]
    out = {row: [] for row in rows}
    for b, k in rows:
        for a, m, ds in g_factors(family, rank, level, b, k):
            out[(a, m)].append((b, k, -ds))
    return out


def constant_relations(family, rank, level):
    """(numerator, denominator) factor keys of the printed constant
    Y-relation at each (a, m): transpose_factors without the time shifts,
    and the factors (1 + 1/Y_(a,m+-1)) inside the grid."""
    numerators = transpose_factors(family, rank, level)
    return {
        (a, m): ([(b, k) for b, k, _ in num], [(a, k) for k in (m - 1, m + 1) if (a, k) in numerators])
        for (a, m), num in numerators.items()
    }


def damped_constant_Y(family, rank, level):
    """Damped fixed-point solution of the printed constant coefficient system.

    Iterates Y <- (1-damping)*Y + damping*sqrt(RHS(Y)) with damping 0.5 from
    the all-ones start until the largest relative update drops below 1e-13.
    Raises after 100000 iterations.
    """
    damping = 0.5
    relations = constant_relations(family, rank, level)
    Y = {k: 1.0 for k in relations}
    for _ in range(100000):
        rhs = {
            key: math.prod([1.0 + Y[f] for f in num]) / math.prod([1.0 + 1.0 / Y[f] for f in den])
            for key, (num, den) in relations.items()
        }
        delta = 0.0
        for k in relations:
            new = (1.0 - damping) * Y[k] + damping * math.sqrt(rhs[k])
            delta = max(delta, abs(new - Y[k]) / Y[k])
            Y[k] = new
        if delta < 1e-13:
            return Y
    raise RuntimeError(f"constant system did not converge for {family} level {level}")


def constant_residuals(family, rank, level, Y):
    """|Y^2 / RHS - 1| of each printed constant relation at Y."""
    out = {}
    for key, (num, den) in constant_relations(family, rank, level).items():
        rhs = math.prod([1.0 + Y[f] for f in num]) / math.prod([1.0 + 1.0 / Y[f] for f in den])
        out[key] = abs(Y[key] ** 2 / rhs - 1.0)
    return out


def parity_plus(family, rank, a, m, s, prime=False):
    """Membership of (a, m, u=s/t) in the forward parity class (P+ or P'+)."""
    if family == "C":
        if a == rank:
            return s % 2 == 0
        odd = (rank + a + m + s) % 2 == 1
        return odd if not prime else not odd
    if family == "F4":
        if a in (1, 2):
            return s % 2 == 0
        odd = (a + m + s) % 2 == 1
        return odd if not prime else not odd
    if family == "G2":
        even = (a + m + s) % 2 == 0
        return even if not prime else not even
    raise ValueError(f"unknown family {family!r}")


def grid_points(family, rank, level, s_lo, s_hi, prime=False):
    """All (a, m, s) in the given class with s_lo <= s < s_hi."""
    cd = cartan_data(family, rank)
    out = []
    for s in range(s_lo, s_hi):
        for a in range(1, rank + 1):
            for m in range(1, cd["t_a"][a] * level):
                if parity_plus(family, rank, a, m, s, prime=prime):
                    out.append((a, m, s))
    return out


def _c_column(rank, m, u_int):
    return rank + 1 if (m + u_int) % 2 == 0 else rank


def label_g_prime(model, a, m, s):
    """Coefficient label: grid point (a, m, u=s/t) in P'+ -> (vertex, s)."""
    fam, rank = model.spec.family, model.spec.rank
    t = model.cartan["t"]
    if not parity_plus(fam, rank, a, m, s, prime=True):
        raise ValueError(f"({a},{m},{s}/{t}) violates the P'+ parity condition")
    if fam == "C":
        col = a if a != rank else _c_column(rank, m, s // 2)
    elif fam == "F4":
        if a in (1, 2):
            col = a if (a + m + s // 2) % 2 == 0 else 7 - a
        else:
            col = a
    else:  # G2
        if a == 1:
            col = {0: 1, 4: 2, 2: 3}[(3 * m + s) % 6]
        else:
            col = 4
    return model.vid(col, m), s


def label_g(model, a, m, s_w):
    """Cluster-variable label: (a, m, w=s_w/t) in P+ -> (vertex, s_w + t/t_a).

    (a, m, w) is in P+ exactly when (a, m, w + 1/t_a) is in P'+, and the
    cluster variable sits at the mutation point of that coefficient.
    """
    return label_g_prime(model, a, m, s_w + model.cartan["t"] // model.cartan["t_a"][a])


class LabelledArrays:
    """The labelled arrays of one block of a numeric.NumericRun, filled with
    NaN off the grid, and the relation and periodicity checks read row by
    row from them: the reference for the GatherPlan gathers of NumericRun.

    The block is the positive-real one when tracked, else the
    coefficient-free one.  T[a, m, s - s0, j] and Y[a, m, s - s0, j] hold
    T^{(a)}_m(s/t) and Y^{(a)}_m(s/t) of seed j.  T is filled on the P+ grid
    and is 1 on the boundary rows (a = 0, m = 0 and m = t_a*level); Y is
    filled on the P'+ grid, with 1 throughout the coefficient-free block.
    Every other entry is NaN, and a gather that meets one raises.
    """

    def __init__(self, run, tracked):
        self.run, self.schedule, self.t = run, run.schedule, run.t
        self.full_s, self.lo_s, self.hi_s, self.tracked = run.full_s, run.lo_s, run.hi_s, tracked
        x = run.x[..., run.real if tracked else run.free]
        cd, level = run.model.cartan, run.spec.level
        self.tops = {a: t_a * level for a, t_a in cd["t_a"].items()}
        self.lags = {a: self.t // t_a for a, t_a in cd["t_a"].items()}
        self.rows = list(self.schedule.g)
        # T of a point at s sits at s - t/t_a >= lo_s - t
        s0 = self.lo_s - self.t
        shape = (run.spec.rank + 1, max(self.tops.values()) + 1, self.hi_s + 1 - s0, len(run.seeds))
        self.s0, self.T, self.Y = s0, np.full(shape, np.nan), np.full(shape, np.nan)
        self.T[0] = 1.0
        for a, top in self.tops.items():
            self.T[a, [0, top]] = 1.0
        node, row = np.array(self.schedule.labels).T
        lag = np.array([self.lags[a] for a in node])
        s, v = self.schedule.points(self.lo_s, self.hi_s + 1)
        self.T[node[v], row[v], s - lag[v] - s0] = x[s - self.lo_s, v]
        self.Y[node[v], row[v], s - s0] = run.y[s - self.lo_s, v] if tracked else 1.0

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

    def t_residuals(self):
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

    def _periodicity_errors(self, arr):
        """V_m(u + full) = V_m(u) and V_{top-m}(u + half) = V_m(u), row by row."""
        half = self.full_s // 2
        errs = []
        for a, m in self.rows:
            s = self._times(arr, a, m, 0, 2 * self.t)
            base = self._at(arr, a, m, s)
            errs.append(np.abs(self._at(arr, a, m, s + self.full_s) - base) / np.abs(base))
            errs.append(np.abs(self._at(arr, a, self.tops[a] - m, s + half) - base) / np.abs(base))
        return np.concatenate(errs)

    def t_periodicity_errors(self):
        return self._periodicity_errors(self.T)

    def y_periodicity_errors(self):
        return self._periodicity_errors(self.Y)

    def labelled_coefficients(self, s_lo, s_hi):
        ys = self.Y[:, :, s_lo - self.s0 : s_hi - self.s0].transpose(3, 2, 0, 1).reshape(len(self.run.seeds), -1)
        return np.compress(~np.isnan(ys[0]), ys, axis=1)


class PiecewisePlan:
    """The gather plan of a verified Schedule built piece by piece: one
    lookup and one off-grid check per relation array, one more for its
    translate by the last slot period, and one per periodicity array,
    each raising ScheduleError at its first value off the grid.  The
    reference for the t_relation, y_relation, t_period, y_period and
    coefficients of schedule.GatherPlan, which looks every read up in one
    batch and bounds the translates by their largest row; it reads the
    plan's y_rows and t_rows lookups and its window.
    """

    def __init__(self, schedule):
        plan = schedule.plan
        self.plan, self.t, self.full_s, self.tops, self.lags = plan, plan.t, plan.full_s, plan.tops, plan.lags
        keys = list(schedule.g)
        ra, rm = np.array(keys).T[:, :, None]  # one row per relation
        period = np.arange(2 * self.t)

        # T-relations at the P'+ points
        ri, s = np.nonzero(plan.y_rows(ra, rm, period) != OFF)
        a, m, dt = ra[ri], rm[ri], self.lags[ra[ri]]
        b, k, ds, pad = (x[ri] for x in _padded(schedule.g, keys))
        self.t_relation = Relations(
            lhs=self._relation_rows(plan.t_rows, a, m, s[:, None] + dt * [-1, 1]),
            adjacent=self._relation_rows(plan.t_rows, a, m + [-1, 1], s[:, None]),
            factors=self._relation_rows(plan.t_rows, b, k, s[:, None] + ds, pad),
            center=self._relation_rows(plan.y_rows, a[:, 0], m[:, 0], s),
            relation=ri,
        )

        # Y-relations at the P+ points; a boundary row carries no factor
        ri, s = np.nonzero(plan.t_rows(ra, rm, period) != OFF)
        a, m, dt = ra[ri], rm[ri], self.lags[ra[ri]]
        b, k, ds, pad = (x[ri] for x in _padded(schedule.numerators, keys))
        rows_m = m + [-1, 1]
        self.y_relation = Relations(
            lhs=self._relation_rows(plan.y_rows, a, m, s[:, None] + dt * [-1, 1]),
            adjacent=self._relation_rows(plan.y_rows, a, rows_m, s[:, None], (rows_m == 0) | (rows_m == self.tops[a])),
            factors=self._relation_rows(plan.y_rows, b, k, s[:, None] + ds, pad),
            center=None,
            relation=ri,
        )
        self.t_period = self._periodicity(plan.t_rows, ra, rm)
        self.y_period = self._periodicity(plan.y_rows, ra, rm)

    def coefficients(self, s_lo, s_hi):
        """The record rows of the P'+ points with s_lo <= s < s_hi, in
        (s, a, m) order, clamped to the plan's window."""
        plan = self.plan
        s = np.arange(max(s_lo, plan.lo_s), min(s_hi, plan.hi_s + 1))
        by_label = plan._vertex[:, :, s % (2 * self.t)].transpose(2, 0, 1).reshape(len(s), -1)
        i, j = np.nonzero(by_label != OFF)
        return (s[i] - plan.lo_s) * plan.n + by_label[i, j]

    def _checked(self, lookup, a, m, s, unit=None):
        """lookup(a, m, s), UNIT where unit holds; raises ScheduleError at the
        first value off the grid."""
        rows = lookup(a, m, s) if unit is None else np.where(unit, UNIT, lookup(a, m, s))
        off = np.flatnonzero(rows == OFF)
        if off.size:
            a, m, s = (int(np.broadcast_to(x, rows.shape).flat[off[0]]) for x in (a, m, s))
            raise ScheduleError(f"({a}, {m}, {s}/{self.t}) is off the grid, read by a relation ({self.plan._context})")
        return rows

    def _relation_rows(self, lookup, a, m, s, unit=None):
        """The checked rows of one slot period of relations; their translates
        by the last slot period must stay inside the window too."""
        rows = self._checked(lookup, a, m, s, unit)
        self._checked(lookup, a, m, s + self.full_s - 2 * self.t, unit)
        return rows

    def _periodicity(self, lookup, ra, rm):
        """The periodicity pairs of the values that lookup finds at 0 <= s < 2t."""
        ri, s = np.nonzero(lookup(ra, rm, np.arange(2 * self.t)) != OFF)
        a, m = ra[ri, 0], rm[ri, 0]
        base = lookup(a, m, s)
        full = self._checked(lookup, a, m, s + self.full_s)
        half = self._checked(lookup, a, self.tops[a] - m, s + self.full_s // 2)
        # row by row: the full pairs of a row, then its half pairs
        order = np.argsort(np.concatenate([2 * ri, 2 * ri + 1]), kind="stable")
        return np.concatenate([base, base])[order], np.concatenate([full, half])[order]


def int64_slot_cycle(model, sets):
    """The exchange matrix after each slot step of one period, mutated in
    int64 by quiver.mutations from the built matrix: the reference for the
    float64 cycle of schedule.slot_matrices."""
    B, out = model.quiver.B, []
    for ks in sets:
        B = mutations(B, [ks])[0]
        out.append(B)
    return out


def masked_gather(record, rows):
    """record[rows] for a flattened run record without a unit row, with an
    exact 1.0 written where a row is UNIT."""
    out = record[rows]
    out[rows == UNIT] = 1.0
    return out


def trivial_plus1(L, out=None):
    """The one-element semifield: 1 (+) 1 = 1, so log(y (+) 1) = 0."""
    if out is None:
        return np.zeros_like(L)
    out[...] = 0.0
    return out


class NumericRun:
    """A run record in one semifield: the positive reals when tracked, else
    the trivial semifield, one column per seed, driven by its own
    run_schedule call from its seed draws at lo_s, and the checks gathered
    from it.  Two of these, one tracked and one plain, are the reference
    for the two column blocks of numeric.NumericRun.

    x[s - lo_s, v, j] (and y[s - lo_s, v, j] when tracked) holds the cluster
    (and coefficient) value of vertex v at time s from seeds[j]; Y is 1
    throughout a plain run.
    """

    def __init__(self, schedule, seeds=(0,), tracked=True):
        self.schedule = schedule
        self.model = schedule.model
        self.seeds = seeds
        self.t = schedule.t
        plan = schedule.plan
        self.full_s, self.lo_s, self.hi_s = plan.full_s, plan.lo_s, plan.hi_s
        n = self.model.n
        # each seed draws its cluster, then (when tracked) its coefficients
        draws = np.log([np.random.default_rng(seed).uniform(0.5, 2.0, (1 + tracked, n)) for seed in seeds]).T
        self.tracked = tracked
        if tracked:
            L0, oplus1 = draws[:, 1], real_plus1
        else:  # coefficient-free: the trivial semifield
            L0, oplus1 = np.zeros((n, len(seeds))), trivial_plus1
        Ls, logxs = run_schedule(schedule, self.lo_s, self.hi_s, L0, oplus1, draws[:, 0])
        self.x = np.exp(logxs)
        self.y = np.exp(Ls) if tracked else None

    def t_values(self, rows):
        return masked_gather(self.x.reshape(-1, len(self.seeds)), rows)

    def y_values(self, rows):
        if self.y is None:  # coefficient-free: every Y is 1
            return np.ones((*np.shape(rows), len(self.seeds)))
        return masked_gather(self.y.reshape(-1, len(self.seeds)), rows)

    def t_residuals(self):
        plan = self.schedule.plan
        rel = plan.translated(plan.t_relation)
        lhs, adj = self.t_values(rel.lhs), self.t_values(rel.adjacent)
        lhs, adj = lhs[:, 0] * lhs[:, 1], adj[:, 0] * adj[:, 1]
        mon = np.prod(self.t_values(rel.factors), axis=1)
        if self.tracked:
            yk = self.y_values(rel.center)
            rhs = (yk * mon + adj) / (1.0 + yk)
        else:
            rhs = adj + mon
        return np.abs(lhs - rhs) / np.maximum(np.abs(lhs), np.abs(rhs))

    def y_residuals(self):
        plan = self.schedule.plan
        rel = plan.translated(plan.y_relation)
        lhs = self.y_values(rel.lhs)
        lhs = lhs[:, 0] * lhs[:, 1]
        num = 1.0 + self.y_values(rel.factors)
        num[rel.factors == UNIT] = 1.0
        den = 1.0 + 1.0 / self.y_values(rel.adjacent)
        den[rel.adjacent == UNIT] = 1.0
        rhs = np.prod(num, axis=1) / np.prod(den, axis=1)
        return np.abs(lhs - rhs) / np.maximum(np.abs(lhs), np.abs(rhs))

    def t_periodicity_errors(self):
        base, other = self.schedule.plan.t_period
        base = self.t_values(base)
        return np.abs(self.t_values(other) - base) / np.abs(base)

    def y_periodicity_errors(self):
        base, other = self.schedule.plan.y_period
        base = self.y_values(base)
        return np.abs(self.y_values(other) - base) / np.abs(base)

    def labelled_coefficients(self, s_lo, s_hi):
        return np.ascontiguousarray(self.y_values(self.schedule.plan.coefficients(s_lo, s_hi)).T)


def expected_sign(run, v, s):
    """Sign of the monomial of vertex v at time s of a tropical.TropicalRun
    predicted by the region/row classification, or None outside it.

    Region one (0 <= u < level): every mutation-point monomial is
    positive.  Region two (-h_dual <= u < 0): circle rows and the bullet
    rows that are multiples of t are negative; the remaining bullet rows
    are negative except at an explicit finite list of times, where they
    are positive.
    """
    m = run.model
    u = Fraction(s, run.t)
    if 0 <= u < m.spec.level:
        return POSITIVE
    if not -m.cartan["h_dual"] <= u < 0:
        return None
    meta = m.quiver.meta[v]
    if meta.fill == FILL_CIRCLE or meta.row % run.t == 0:
        return NEGATIVE
    if m.spec.family == "C":
        hd = Fraction(m.cartan["h_dual"])
        pos_times = [-hd / 2, -hd / 2 - Fraction(1, 2)]
    elif m.spec.family == "F4":
        pos_times = [Fraction(x) for x in ("-2", "-5/2", "-9/2", "-5", "-7", "-15/2")]
    else:
        pos_times = [Fraction(x) for x in ("-1", "-4/3", "-5/3", "-8/3", "-3", "-10/3")]
    return POSITIVE if u in pos_times else NEGATIVE


def sign_pattern_mismatches(run):
    """The (position, u, got, want) of each mutation point whose tropical
    sign contradicts expected_sign, point by point."""
    bad = []
    lo = -run.model.cartan["h_dual"] * run.t
    s, v, classes = run.point_signs(lo, run.model.spec.level * run.t)
    for s, v, got in zip(s.tolist(), v.tolist(), classes.tolist()):
        want = expected_sign(run, v, s)
        if want is not None and got != want:
            bad.append((run.model.position(v), Fraction(s, run.t), got, want))
    return bad


def periodicity_mismatches(run):
    """The half (with omega) and full periodicity mismatches of the schedule
    of a tropical.TropicalRun, one time s at a time for 0 <= s < full_s.

    It compares the record of its own int64 run over two full periods,
    0 <= s < 2*full_s, so it reads neither run.H nor the premises that let
    TropicalRun stop at half_s."""
    E0 = np.eye(run.model.n, dtype=np.int64)
    E, _ = run_schedule(run.schedule, 0, 2 * run.full_s - 1, E0, tropical_plus1)
    return record_periodicity_mismatches(run, E, 0, range(run.full_s), range(run.full_s))


def tropical_record(run):
    """The int8 tropical record E[s - lo_s] of a tropical.TropicalRun's
    schedule at every time lo_s <= s <= full_s, run in both directions from
    an int8 identity by run_two_product."""
    E0 = np.eye(run.model.n, dtype=np.int8)
    return run_two_product(run.schedule, run.lo_s, run.full_s, E0, tropical_plus1)[0]


def record_periodicity_mismatches(run, E, lo_s, half_times, full_times):
    """The half (with omega) mismatches at half_times by vertex, then the
    full ones at full_times, of the record E[s - lo_s] of a
    tropical.TropicalRun's schedule, one time s at a time."""
    bad = []
    for s in half_times:
        E0, Eh = E[s - lo_s], E[s + run.half_s - lo_s]
        for v in np.flatnonzero((Eh != E0[run.omega]).any(1)):
            bad.append(("half", run.model.position(v), Fraction(s, run.t)))
    full = [s for s in full_times if not np.array_equal(E[s + run.full_s - lo_s], E[s - lo_s])]
    return bad + [("full", None, Fraction(s, run.t)) for s in full]


def family_boundary_targets(model):
    """{s: dst}: the initial generator whose inverse is the coefficient of
    vertex v at u = level and at u = -h_dual, by the per-family formulas."""
    fam, r, lev = model.spec.family, model.spec.rank, model.spec.level
    t, hd = model.cartan["t"], model.cartan["h_dual"]
    at_level, at_minus_hd = [], []
    for v in range(model.n):
        col, row = model.position(v)
        if fam == "C":
            top = 2 * lev if col <= r - 1 else lev
            swap = col if (r % 2 == 1 or col <= r - 1) else 2 * r + 1 - col
        elif fam == "F4":
            top = 2 * lev if col in (3, 4) else lev
            swap = col if col in (3, 4) else 7 - col
        else:
            top = 3 * lev if col == 4 else lev
            swap = col
        at_level.append((col, top - row))
        at_minus_hd.append((swap, row))
    return {lev * t: at_level, -hd * t: at_minus_hd}


def family_expected_counts(family, rank, level):
    """Closed forms for the (N+, N-) sign tallies over one full period."""
    r, lev = rank, level
    if family == "C":
        return 2 * lev * (2 * r * lev - lev - 1), 2 * r * (2 * lev * r - r - 1)
    if family == "F4":
        return 4 * lev * (3 * lev + 1), 24 * (4 * lev - 3)
    if family == "G2":
        return 6 * lev * (2 * lev + 1), 12 * (3 * lev - 2)
    raise ValueError(f"unknown family {family!r}")


def functional_rhs_doubled(family, rank, level):
    """Printed closed forms for the doubled functional sums (2N-, 2N+)."""
    r, lev = rank, level
    if family == "C":
        return 4 * r * (2 * r * lev - r - 1), 4 * lev * (2 * r * lev - lev - 1)
    if family == "F4":
        return 48 * (4 * lev - 3), 8 * lev * (3 * lev + 1)
    if family == "G2":
        return 24 * (3 * lev - 2), 12 * lev * (2 * lev + 1)
    raise ValueError(f"unknown family {family!r}")


#: C at ranks 2..8 and levels 2..7, F4 at levels 2..7 and G2 at levels 2..8:
#: the cases the closed forms are compared on.
CLOSED_FORM_CASES = (
    [("C", r, lev) for r in range(2, 9) for lev in range(2, 8)]
    + [("F4", 4, lev) for lev in range(2, 8)]
    + [("G2", 2, lev) for lev in range(2, 9)]
)


def total_points(family, rank, level):
    """t*(h_dual+level)*((sum_a t_a)*level - rank): mutation points per period."""
    cd = cartan_data(family, rank)
    return cd["t"] * (cd["h_dual"] + level) * (sum(cd["t_a"].values()) * level - rank)


# -- the typed level-2 root dynamics: sigma words and alpha tables -------------

#: D4 with nodes 1, 2, 3 outer and node 4 central
D4_OUTER_EDGES = ((1, 4), (2, 4), (3, 4))


def d_part_signs_C(rank):
    """+/- classes on the D_{rank+1} nodes 1..rank-1 (none on rank, rank+1)."""
    plus = [i for i in range(1, rank) if (i - rank) % 2 == 0]
    minus = [i for i in range(1, rank) if (i - rank) % 2 == 1]
    return plus, minus


def sigma_C(rank):
    """sigma = s- s+ s_{r+1} s- s+ s_r on D_{rank+1} almost positive roots."""
    plus, minus = d_part_signs_C(rank)
    word = [rank] + plus + minus + [rank + 1] + plus + minus
    return SigmaMap(RootSystem(rank + 1, dynkin_edges("D", rank + 1)), word)


def sigma_C_apart(rank):
    """sigma = s- s+ on A_{rank-1} (the thin-row analysis for type C)."""
    plus = [i for i in range(1, rank) if (i + rank) % 2 == 1]
    minus = [i for i in range(1, rank) if (i + rank) % 2 == 0]
    return SigmaMap(RootSystem(rank - 1, dynkin_edges("A", rank - 1)), plus + minus)


def sigma_F4():
    """sigma = s3 (s4 s2 s6) s3 (s4 s1 s5) on E6 almost positive roots."""
    return SigmaMap(RootSystem(6, dynkin_edges("E6", 6)), [4, 1, 5, 3, 4, 2, 6, 3])


def sigma_G2():
    """sigma = s3 s4 s1 s4 s2 s4 on D4 almost positive roots (node 4 central)."""
    return SigmaMap(RootSystem(4, D4_OUTER_EDGES), [4, 2, 4, 1, 4, 3])


def alpha_domain(family, rank):
    """All (i, u) pairs covered by the level-2 root description."""
    if family == "C":
        h_dual = rank + 1
        plus, minus = d_part_signs_C(rank)
        out = []
        for i in plus:
            out += [(i, Fraction(u)) for u in range(-h_dual, 0)]
        for i in minus:
            out += [(i, Fraction(2 * u - 1, 2)) for u in range(-h_dual + 1, 1)]
        out += [(rank, Fraction(u)) for u in range(-h_dual, 0) if u % 2 == 0]
        out += [(rank + 1, Fraction(u)) for u in range(-h_dual, 0) if u % 2 == 1]
        return out
    if family == "F4":
        out = []
        for i in (1, 4, 5):
            out += [(i, Fraction(u)) for u in range(-9, 0) if u % 2 == 0]
        for i in (2, 4, 6):
            out += [(i, Fraction(u)) for u in range(-9, 0) if u % 2 == 1]
        out += [(3, Fraction(2 * u - 1, 2)) for u in range(-8, 1)]
        return out
    if family == "G2":
        return [(i, Fraction(u)) for i, us in (
            (1, ("-1", "-3")),
            (2, ("-5/3", "-11/3")),
            (3, ("-1/3", "-7/3")),
            (4, ("-2/3", "-8/3", "-4/3", "-10/3", "-2", "-4")),
        ) for u in us]
    raise ValueError(f"unknown family {family!r}")


def alpha_of(family, rank, i, u):
    """The positive root attached to row i at time u in the level-2 analysis."""
    u = Fraction(u)
    if family == "C":
        sig = sigma_C(rank)
        rs = sig.rs
        plus, _ = d_part_signs_C(rank)
        mod = u % 2
        if i <= rank - 1 and i in plus:
            if mod == 0:
                return sig(neg_simple(rs, i), power=int(-u // 2))
            if mod == 1:
                return sig(rs.simple(i), power=int(-(u - 1) // 2))
        elif i <= rank - 1:
            if mod == Fraction(1, 2):
                return sig(neg_simple(rs, i), power=int(-(2 * u - 1) // 4))
            if mod == Fraction(3, 2):
                return sig(rs.simple(i), power=int(-(2 * u + 1) // 4))
        elif i == rank and mod == 0:
            return sig(neg_simple(rs, rank), power=int(-u // 2))
        elif i == rank + 1 and mod == 1:
            return sig(neg_simple(rs, rank + 1), power=int(-(u - 1) // 2))
        raise ValueError(f"(i={i}, u={u}) outside the type C case table")
    if family == "F4":
        sig = sigma_F4()
        rs = sig.rs
        mod = u % 2
        if i in (1, 4, 5) and mod == 0:
            return sig(neg_simple(rs, i), power=int(-u // 2))
        if i in (2, 6) and mod == 1:
            return sig(neg_simple(rs, i), power=int(-(u - 1) // 2))
        if i == 4 and mod == 1:
            return sig(rs.simple(4), power=int(-(u - 1) // 2))
        if i == 3 and mod == Fraction(1, 2):
            return sig(neg_simple(rs, 3), power=int(-(2 * u - 1) // 4))
        if i == 3 and mod == Fraction(3, 2):
            return sig(rs.simple(3), power=int(-(2 * u + 1) // 4))
        raise ValueError(f"(i={i}, u={u}) outside the F4 case table")
    if family == "G2":
        sig = sigma_G2()
        rs = sig.rs
        s3 = 3 * u
        if i == 1 and u in (-1, -3):
            return sig(neg_simple(rs, 1), power=int(-(u - 1) // 2))
        if i == 2 and s3 % 6 == 1:
            return sig(neg_simple(rs, 2), power=int(-(s3 - 1) // 6))
        if i == 3 and s3 % 6 == 5:
            return sig(neg_simple(rs, 3), power=int(-(s3 - 5) // 6))
        if i == 4:
            if s3 % 6 == 4:
                return sig((0, 0, 1, 1), power=int(-(s3 + 2) // 6))
            if s3 % 6 == 2:
                return sig(rs.simple(1), power=int(-(s3 + 4) // 6))
            if s3 % 6 == 0:
                return sig(neg_simple(rs, 4), power=int(-u // 2))
        raise ValueError(f"(i={i}, u={u}) outside the G2 case table")
    raise ValueError(f"unknown family {family!r}")


def thin_row_alpha_C(rank, i, u):
    """The typed thin-row root of row (i, 1) at time u for type C at level 2:
    sigma_C_apart to the power -u (a "+" row, integer u) or 1/2 - u (a "-"
    row, half-integer u), applied to -alpha_i."""
    sig = sigma_C_apart(rank)
    power = -u if u.denominator == 1 else Fraction(1, 2) - u
    return sig(neg_simple(sig.rs, i), power=int(power))


# -- the typed C/F4/G2 builders, symmetries and column fold ------------------


def _sign_chain(plus_on_odd):
    return lambda row: "+" if (row % 2 == 1) == plus_on_odd else "-"


def _vertical_arrows(col, rows, sign_of):
    out = []
    for k in range(1, rows):
        a, b = (col, k), (col, k + 1)
        out.append((a, b) if sign_of(k) == "+" else (b, a))
    return out


def build_C(spec):
    r, lev = spec.rank, spec.level
    tall, short = 2 * lev - 1, lev - 1

    def bullet_sign(i, row):
        return "+" if (r - i + row) % 2 == 0 else "-"

    circle_sign = {r: _sign_chain(True), r + 1: _sign_chain(False)}

    verts = []
    for i in range(1, r):
        for k in range(1, tall + 1):
            verts.append(((i, k), Vertex(i, k, FILL_BULLET, bullet_sign(i, k))))
    for i in (r, r + 1):
        for k in range(1, short + 1):
            verts.append(((i, k), Vertex(i, k, FILL_CIRCLE, circle_sign[i](k))))

    arrows = []
    for i in range(1, r):
        arrows += _vertical_arrows(i, tall, lambda k, i=i: bullet_sign(i, k))
    for i in (r, r + 1):
        arrows += _vertical_arrows(i, short, circle_sign[i])
    # bullet-bullet rows: "-" -> "+"
    for i in range(1, r - 1):
        for k in range(1, tall + 1):
            a, b = (i, k), (i + 1, k)
            arrows.append((a, b) if bullet_sign(i, k) == "-" else (b, a))
    # tall column r-1 meets the circle columns
    for k in range(1, short + 1):
        for c in (r, r + 1):
            arrows.append(((r - 1, 2 * k), (c, k)))
            if circle_sign[c](k) == "-":
                arrows.append(((c, k), (r - 1, 2 * k - 1)))
                arrows.append(((c, k), (r - 1, 2 * k + 1)))
    return _finish(spec, verts, arrows)


def build_F4(spec):
    lev = spec.level
    tall, short = 2 * lev - 1, lev - 1
    circle_cols = (1, 2, 5, 6)
    sign_of = {
        1: _sign_chain(True),
        2: _sign_chain(False),
        3: _sign_chain(True),
        4: _sign_chain(False),
        5: _sign_chain(True),
        6: _sign_chain(False),
    }

    verts = []
    for i in (3, 4):
        for k in range(1, tall + 1):
            verts.append(((i, k), Vertex(i, k, FILL_BULLET, sign_of[i](k))))
    for i in circle_cols:
        for k in range(1, short + 1):
            verts.append(((i, k), Vertex(i, k, FILL_CIRCLE, sign_of[i](k))))

    arrows = []
    for i in (3, 4):
        arrows += _vertical_arrows(i, tall, sign_of[i])
    for i in circle_cols:
        arrows += _vertical_arrows(i, short, sign_of[i])
    for k in range(1, tall + 1):  # bullet pair 4 -- 3
        a, b = (4, k), (3, k)
        arrows.append((a, b) if sign_of[4](k) == "-" else (b, a))
    for k in range(1, short + 1):
        for a, b in ((1, 2), (5, 6)):  # circle pairs
            lo, hi = (a, k), (b, k)
            arrows.append((lo, hi) if sign_of[a](k) == "-" else (hi, lo))
        for c in (2, 5):  # fan from the central tall column
            arrows.append(((3, 2 * k), (c, k)))
            if sign_of[c](k) == "-":
                arrows.append(((c, k), (3, 2 * k - 1)))
                arrows.append(((c, k), (3, 2 * k + 1)))
    return _finish(spec, verts, arrows)


def build_G2(spec):
    lev = spec.level
    tall, short = 3 * lev - 1, lev - 1

    def bullet_sign(row):
        return "+" if row % 2 == 1 else "-"

    verts = []
    for k in range(1, tall + 1):
        verts.append(((4, k), Vertex(4, k, FILL_BULLET, bullet_sign(k))))
    for i in (1, 2, 3):
        for k in range(1, short + 1):
            verts.append(((i, k), Vertex(i, k, FILL_CIRCLE, _G2_TAGS[(i, k % 2)])))

    arrows = _vertical_arrows(4, tall, bullet_sign)
    for i in (1, 2, 3):
        for k in range(1, short):
            a, b = (i, k), (i, k + 1)
            # sources are the I/II/III-tagged circles
            arrows.append((a, b) if _G2_TAGS[(i, k % 2)] in ("I", "II", "III") else (b, a))
    for i in (1, 2, 3):
        for k in range(1, short + 1):
            outs, ins = _G2_FAN[_G2_TAGS[(i, k % 2)]]
            for d in outs:
                arrows.append(((i, k), (4, 3 * k + d)))
            for d in ins:
                arrows.append(((4, 3 * k + d), (i, k)))
    return _finish(spec, verts, arrows)


def involutions(m):
    """Symmetry permutations of a built C/F4/G2 quiver.

    Returns a dict with "omega" always present, "r" for C/F4, and "nu_<s>"
    for every permutation s of {1,2,3} for G2 (keyed e.g. "nu_132" meaning
    columns 1,2,3 are renamed to 1,3,2 in one-line notation).
    """
    spec = m.spec
    lev = spec.level
    out = {}
    if spec.family == "C":
        r = spec.rank

        def refl(col, row):
            if col <= r - 1:
                return (col, row)
            return (2 * r + 1 - col, row)

        def omega(col, row):
            if col <= r - 1:
                return (col, 2 * lev - row)
            if r % 2 == 0:
                return (2 * r + 1 - col, lev - row)
            return (col, lev - row)

        out["r"] = m.perm_from_position_map(refl)
        out["omega"] = m.perm_from_position_map(omega)
    elif spec.family == "F4":

        def refl(col, row):
            return ({1: 6, 2: 5, 5: 2, 6: 1}.get(col, col), row)

        def omega(col, row):
            if col in (3, 4):
                return (col, 2 * lev - row)
            return ({1: 6, 2: 5, 5: 2, 6: 1}[col], lev - row)

        out["r"] = m.perm_from_position_map(refl)
        out["omega"] = m.perm_from_position_map(omega)
    elif spec.family == "G2":

        def omega(col, row):
            if col == 4:
                return (col, 3 * lev - row)
            return (col, lev - row)

        out["omega"] = m.perm_from_position_map(omega)
        for s in ((1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)):
            def nu(col, row, s=s):
                return (s[col - 1], row) if col != 4 else (col, row)

            out["nu_" + "".join(map(str, s))] = m.perm_from_position_map(nu)
    else:
        raise ValueError("involutions are defined for the C/F4/G2 quivers only")
    return out


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


def level2_core(model):
    """The level-2 core: the vertex in row t_a of each quiver column, with
    a = column_fold(col), in column order."""
    spec, t_a = model.spec, model.cartan["t_a"]
    cols = sorted({meta.col for meta in model.quiver.meta})
    return [model.vid(col, t_a[column_fold(spec.family, spec.rank, col)]) for col in cols]


def per_point_alpha(schedule, vertices, rs):
    """alpha of roots.pl_dynamics point by point: for each mutation point
    (s, v) with -h_dual*t <= s < 0 and v among vertices, in time order, the
    image of -alpha_i (v = vertices[i-1]) under its own chain of
    RootSystem.sigma calls through the slots s, s+1, ..., -1.  The
    reference for the one sweep that carries every root together."""
    node = {v: i for i, v in enumerate(vertices, start=1)}
    words = [[node[v] for v in ks if v in node] for ks in schedule.sets]
    alpha = {}
    s, v = schedule.points(-schedule.model.cartan["h_dual"] * schedule.t, 0)
    for s, v in zip(s.tolist(), v.tolist()):
        if v in node:
            vec = neg_simple(rs, node[v])
            for k in range(s, 0):
                for i in words[k % len(words)]:
                    vec = rs.sigma(i, vec)
            alpha[s, v] = vec
    return alpha
