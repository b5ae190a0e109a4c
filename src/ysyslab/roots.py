"""Simply laced root systems with the piecewise-linear reflection action
on almost positive roots, the level-2 root dynamics of a verified schedule,
and the identities tying level-2 tropical exponent vectors to negated roots.

Roots are kept as integer tuples over the simple-root basis.  An almost
positive root is either a positive root or the negative of a simple root.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np



class RootSystem:
    """Positive roots and simple reflections of the simply laced Dynkin
    diagram with nodes 1..rank and the given edges."""

    def __init__(self, rank, edges):
        self.rank = rank
        self.edges = list(edges)
        A = 2 * np.eye(rank, dtype=np.int64)
        for a, b in self.edges:
            A[a - 1, b - 1] = A[b - 1, a - 1] = -1
        self.cartan = A
        self._rows = A.tolist()
        self.positive_roots = self._enumerate_positive()

    def _enumerate_positive(self):
        found = {self.simple(i) for i in range(1, self.rank + 1)}
        frontier = list(found)
        while frontier:
            nxt = []
            for root in frontier:
                for i in range(1, self.rank + 1):
                    img = self.reflect(i, root)
                    if max(img) > 6:  # above every coefficient of E8's highest root
                        raise ValueError(f"edges {self.edges} do not form a Dynkin diagram of finite type")
                    if any(c > 0 for c in img) and img not in found:
                        found.add(img)
                        nxt.append(img)
            frontier = nxt
        return frozenset(found)

    def simple(self, i):
        return tuple(1 if k == i - 1 else 0 for k in range(self.rank))

    def reflect(self, i, vec):
        """Linear simple reflection s_i in the simple-root basis."""
        out = list(vec)
        out[i - 1] -= sum(a * c for a, c in zip(self._rows[i - 1], vec))
        return tuple(out)

    def is_positive_root(self, vec):
        return tuple(vec) in self.positive_roots

    def _negative_simple(self, vec):
        if sum(abs(c) for c in vec) == 1 and min(vec) == -1:
            return vec.index(-1) + 1
        return None

    def sigma(self, i, vec):
        """Piecewise-linear analogue of s_i on almost positive roots."""
        j = self._negative_simple(vec)
        if j is not None:
            return tuple(-c for c in vec) if j == i else tuple(vec)
        if not self.is_positive_root(vec):
            raise ValueError(f"{vec} is not an almost positive root")
        return self.reflect(i, vec)

    def sigma_batch(self, i, roots):
        """sigma_i applied in place to each row of roots, an int array of
        almost positive roots: the reflection s_i, but for the negative
        simple roots other than -alpha_i, which it fixes.  The reflection
        sends -alpha_i to alpha_i, as sigma_i does."""
        fixed = (roots[:, i - 1] == 0) & (roots < 0).any(axis=1)
        roots[:, i - 1] -= np.where(fixed, 0, roots @ self.cartan[i - 1])


class SigmaMap:
    """A composite of sigma_i's; word is listed in application order."""

    def __init__(self, rs, word):
        self.rs = rs
        self.word = tuple(word)

    def __call__(self, vec, power=1):
        if power < 0:
            raise ValueError("negative sigma powers are not used here")
        for _ in range(power):
            for i in self.word:
                vec = self.rs.sigma(i, vec)
        return tuple(vec)

    def orbit_decomposition(self):
        """Cycles of the composite on almost positive roots.

        Seeds run through the negatives of the simple roots first, then any
        positive roots not yet visited; each cycle is returned in iteration
        order starting from its seed.
        """
        rs = self.rs
        seeds = [neg_simple(rs, i) for i in range(1, rs.rank + 1)]
        seeds += sorted(rs.positive_roots, reverse=True)
        cap = len(rs.positive_roots) + rs.rank + 2
        seen = set()
        orbits = []
        for seed in seeds:
            if seed in seen:
                continue
            cycle = [seed]
            seen.add(seed)
            cur = self(seed)
            while cur != seed:
                cycle.append(cur)
                seen.add(cur)
                cur = self(cur)
                if len(cycle) > cap:
                    raise RuntimeError("sigma orbit failed to close; wrong word?")
            orbits.append(cycle)
        return orbits


def neg_simple(rs, i):
    return tuple(-c for c in rs.simple(i))


# -- the level-2 dynamics of a schedule -----------------------------------------


def level2_core(model):
    """The level-2 core: the vertex in row t_a of each quiver column of node
    a in the column table, in column order."""
    t_a = model.cartan["t_a"]
    return [model.vid(col, t_a[a]) for col, a in model.columns.items()]


def pl_dynamics(schedule, vertices):
    """The piecewise-linear root dynamics of a verified Schedule on vertices.

    The arrows among the vertices form a simply laced Dynkin diagram, with
    node i the vertex vertices[i-1] and Cartan matrix 2I - |B|.  Each slot
    applies sigma_i for the nodes it mutates; sigma is one period's slots in
    time order.  alpha[(s, v)] is the image of -alpha_i (v = vertices[i-1])
    under the slots s, s+1, ..., -1, for each mutation point (s, v) with
    -h_dual*t <= s < 0, in time order.

    The roots are carried together in one sweep from -h_dual*t up to 0: a
    point's root joins the batch at its time, and each node of each slot
    applies its sigma to the whole batch at once (RootSystem.sigma_batch).

    Returns (sigma, alpha); sigma.rs is the root system.
    """
    B = np.abs(schedule.model.quiver.B[np.ix_(vertices, vertices)])
    if B.max(initial=0) > 1:
        raise ValueError("the arrows among the vertices are not simply laced")
    rs = RootSystem(len(vertices), [(a + 1, b + 1) for a, b in np.argwhere(np.triu(B)).tolist()])
    node = {v: i for i, v in enumerate(vertices, start=1)}
    words = [[node[v] for v in ks if v in node] for ks in schedule.sets]
    start = -schedule.model.cartan["h_dual"] * schedule.t
    s, v = schedule.points(start, 0)
    on = np.isin(v, vertices)
    s, v = s[on], v[on]
    roots = -np.eye(rs.rank, dtype=np.int64)[[node[w] - 1 for w in v.tolist()]]
    for k in range(start, 0):
        batch = roots[: np.searchsorted(s, k, side="right")]  # the points at times up to k
        for i in words[k % len(words)]:
            rs.sigma_batch(i, batch)
    alpha = dict(zip(zip(s.tolist(), v.tolist()), map(tuple, roots.tolist())))
    return SigmaMap(rs, [i for word in words for i in word]), alpha


# -- bracket notation for D_{r+1} roots ---------------------------------------


def a_interval(rank, i, j):
    """[i,j] over A_rank simple roots; zero when i > j."""
    vec = [0] * rank
    for k in range(max(i, 1), j + 1):
        vec[k - 1] = 1
    return tuple(vec)


def format_d_symbol(rank, vec):
    """The symbol of an almost positive D_{rank+1} root: "-a<i>", "[i,j]" or
    "[i]" for a_i + ... + a_j (j <= rank), "{i,j}" for
    (a_i + ... + a_{rank-1}) + (a_j + ... + a_{rank+1}), or "{rank+1}"."""
    c = list(vec)
    if min(c) == -1:
        return f"-a{c.index(-1) + 1}"
    ones = [k + 1 for k in range(rank + 1) if c[k] == 1]
    if c[rank] == 0:
        return f"[{ones[0]},{ones[-1]}]" if len(ones) > 1 else f"[{ones[0]}]"
    if sum(c) == 1:
        return "{" + str(rank + 1) + "}"
    if 2 in c:
        return "{%d,%d}" % (c.index(1) + 1, c.index(2) + 1)
    if c[rank - 1] == 0:
        return "{%d,%d}" % (c.index(1) + 1, rank + 1)
    return "{%d,%d}" % (c.index(1) + 1, rank)


# -- t-vector identities at level 2 -------------------------------------------


def tvector_mismatches(run):
    """Check core-part tropical exponents against -alpha at level 2.

    run must be a TropicalRun at level 2; alpha is the pl_dynamics of its
    schedule on the level-2 core.  Returns a list of offending
    (i, u, got, want) tuples; empty means the identities hold exactly.
    """
    m = run.model
    if m.spec.level != 2:
        raise ValueError("t-vector identities are a level-2 statement")
    core = level2_core(m)
    _, alpha = pl_dynamics(run.schedule, core)
    s, v = np.array(list(alpha)).T
    got, want = run.monomial(v, s)[:, core], -np.array(list(alpha.values()))
    return [
        (core.index(v[i]) + 1, Fraction(int(s[i]), run.t), tuple(got[i].tolist()), tuple(want[i].tolist()))
        for i in np.flatnonzero((got != want).any(1))
    ]


def apart_mismatches_C(run):
    """Check the thin-row (A_{r-1}) exponent formulas for type C at level 2.

    Row 1 of the tall columns follows the pl_dynamics of the schedule on
    that row, and row 3 vanishes under the thin-row projection at the same
    times.  At the mutation points of row 2 and of the circle columns, with
    -h_dual*t <= s < 0, the thin-row projections follow interval formulas,
    and the core projection of rows 1 and 3 of the same column vanishes.
    """
    m = run.model
    r = m.spec.rank
    if m.spec.family != "C" or m.spec.level != 2:
        raise ValueError("this check is specific to type C at level 2")
    keep = [m.vid(i, 1) for i in range(1, r)]
    core = level2_core(m)
    h_dual = m.cartan["h_dual"]
    reads = []  # (row label, s, vertex, projection, want), in report order

    def interval(s, late_start, early_start):
        """-[j, r-1] with j = late_start + s from u = s/2 = -h_dual/2 on,
        and j = early_start - s before."""
        j = late_start + s if s >= -h_dual else early_start - s
        return tuple(-c for c in a_interval(r - 1, j, r - 1))

    _, alpha = pl_dynamics(run.schedule, keep)
    for (s, v), root in alpha.items():
        i = m.position(v)[0]
        reads.append(((i, 1), s, v, keep, tuple(-c for c in root)))
        # row 3 never meets the thin-row generators
        reads.append(((i, 3), s, m.vid(i, 3), keep, (0,) * (r - 1)))
    for s, v in zip(*(a.tolist() for a in run.schedule.points(-h_dual * run.t, 0))):
        col, row = m.position(v)
        if col < r and row == 2:
            reads.append(((col, 2), s, v, keep, interval(s, 2 * r + 2 - col, -1 - col)))
            # row 2 mutates on the parity complementary to rows 1 and 3,
            # whose core projection vanishes at its points
            reads += [((col, k), s, m.vid(col, k), core, (0,) * (r + 1)) for k in (1, 3)]
        elif col >= r:
            reads.append(((col, 1), s, v, keep, interval(s, r + 2, -1 - r)))
    _, times, vertices, _, _ = zip(*reads)
    bad = []
    for (i_row, s, _, cols, want), row in zip(reads, run.monomial(np.array(vertices), np.array(times))):
        got = tuple(row[cols].tolist())
        if got != want:
            bad.append((i_row, Fraction(s, run.t), got, want))
    return bad
