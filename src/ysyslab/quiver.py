"""Exact quivers as skew-symmetric integer matrices, with mutation,
isomorphism testing, and vertex-permutation actions.

The builders make simple arrows (entries in {-1, 0, 1}); a Quiver also holds
the multiple arrows that mutation makes.  The arrow convention is fixed globally:

    i --> j   <=>   B[i, j] > 0
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

FILL_CIRCLE = "circle"
FILL_BULLET = "bullet"


@dataclass(frozen=True)
class Vertex:
    """Vertex bookkeeping: grid position plus figure decorations.

    col/row are the 1-based column and row indices of the defining figure;
    fill is "circle" or "bullet"; tag is a sign "+"/"-" or one of the

    region labels "I".."VI" (empty string when the vertex carries none).
    """

    col: int
    row: int
    fill: str = FILL_BULLET
    tag: str = ""


class Quiver:
    """Immutable quiver on n vertices with the skew-symmetric integer
    exchange matrix B."""

    def __init__(self, B, meta=None):
        B = np.asarray(B, dtype=np.int64)
        if B.ndim != 2 or B.shape[0] != B.shape[1]:
            raise ValueError("B must be a square matrix")
        self.n = B.shape[0]
        self.B = B
        self.B.setflags(write=False)
        if meta is None:
            meta = tuple(Vertex(0, k + 1) for k in range(self.n))
        self.meta = tuple(meta)
        if len(self.meta) != self.n:
            raise ValueError("meta length must equal vertex count")
        if not np.array_equal(self.B, -self.B.T):
            raise ValueError("B is not skew-symmetric")

    # -- basic queries ----------------------------------------------------

    def arrows(self):
        """List of (i, j) with an arrow i -> j."""
        src, dst = np.nonzero(self.B > 0)
        return list(zip(src.tolist(), dst.tolist()))

    def __eq__(self, other):
        return isinstance(other, Quiver) and np.array_equal(self.B, other.B)

    def __hash__(self):
        return hash(self.B.tobytes())

    # -- mutation ----------------------------------------------------------

    def mutate(self, k):
        """Fomin-Zelevinsky matrix mutation at vertex k (see mutations)."""
        if not 0 <= k < self.n:
            raise IndexError(f"vertex {k} out of range for n={self.n}")
        return Quiver(mutations(self.B, (k,))[0], self.meta)

    # -- symmetry actions --------------------------------------------------

    def opposite(self):
        return Quiver(-self.B, self.meta)

    def apply_perm(self, perm):
        """Relabel vertices by the bijection perm: B'[p(i), p(j)] = B[i, j]."""
        p = np.asarray(list(perm), dtype=np.int64)
        if sorted(p.tolist()) != list(range(self.n)):
            raise ValueError("perm is not a bijection on vertex indices")
        Bp = np.zeros_like(self.B)
        Bp[np.ix_(p, p)] = self.B
        meta = [None] * self.n
        for i in range(self.n):
            meta[p[i]] = self.meta[i]
        return Quiver(Bp, meta)

    # -- serialization -----------------------------------------------------

    def to_json(self):
        return json.dumps(
            {
                "n": self.n,
                "edges": self.arrows(),
                "meta": [
                    {"col": v.col, "row": v.row, "fill": v.fill, "tag": v.tag}
                    for v in self.meta
                ],
            }
        )


def mutations(B, ks):
    """The Fomin-Zelevinsky mutation of an exchange matrix at each entry of
    ks, as one (len(ks), n, n) array of B's dtype.  ks lists one vertex per
    matrix, or is an (m, j) array of sets of j pairwise non-adjacent
    vertices, one set per matrix; mutations at non-adjacent vertices
    commute, so a set is one update.  With P the columns (n, j) and R the
    rows (j, n) at the set, the result is B + [P]+[R]+ - [-P]+[-R]+ with the
    set's rows then set to -R and its columns to -P.  Adjacency is not
    checked.  B is one (n, n) matrix, mutated at every entry of ks, or a
    stack (len(ks), n, n) whose matrix b is mutated at ks[b].  B is not
    modified."""
    ks = np.asarray(ks, dtype=np.intp)
    if ks.ndim == 1:
        ks = ks[:, None]
    B = np.broadcast_to(B, (len(ks),) + B.shape[-2:])
    at = np.arange(len(ks))[:, None]
    Pt, R = B[at, :, ks], B[at, ks, :]  # both (m, j, n): Pt[b, c] is column ks[b, c]
    P = Pt.transpose(0, 2, 1)
    out = B + np.maximum(P, 0) @ np.maximum(R, 0)
    out -= np.maximum(-P, 0) @ np.maximum(-R, 0)
    out[at, ks, :] = -R
    out[at, :, ks] = -Pt
    return out


def invert_perm(p):
    inv = [0] * len(p)
    for i, pi in enumerate(p):
        inv[pi] = i
    return tuple(inv)


def neighbours(rows):
    """Per row of the int rows of B (B.tolist()), the (column, entry) pairs of
    its nonzero entries."""
    return [[(j, b) for j, b in enumerate(row) if b] for row in rows]


def refine_colors(adj, colors):
    """Iterative color refinement on the directed graph with neighbour lists
    adj (see neighbours).  New colors are the ranks of the signatures (color,
    sorted neighbour (color, entry) pairs), so isomorphic inputs refine to
    isomorphic colorings.  colors must be ranks in range(n).  A vertex alone in
    its color class has the signature (color, ()), since its color decides its
    rank, and a discrete coloring is final."""
    n = len(colors)
    while True:
        size = [0] * n
        for c in colors:
            size[c] += 1
        sigs = [
            (c, tuple(sorted([(colors[j], b) for j, b in nbrs])) if size[c] > 1 else ())
            for c, nbrs in zip(colors, adj)
        ]
        lookup = {s: c for c, s in enumerate(sorted(set(sigs)))}
        new = [lookup[s] for s in sigs]
        if len(lookup) == n or new == colors:
            return new
        colors = new


def find_isomorphism(Q1, Q2):
    """Permutation p with Q1.apply_perm(p) == Q2, or None.

    Backtracking over refinement color classes (see match_colors); intended
    for the n <= 40 quivers this project builds.
    """
    if Q1.n != Q2.n:
        return None
    n = Q1.n
    B1, B2 = Q1.B.tolist(), Q2.B.tolist()
    c1 = refine_colors(neighbours(B1), [0] * n)
    c2 = refine_colors(neighbours(B2), [0] * n)
    if sorted(c1) != sorted(c2):
        return None
    return match_colors(B1, B2, c1, c2)


def match_colors(B1, B2, c1, c2):
    """Permutation p with B2[p[i]][p[j]] == B1[i][j] and c2[p[i]] == c1[i]
    for all i, j, or None, for the int rows B1, B2 of two exchange matrices
    and isomorphism-invariant colorings c1, c2 of their vertices.

    Backtracking that maps the vertices of B1 in order of ascending color
    class size, each to a free vertex of its color in B2 whose entries
    agree with those already placed; it stops at the first complete map.
    """
    n = len(B1)
    class_size = {c: c1.count(c) for c in set(c1)}
    order = sorted(range(n), key=lambda i: (class_size[c1[i]], c1[i], i))
    candidates = [[j for j in range(n) if c2[j] == c1[i]] for i in order]

    assignment = [-1] * n  # B1 vertex -> B2 vertex
    used = [False] * n

    def place(pos):
        if pos == n:
            return True
        i = order[pos]
        for j in candidates[pos]:
            if used[j]:
                continue
            ok = True
            for qpos in range(pos):
                i2 = order[qpos]
                j2 = assignment[i2]
                if B1[i][i2] != B2[j][j2] or B1[i2][i] != B2[j2][j]:
                    ok = False
                    break
            if ok:
                assignment[i] = j
                used[j] = True
                if place(pos + 1):
                    return True
                assignment[i] = -1
                used[j] = False
        return False

    if not place(0):
        return None
    return tuple(assignment)
