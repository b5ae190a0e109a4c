"""Mutation-equivalence certification by bidirectional search.

Quivers are deduplicated up to isomorphism through a canonical key
(iterative color refinement plus individualization backtracking on the
directed {-1,0,1} graph).  The search itself is a bidirectional BFS over
mutation classes that holds each exchange matrix as int rows and mutates
it in plain Python (mutate_rows).  A node skips the child that undoes its
own move; since mu_k mu_l = mu_l mu_k when B_kl = 0, the child at a lower
vertex that commutes with its move; and, by the pentagon relation, the child
mu_k mu_l mu_k G of a grandparent G when |B_kl| = 1.  An earlier node has
already made each of these, so the skips are exact, and the BFS tree is the
one without them.  A returned path replays from the left quiver with
Quiver.mutate to an isomorphic copy of the right one, and the final
isomorphism is recomputed independently, so neither a spurious key collision
nor a fault of the row mutation can produce a false result.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass

from .quiver import Quiver, find_isomorphism, invert_perm, neighbours, refine_colors

SIZE_CAP = 24
ENTRY_CAP = 32767  # the key stores entries as int16


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


def canonical_key(rows):
    """Permutation-invariant byte encoding of an exchange matrix B given by its
    int rows (n <= 24, entries within +-32767): the int16 bytes of B
    reordered by a discrete coloring."""
    n = len(rows)
    if n > SIZE_CAP:
        raise ValueError(f"canonical_key supports at most {SIZE_CAP} vertices")
    adj = neighbours(rows)
    best = None

    def encode(colors):
        order = sorted(range(n), key=colors.__getitem__)
        try:
            return array("h", [rows[i][j] for i in order for j in order]).tobytes()
        except OverflowError:
            raise ValueError(f"canonical_key supports entries of at most {ENTRY_CAP} in absolute value") from None

    def search(colors):
        nonlocal best
        cells = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        # the branch cell must be chosen isomorphism-invariantly: refinement
        # color values are canonical, so (size, color) is a safe key
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
            search(refine_colors(adj, child))

    search(refine_colors(adj, [0] * n))
    return best


@dataclass
class MutationPath:
    """A replayable vertex sequence from start to (an isomorph of) a target."""

    start: Quiver
    moves: tuple

    def replay(self):
        Q = self.start.relaxed()
        for k in self.moves:
            Q = Q.mutate(k)
        return Q


def search_equivalence(Q1, Q2, depth_cap=12, node_cap=10**6):
    """Bidirectional BFS for a mutation path from Q1 to an isomorph of Q2.

    Returns (MutationPath, isomorphism) or None when the caps are exhausted
    (which proves nothing: the search cannot certify inequivalence).  Raises
    ValueError for quivers of different sizes, which mutation never joins,
    and for a quiver past canonical_key's size or entry bound.
    """
    if Q1.n != Q2.n:
        raise ValueError(f"the quivers have {Q1.n} and {Q2.n} vertices; mutation keeps the vertex count")
    rows1, rows2 = Q1.B.tolist(), Q2.B.tolist()
    key1, key2 = canonical_key(rows1), canonical_key(rows2)

    # store per side: key -> (representative rows, parent key, vertex mutated)
    sides = [
        {key1: (rows1, None, None)},
        {key2: (rows2, None, None)},
    ]
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
        Ma = Quiver(sides[0][meet_key][0], strict=False)
        Mb = Quiver(sides[1][meet_key][0], strict=False)
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
            rep, parent, last = sides[side][key]
            before = None if parent is None else sides[side][parent][2]
            for k in range(len(rep)):
                if k == last:  # mu_k mu_k is the identity: the parent is seen
                    continue
                if last is not None and k < last and rep[last][k] == 0:
                    # mu_k mu_l = mu_l mu_k when B_kl = 0 (math/0104151).  This
                    # node X = mu_l(P), l = last, was inserted by its parent P.
                    # Claim: the class of mu_k X is stored already, so keying
                    # the child would only reach the `continue` below, and the
                    # skip changes no insertion, node count, meet or move.  So
                    # once a node is expanded, all its children's classes are
                    # stored.  Proof by induction over the expansion order,
                    # which is the insertion order:
                    # - P tries its children in increasing k, so it reached
                    #   step k before it inserted X at step l.
                    # - Case 1: P's step k inserted Y = mu_k P.  Y precedes X
                    #   in the frontier, and Y's step l builds
                    #   mu_l mu_k P = mu_k X.  Y does not skip it: l != k is
                    #   not Y's last move, and l > k.
                    # - Case 2: the class of mu_k P was stored as R ~ mu_k P
                    #   before X was inserted: P's step k found it, or it is
                    #   the grandparent (k was P's last move), or P skipped k
                    #   under this rule (the claim for P).  R was expanded
                    #   before X, so its matching child, ~ mu_l mu_k P =
                    #   mu_k X, is stored.
                    continue
                if k == before and abs(rep[last][k]) == 1:
                    # The pentagon: X = mu_l(P) and P = mu_k(G), k being P's
                    # own last move.  When |B_kl| = 1, mu_k mu_l mu_k mu_l
                    # mu_k G is G with k and l swapped (math/0104151), so
                    # mu_k X = mu_k mu_l mu_k G ~ mu_k mu_l G.  The same
                    # claim holds with this skip, by the same induction:
                    # - G was expanded before X, so the class of mu_l G is
                    #   stored as some R of depth at most depth(X) - 1.
                    # - The BFS expands a side layer by layer, so R was
                    #   expanded in an earlier pass than X, and its child
                    #   matching mu_k mu_l G ~ mu_k X is stored.
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
