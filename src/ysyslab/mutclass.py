"""Mutation-equivalence certification by bidirectional search.

The search is a bidirectional BFS over mutation classes.  Each node's
exchange matrix is held as int16 bytes.  A side walks its frontier in
order and gathers the children of consecutive nodes into groups of at most
GROUP_BYTES; each group is mutated (quiver.mutations, one (matrix, vertex)
pair per child), refined and classed as one numpy batch, and a node is
unpacked only when its group is filled.  A node skips the child that undoes
its own move; since mu_k mu_l = mu_l mu_k when B_kl = 0, the child at a
lower vertex that commutes with its move; and, by the pentagon relation,
the child mu_k mu_l mu_k G of a grandparent G when |B_kl| = 1.  An earlier
node has already made each of these, so the skips are exact, and the BFS
tree is the one without them.

Classes are told apart exactly.  Color refinement (refine) gives each
vertex a signature: its color in the high bits plus the sum over its
nonzero entries of a fixed 64-bit mix of (entry, neighbour color).  It
stops for a matrix when its colors repeat or turn discrete, so for a
discrete coloring the signatures are those of the round that made it
discrete.  The coloring is isomorphism-invariant, and a hash collision can
only make it coarser.  A discrete coloring keys its class by the int16
bytes of the matrix relabelled by the coloring, a complete key.  Any other
coloring puts the matrix in the bucket of its sorted signatures, where a
color-respecting backtracking test (quiver.match_colors) finds its class
among the bucket's members; a matrix that opens a bucket takes a new class
with no test.  The keys, signatures and stored matrices of a group are
sliced out of one bytes object per array.  Both sides share one registry
of classes, and the children of a group are deduplicated, met and counted
against node_cap node by node and in increasing k within a node, as if
each were mutated and classed alone; so grouping changes no stored class,
move or outcome, and only the children of the last group past the meet or
node_cap are classed in vain.

A returned path replays from the left quiver with Quiver.mutate to an
isomorphic copy of the right one, and the final isomorphism is recomputed
independently, so no fault of the classing can produce a false result.
canonical_key, the complete canonical form of one matrix by
individualization, gives a key per matrix; the search does not call it.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass

import numpy as np

from .quiver import Quiver, find_isomorphism, invert_perm, match_colors, mutations, neighbours, refine_colors

SIZE_CAP = 24
ENTRY_CAP = 32767  # keys and stored matrices hold entries as int16
#: the int32 children that one classing batch may hold.  32 KiB is 81
#: children at n = 10 and 20 at n = 20.  In three rounds each of
#: bench/run.py --workload suite --seconds 20 on a 2-core machine, 16 KiB
#: gave verdict_s 0.2216-0.2260 s and peak_rss_mb 40.32-40.34 MB, 32 KiB
#: 0.2088-0.2107 s and 40.57-40.61 MB, and 64 KiB 0.2045-0.2082 s and
#: 40.99-41.02 MB: refine's uint64 arrays grow with the batch, and past
#: 32 KiB the memory grows faster than the time falls.
GROUP_BYTES = 32 * 1024

#: multipliers and shifts of the splitmix64 finalizer that signature_mix applies
_MIX = tuple(np.uint64(c) for c in (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 30, 27, 31))
_COLOR_SHIFT = np.uint64(58)  # a signature's color bits; any color below SIZE_CAP fits


def _size_error():
    return ValueError(f"the mutation search supports at most {SIZE_CAP} vertices")


def _entry_error():
    return ValueError(f"the mutation search supports entries of at most {ENTRY_CAP} in absolute value")


def canonical_key(rows):
    """Permutation-invariant byte encoding of an exchange matrix B given by its
    int rows (n <= SIZE_CAP, entries within +-ENTRY_CAP): the int16 bytes of B
    reordered by a discrete coloring."""
    n = len(rows)
    if n > SIZE_CAP:
        raise _size_error()
    if any(max(row) > ENTRY_CAP or -min(row) > ENTRY_CAP for row in rows):
        raise _entry_error()
    adj = neighbours(rows)
    best = None

    def encode(colors):
        order = sorted(range(n), key=colors.__getitem__)
        return array("h", [rows[i][j] for i in order for j in order]).tobytes()

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


def signature_mix(entries, colors):
    """A fixed 64-bit mix of each pair of an integer entry and a neighbour
    color, the colors broadcast against the entries: the splitmix64
    finalizer of entry * K + color, wrapping."""
    k0, k1, k2, s0, s1, s2 = _MIX
    x = entries.astype(np.uint64)
    x *= k0
    x += colors.astype(np.uint64)
    x ^= x >> s0
    x *= k1
    x ^= x >> s1
    x *= k2
    x ^= x >> s2
    return x


def refine(C):
    """Color refinement of each matrix of the batch C, shape (m, n, n).

    A vertex's signature is its color in the top bits plus the sum of
    signature_mix over its row's nonzero entries and their columns'
    colors; its new color is the number of vertices of its matrix with a
    smaller signature.  Starting from one color, this repeats until the
    colors of a matrix repeat or turn discrete, and the matrix then leaves
    the batch: a signature's top bits are its color, so the round after a
    discrete coloring ranks the vertices by their colors again and repeats
    it.  Returns the colors, shape (m, n), and the last signatures: for
    each matrix, those of refining it alone, so for a discrete coloring
    those of the round that made it discrete.
    """
    n = C.shape[1]
    colors = np.zeros(C.shape[:2], dtype=np.int64)
    sigs = np.zeros(C.shape[:2], dtype=np.uint64)
    live = np.arange(len(C))  # the batch rows of the matrices still refined
    nonzero = C != 0
    current = colors
    while True:
        mixed = signature_mix(C, current[:, None, :])
        mixed *= nonzero
        sums = mixed.sum(axis=2, dtype=np.uint64)
        last = (current.astype(np.uint64) << _COLOR_SHIFT) | (sums >> (np.uint64(64) - _COLOR_SHIFT))
        new = (last[:, None, :] < last[:, :, None]).sum(axis=2)
        # a color is the number of smaller signatures, so tied vertices
        # share the lowest rank of their tie, and the colors are distinct
        # exactly when they sum to 0 + 1 + ... + (n - 1)
        settled = (new == current).all(axis=1) | (new.sum(axis=1) == n * (n - 1) // 2)
        if settled.any():
            colors[live[settled]] = new[settled]
            sigs[live[settled]] = last[settled]
            moving = ~settled
            if not moving.any():
                return colors, sigs
            live, C, nonzero, new = live[moving], C[moving], nonzero[moving], new[moving]
        current = new


def unpack(rep, n):
    """The int64 exchange matrix whose int16 bytes are rep."""
    return np.frombuffer(rep, dtype=np.int16).reshape(n, n).astype(np.int64)


def unskipped(B, last, before):
    """The vertices k, in increasing order, whose child mu_k B the search
    classes, for a node B made by the move last from a node made by the
    move before (None where there was no move)."""
    row = None if last is None else B[last].tolist()
    ks = []
    for k in range(len(B)):
        if k == last:  # mu_k mu_k is the identity: the parent is seen
            continue
        if last is not None and k < last and row[k] == 0:
            # mu_k mu_l = mu_l mu_k when B_kl = 0 (math/0104151).  This
            # node X = mu_l(P), l = last, was inserted by its parent P.
            # Claim: the class of mu_k X is stored already, so classing
            # the child would only find it stored, and the skip
            # changes no insertion, node count, meet or move.  So
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
        if k == before and abs(row[k]) == 1:
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
        ks.append(k)
    return ks


@dataclass
class MutationPath:
    """A replayable vertex sequence from start to (an isomorph of) a target."""

    start: Quiver
    moves: tuple

    def replay(self):
        Q = self.start
        for k in self.moves:
            Q = Q.mutate(k)
        return Q


class Search:
    """The state of one bidirectional search from Q1 to Q2 (see
    search_equivalence).

    Classes are numbered in the order either side meets them: keys maps the
    relabelled bytes of a discretely colored class to its number, and
    buckets maps sorted signature bytes to a (number, int16 matrix bytes,
    colors) triple per class with those signatures.  sides[s] maps each
    class that side s stores to (int16 bytes of its representative, parent
    class, vertex mutated).  classified counts the matrices classed,
    batches the classify calls that classed them, and iso_tests the
    isomorphism tests run.
    """

    def __init__(self, Q1, Q2):
        self.Q1, self.Q2, self.n = Q1, Q2, Q1.n
        self.keys = {}
        self.buckets = {}
        self.classes = 0
        self.classified = 0
        self.batches = 0
        self.iso_tests = 0
        self.sides = [{}, {}]

    def classify(self, C):
        """The class number of each matrix of the batch C, in order, or None
        for a matrix with an entry past ENTRY_CAP, which stays unclassed."""
        m, n = len(C), self.n
        over = (np.abs(C) > ENTRY_CAP).any(axis=(1, 2)).tolist()
        colors, sigs = refine(C)
        sigs.sort(axis=1)
        # settled colors are the ranks of the signatures, so they are
        # discrete when the signatures are distinct
        discrete = (sigs[:, 1:] != sigs[:, :-1]).all(axis=1).tolist()
        order = np.argsort(colors, axis=1)
        C16 = C.astype(np.int16)  # wraps only the over-cap matrices, which stay unclassed
        # one bytes object per array, sliced per matrix
        keys = C16[np.arange(m)[:, None, None], order[:, :, None], order[:, None, :]].tobytes()
        reps, color_bytes, sig_bytes = C16.tobytes(), colors.astype(np.uint8).tobytes(), sigs.tobytes()
        size = 2 * n * n
        self.classified += m
        self.batches += 1
        ids = []
        for b in range(m):
            if over[b]:
                ids.append(None)
                continue
            if discrete[b]:
                cid = self.keys.setdefault(keys[b * size : (b + 1) * size], self.classes)
            else:
                bucket = self.buckets.setdefault(sig_bytes[8 * n * b : 8 * n * (b + 1)], [])
                rep, member_colors = reps[b * size : (b + 1) * size], color_bytes[n * b : n * (b + 1)]
                cid = self._bucket_class(bucket, C[b], rep, member_colors)
            if cid == self.classes:
                self.classes += 1
            ids.append(cid)
        return ids

    def _bucket_class(self, bucket, M, rep, colors):
        """The class number of the matrix M, with int16 bytes rep and a
        coloring, as bytes, that is not discrete: that of the member of its
        bucket isomorphic to it, or the next new one, with which M joins the
        bucket."""
        if bucket:
            rows, color_list = M.tolist(), list(colors)
            for cid, member, member_colors in bucket:
                self.iso_tests += 1
                if match_colors(rows, unpack(member, self.n).tolist(), color_list, list(member_colors)) is not None:
                    return cid
        bucket.append((self.classes, rep, colors))
        return self.classes

    def path_to_root(self, side, cid):
        store = self.sides[side]
        moves = []
        while True:
            _, parent, k = store[cid]
            if parent is None:
                return list(reversed(moves))
            moves.append(k)
            cid = parent

    def stitch(self, meet):
        pa = self.path_to_root(0, meet)
        pb = self.path_to_root(1, meet)
        Ma = Quiver(unpack(self.sides[0][meet][0], self.n))
        Mb = Quiver(unpack(self.sides[1][meet][0], self.n))
        sigma = find_isomorphism(Ma, Mb)
        if sigma is None:  # a classing fault; treat the meet as spurious
            return None
        inv = invert_perm(sigma)
        moves = tuple(pa) + tuple(inv[k] for k in reversed(pb))
        path = MutationPath(self.Q1, moves)
        iso = find_isomorphism(path.replay(), self.Q2)
        if iso is None:
            return None
        return path, iso

    def run(self, depth_cap, node_cap):
        """(MutationPath, isomorphism), or None when the caps are exhausted."""
        n = self.n
        if n > SIZE_CAP:
            raise _size_error()
        roots = [self.classify(Q.B[None])[0] for Q in (self.Q1, self.Q2)]
        if None in roots:
            raise _entry_error()
        for store, Q, cid in zip(self.sides, (self.Q1, self.Q2), roots):
            store[cid] = (Q.B.astype(np.int16).tobytes(), None, None)
        frontiers = [deque([roots[0]]), deque([roots[1]])]
        depths = [0, 0]
        nodes = 2

        if roots[0] == roots[1]:
            result = self.stitch(roots[0])
            if result is not None:
                return result

        while any(frontiers):
            side = 0 if (frontiers[0] and (not frontiers[1] or len(frontiers[0]) <= len(frontiers[1]))) else 1
            if depths[side] >= depth_cap:
                if depths[1 - side] >= depth_cap or not frontiers[1 - side]:
                    return None
                side = 1 - side
            depths[side] += 1
            store, other = self.sides[side], self.sides[1 - side]
            nxt = deque()
            for group in self._groups(store, frontiers[side]):
                parents = np.frombuffer(b"".join(rep for _, rep, _ in group), dtype=np.int16)
                # int32 holds every child of an int16 node: one of the two
                # products is 0, so |entry| <= 32767 + 32767**2 < 2**31
                C = mutations(parents.reshape(-1, n, n).astype(np.int32), [k for _, _, k in group])
                # one child at a time, node by node and in increasing k, as
                # if each were made alone: an earlier child may meet or
                # reach node_cap before a later one's entry bound counts
                reps, size = C.astype(np.int16).tobytes(), 2 * n * n
                for b, ((cid, _, k), ccid) in enumerate(zip(group, self.classify(C))):
                    if ccid is None:
                        raise _entry_error()
                    if ccid in store:
                        continue
                    store[ccid] = (reps[b * size : (b + 1) * size], cid, k)
                    nodes += 1
                    if ccid in other:
                        result = self.stitch(ccid)
                        if result is not None:
                            return result
                    if nodes > node_cap:
                        return None
                    nxt.append(ccid)
            frontiers[side] = nxt
        return None

    def _groups(self, store, frontier):
        """The children to class of the nodes of frontier, as (node, its
        int16 bytes, k) in node order and then in increasing k, in lists of
        at most GROUP_BYTES of int32 matrices (at least one child).  Each
        node is unpacked when its group is filled."""
        n = self.n
        room = max(1, GROUP_BYTES // (4 * n * n))
        group = []
        for cid in frontier:
            rep, parent, last = store[cid]
            B = np.frombuffer(rep, dtype=np.int16).reshape(n, n)
            for k in unskipped(B, last, None if parent is None else store[parent][2]):
                group.append((cid, rep, k))
                if len(group) == room:
                    yield group
                    group = []
        if group:
            yield group


def search_equivalence(Q1, Q2, depth_cap=12, node_cap=10**6):
    """Bidirectional BFS for a mutation path from Q1 to an isomorph of Q2.

    Returns (MutationPath, isomorphism) or None when the caps are exhausted
    (which proves nothing: the search cannot certify inequivalence).  Raises
    ValueError for quivers of different sizes, which mutation never joins,
    and for a quiver of more than SIZE_CAP = 24 vertices or with an entry
    past +-ENTRY_CAP = +-32767, the int16 bound of its stored matrices.
    """
    if Q1.n != Q2.n:
        raise ValueError(f"the quivers have {Q1.n} and {Q2.n} vertices; mutation keeps the vertex count")
    return Search(Q1, Q2).run(depth_cap, node_cap)
