import numpy as np
import pytest

from tests.conftest import CASES, cached_schedule, key_quivers
from tests.oracle import (
    composite_mutate,
    exhaustive_isomorphism,
    fz_mutate,
    matrix_refine_colors,
    quiver_from_json,
)
from ysyslab.quiver import (
    Quiver,
    find_isomorphism,
    invert_perm,
    mutations,
    neighbours,
    refine_colors,
)


def random_skew(rng, n):
    B = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            B[i, j] = rng.integers(-1, 2)
            B[j, i] = -B[i, j]
    return Quiver(B)


def path_quiver(arrows, n):
    B = np.zeros((n, n), dtype=np.int64)
    for i, j in arrows:
        B[i, j] = 1
        B[j, i] = -1
    return Quiver(B)


def test_mutation_is_involution_randomized():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        Q = random_skew(rng, n)
        k = int(rng.integers(0, n))
        Qk = Q.mutate(k)
        assert np.array_equal(Qk.B, -Qk.B.T)
        assert Qk.mutate(k) == Q


def test_mutation_matches_entrywise_rule():
    # Quiver.mutate is the one-vertex composite mutation; it must be the
    # entrywise Fomin-Zelevinsky rule, multiple arrows included
    rng = np.random.default_rng(5)
    for _ in range(300):
        n = int(rng.integers(1, 8))
        B = np.triu(rng.integers(-2, 3, (n, n)), 1)
        Q = Quiver(B - B.T)
        for k in range(n):
            assert np.array_equal(Q.mutate(k).B, fz_mutate(Q.B.tolist(), k)), (Q.B, k)


def test_mutation_hand_example():
    # arrows 1->2, 2->3; mutating at the middle reverses both and closes a cycle
    Q = path_quiver([(0, 1), (1, 2)], 3)
    got = Q.mutate(1)
    want = path_quiver([(1, 0), (2, 1), (0, 2)], 3)
    assert got == want


def test_mutate_out_of_range():
    Q = path_quiver([(0, 1)], 2)
    with pytest.raises(IndexError):
        Q.mutate(5)


def test_composite_requires_disconnected():
    Q = path_quiver([(0, 1), (1, 2)], 3)
    with pytest.raises(ValueError, match="adjacent vertices 0 and 1"):
        composite_mutate(Q, [0, 1])
    with pytest.raises(ValueError, match="adjacent vertices 2 and 1"):  # in the order given
        composite_mutate(Q, [2, 0, 1])
    assert composite_mutate(Q, []) == Q
    # the one array update equals the mutations one vertex at a time on
    # every slot set of every schedule
    for case in CASES:
        sched = cached_schedule(*case)
        for ks, B in zip(sched.sets, sched.matrices, strict=True):
            Q = Quiver(B)
            want = Q
            for k in ks:
                want = want.mutate(k)
            assert composite_mutate(Q, ks) == want, case


def test_composite_order_independence_exhaustive():
    from itertools import permutations

    rng = np.random.default_rng(3)
    for _ in range(50):
        n = 9
        Q = random_skew(rng, n)
        free = [v for v in range(n)]
        rng.shuffle(free)
        S = []
        for v in free:
            if not Q.B[v, S].any():
                S.append(v)
            if len(S) == 4:
                break
        results = set()
        for order in permutations(S):
            cur = Q
            for k in order:
                cur = cur.mutate(k)
            results.add(cur)
        assert len(results) == 1


SCALE_CASES = [("C", 6, 6), ("F4", 4, 5), ("G2", 2, 6)]


@pytest.mark.parametrize("family,rank,level", CASES + SCALE_CASES)
def test_set_mutation_matches_composite_oracle(family, rank, level):
    # each slot set mutated as one (1, j) entry of ks gives the oracle's
    # composite mutation of the slot's matrix, and the next slot's matrix
    sched = cached_schedule(family, rank, level)
    period = len(sched.sets)
    for s, (ks, B) in enumerate(zip(sched.sets, sched.matrices, strict=True)):
        got = mutations(B, [ks])
        assert got.shape == (1, *B.shape) and got.dtype == B.dtype
        assert np.array_equal(got[0], composite_mutate(Quiver(B), ks).B)
        assert np.array_equal(got[0], sched.matrices[(s + 1) % period])


def non_adjacent_set(rng, B, j):
    """A random set of j pairwise non-adjacent vertices of B, in random
    order, or None when the greedy draw finds fewer."""
    ks = []
    for k in rng.permutation(len(B)).tolist():
        if not B[k, ks].any():
            ks.append(k)
        if len(ks) == j:
            return ks
    return None


def test_stacked_set_mutation_matches_one_vertex_at_a_time():
    # an int32 stack of skew matrices with multiple arrows, each mutated at
    # its own set of j pairwise non-adjacent vertices, stays int32 and equals
    # the entrywise rule applied one vertex of the set at a time
    rng = np.random.default_rng(23)
    for _ in range(60):
        n = int(rng.integers(2, 11))
        j = int(rng.integers(1, n // 2 + 2))
        stack, sets = [], []
        while len(stack) < 8:
            U = np.triu(rng.integers(-2, 3, (n, n)) * (rng.random((n, n)) < 0.3), 1)
            B = U - U.T
            ks = non_adjacent_set(rng, B, j)
            if ks is not None:
                stack.append(B)
                sets.append(ks)
        stack = np.array(stack, dtype=np.int32)
        before = stack.copy()
        got = mutations(stack, np.array(sets))
        assert got.dtype == np.int32 and got.shape == stack.shape
        assert np.array_equal(stack, before)  # the input is left as it was
        for B, ks, child in zip(stack, sets, got):
            want = B.tolist()
            for k in ks:
                want = fz_mutate(want, k).tolist()
            assert np.array_equal(child, want), (B, ks)


def test_empty_set_mutation_returns_B():
    rng = np.random.default_rng(2)
    for B in (random_skew(rng, 6).B, path_quiver([(0, 1)], 2).B.astype(np.int32)):
        got = mutations(B, [()])
        assert got.dtype == B.dtype and np.array_equal(got, B[None])


def test_opposite_and_perm_identities():
    rng = np.random.default_rng(11)
    Q = random_skew(rng, 6)
    assert Q.opposite().opposite() == Q
    ident = tuple(range(6))
    assert Q.apply_perm(ident) == Q
    p = tuple(rng.permutation(6).tolist())
    assert Q.apply_perm(p).apply_perm(invert_perm(p)) == Q


def test_find_isomorphism_sound_and_complete():
    rng = np.random.default_rng(5)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        Q1 = random_skew(rng, n)
        if rng.random() < 0.6:
            p = tuple(rng.permutation(n).tolist())
            Q2 = Q1.apply_perm(p)
        else:
            Q2 = random_skew(rng, n)
        got = find_isomorphism(Q1, Q2)
        want = exhaustive_isomorphism(Q1, Q2)
        assert (got is None) == (want is None)
        if got is not None:
            assert Q1.apply_perm(got) == Q2


def test_find_isomorphism_self_and_negative():
    Q = path_quiver([(0, 1), (1, 2)], 3)
    p = find_isomorphism(Q, Q)
    assert p is not None and Q.apply_perm(p) == Q
    cycle = path_quiver([(0, 1), (1, 2), (2, 0)], 3)
    assert find_isomorphism(cycle, Q) is None
    # directed path vs its reverse on an asymmetric shape
    fork = path_quiver([(0, 1), (2, 1), (1, 3)], 4)
    assert find_isomorphism(fork, fork.opposite()) is None


def test_refine_colors_matches_matrix_oracle():
    # from the uniform coloring, and after individualizing each vertex of the
    # first non-singleton class, as canonical_key does
    for Q in key_quivers():
        adj, n = neighbours(Q.B.tolist()), Q.n
        colors = refine_colors(adj, [0] * n)
        assert colors == matrix_refine_colors(Q.B, [0] * n)
        shared = [v for v in range(n) if colors.count(colors[v]) > 1]
        for v in [w for w in shared if colors[w] == colors[shared[0]]]:
            child = list(colors)
            child[v] = max(colors) + 1
            assert refine_colors(adj, child) == matrix_refine_colors(Q.B, child)


def test_json_round_trip():
    from tests.conftest import cached_model

    Q = cached_model("G2", 2, 3).quiver
    Q2 = quiver_from_json(Q.to_json())
    assert Q2 == Q
    assert Q2.meta == Q.meta


def test_quiver_keeps_a_double_arrow():
    # mutation makes multiple arrows, and a Quiver holds them
    B = np.zeros((2, 2), dtype=np.int64)
    B[0, 1], B[1, 0] = 2, -2
    assert Quiver(B).B[0, 1] == 2
