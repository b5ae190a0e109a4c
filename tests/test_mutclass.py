import numpy as np
import pytest

from tests import oracle
from tests.conftest import cached_model, key_quivers
from tests.oracle import matrix_canonical_key
from ysyslab import mutclass
from ysyslab.builders import FamilySpec, build, involutions
from ysyslab.mutclass import MutationPath, canonical_key, mutate_rows, search_equivalence
from ysyslab.quiver import Quiver, find_isomorphism
from ysyslab.suite import DEFAULT_PAIRS


def key(Q):
    return canonical_key(Q.B.tolist())


def arrow_quiver(arrows, n):
    B = np.zeros((n, n), dtype=np.int64)
    for i, j in arrows:
        B[i, j] = 1
        B[j, i] = -1
    return Quiver(B)


def test_key_invariant_under_permutation():
    rng = np.random.default_rng(1)
    quivers = [
        cached_model("C", 2, 2).quiver,
        cached_model("G2", 2, 2).quiver,
        cached_model("F4", 4, 2).quiver,
    ]
    for Q in quivers:
        want = key(Q)
        for _ in range(333):
            p = tuple(rng.permutation(Q.n).tolist())
            assert key(Q.apply_perm(p)) == want


def test_key_separates_orientation():
    # a 3-cycle with a pendant arrow is chiral: its opposite is not isomorphic
    Q = arrow_quiver([(0, 1), (1, 2), (2, 0), (2, 3)], 4)
    assert key(Q) != key(Q.opposite())
    assert find_isomorphism(Q, Q.opposite()) is None


def test_key_of_column_cycled_quiver():
    m = cached_model("G2", 2, 2)
    nu = involutions(m)["nu_231"]
    assert key(m.quiver.apply_perm(nu)) == key(m.quiver)


def test_key_size_cap():
    with pytest.raises(ValueError):
        key(Quiver(np.zeros((30, 30), dtype=np.int64)))


def test_key_entry_cap():
    # the key stores int16 entries; a wider one must not wrap into another class
    B = np.zeros((3, 3), dtype=np.int64)
    B[0, 1], B[1, 0] = 40000, -40000
    with pytest.raises(ValueError, match="32767"):
        key(Quiver(B, strict=False))


def test_key_matches_matrix_oracle():
    quivers = key_quivers()
    assert len(quivers) >= 2000
    for Q in quivers:
        assert key(Q) == matrix_canonical_key(Q)


def test_row_mutation_matches_quiver_mutate():
    # the search's plain-Python mutation against the numpy Quiver.mutate that
    # MutationPath.replay keeps as the independent check
    for Q in key_quivers():
        rows = Q.B.tolist()
        for k in range(Q.n):
            assert np.array_equal(mutate_rows(rows, k), Q.mutate(k).B)
        assert rows == Q.B.tolist()  # the input rows are left as they were


def test_key_equality_iff_isomorphic_small_class():
    # expand a small neighbourhood of the mutation class and cross-validate
    start = cached_model("C", 2, 2).quiver.relaxed()
    seen = [start]
    frontier = [start]
    for _ in range(2):
        nxt = []
        for Q in frontier:
            for k in range(Q.n):
                nxt.append(Q.mutate(k))
        frontier = nxt
        seen.extend(nxt)
    rng = np.random.default_rng(3)
    idx = rng.integers(0, len(seen), (80, 2))
    for a, b in idx:
        same_key = key(seen[a]) == key(seen[b])
        same_iso = find_isomorphism(seen[a], seen[b]) is not None
        assert same_key == same_iso


def test_self_search_gives_empty_path():
    Q = cached_model("C", 2, 2).quiver
    path, iso = search_equivalence(Q, Q)
    assert path.moves == ()
    assert Q.apply_perm(iso) == Q


def test_search_finds_small_pair_and_replays():
    Q1 = cached_model("G2", 2, 2).quiver
    Q2 = cached_model("C", 3, 2).quiver
    path, iso = search_equivalence(Q1, Q2, depth_cap=6, node_cap=10**5)
    final = path.replay()
    assert final.apply_perm(iso) == Q2.relaxed()


def test_search_respects_caps():
    Q1 = cached_model("C", 2, 3).quiver
    Q2 = build(FamilySpec("A", 3, 4)).quiver
    assert search_equivalence(Q1, Q2, depth_cap=0) is None
    found = search_equivalence(Q1, Q2, depth_cap=4, node_cap=10**5)
    assert found is not None


def test_mismatched_sizes():
    # no mutation path joins quivers of different sizes; the caps play no part
    Q1 = cached_model("C", 2, 2).quiver
    Q2 = cached_model("C", 3, 2).quiver
    with pytest.raises(ValueError, match="the quivers have 5 and 8 vertices; mutation keeps the vertex count"):
        search_equivalence(Q1, Q2)


def test_replay_standalone():
    Q = cached_model("C", 2, 2).quiver
    path = MutationPath(Q, (0, 1, 0))
    assert path.replay() == Q.relaxed().mutate(0).mutate(1).mutate(0)


def random_quiver(rng):
    n = int(rng.integers(3, 10))
    U = np.triu(rng.integers(-2, 3, (n, n)), 1)
    return Quiver(U - U.T, strict=False)


def search_outcome(search, Q1, Q2, **caps):
    try:
        res = search(Q1, Q2, **caps)
    except ValueError as err:
        return str(err)
    return None if res is None else (res[0].moves, tuple(res[1]))


def test_pruned_search_matches_reference(monkeypatch):
    # the commuting and pentagon skips only drop children whose class is
    # already stored, so the search meets, caps and returns exactly where the
    # unpruned one does, and computes the same set of distinct keys
    keys = {mutclass: set(), oracle: set()}

    def recording(module):
        def wrapped(rows):
            key = canonical_key(rows)
            keys[module].add(key)
            return key

        return wrapped

    for module in keys:
        monkeypatch.setattr(module, "canonical_key", recording(module))
    rng = np.random.default_rng(23)
    ends = {"found": 0, "none": 0, "error": 0}
    for _ in range(22):
        Q1 = random_quiver(rng)
        Q2 = Q1
        for _ in range(int(rng.integers(0, 9))):
            Q2 = Q2.mutate(int(rng.integers(Q1.n)))
        Q2 = Q2.apply_perm(rng.permutation(Q1.n).tolist())
        for depth_cap in (2, 3, 5):
            for node_cap in [*range(2, 61), 10**5]:
                caps = {"depth_cap": depth_cap, "node_cap": node_cap}
                for seen in keys.values():
                    seen.clear()
                got = search_outcome(search_equivalence, Q1, Q2, **caps)
                assert got == search_outcome(oracle.search_equivalence, Q1, Q2, **caps), caps
                assert keys[mutclass] == keys[oracle], caps
                ends["none" if got is None else "error" if isinstance(got, str) else "found"] += 1
    assert min(ends.values()) > 0, ends  # every kind of end is compared


def test_commuting_mutations_agree():
    # mu_k mu_l = mu_l mu_k when B_kl = 0, the identity the commuting skip rests on
    rng = np.random.default_rng(5)
    adjacent_differ = False
    for _ in range(200):
        B = random_quiver(rng).B.tolist()
        for k in range(len(B)):
            for l in range(k):
                same = mutate_rows(mutate_rows(B, l), k) == mutate_rows(mutate_rows(B, k), l)
                if B[k][l] == 0:
                    assert same, (B, k, l)
                elif not same:
                    adjacent_differ = True
    assert adjacent_differ  # control: the identity needs B_kl = 0


def test_pentagon_mutations_swap():
    # mu_k mu_l mu_k mu_l mu_k B is B with k and l swapped when |B_kl| = 1,
    # the identity the pentagon skip rests on
    rng = np.random.default_rng(6)
    other_differ = False
    for _ in range(200):
        B = random_quiver(rng).B.tolist()
        n = len(B)
        for k in range(n):
            for l in range(n):
                if k == l:
                    continue
                M = B
                for v in (k, l, k, l, k):
                    M = mutate_rows(M, v)
                swap = list(range(n))
                swap[k], swap[l] = l, k
                same = [list(row) for row in M] == [[B[i][j] for j in swap] for i in swap]
                if abs(B[k][l]) == 1:
                    assert same, (B, k, l)
                elif not same:
                    other_differ = True
    assert other_differ  # control: the identity needs |B_kl| = 1


# the path each default pair finds, and its canonical_key calls.  A node keys
# neither the child that undoes its own move (mu_k mu_k is the identity), nor
# a child at a lower vertex k with B_kl = 0 for its own move l (mu_k mu_l =
# mu_l mu_k, so an earlier node has made it), nor the child at its parent's
# own move k when |B_kl| = 1 (the pentagon).  Without the pentagon skip
# F4:4:2~D:5:3 makes 3504 calls and G2:2:3~C:3:3 249, with the same moves;
# without the commuting skip too, 5922 and 345; without any skip
# F4:4:2~D:5:3 makes 6578.
DEFAULT_PAIR_SEARCHES = {
    "C:3:2~D:4:3": ((7, 4, 6), 19),
    "F4:4:2~D:5:3": ((7, 0, 2, 6, 7, 1, 8, 6, 4), 3127),
    "C:2:3~A:3:4": ((0, 4), 12),
    "G2:2:2~C:3:2": ((2,), 5),
    "G2:2:3~C:3:3": ((2, 1, 3, 12, 7), 248),
}


def pair_id(pair):
    return "~".join(":".join(map(str, side)) for side in pair)


@pytest.mark.parametrize("pair", DEFAULT_PAIRS, ids=pair_id)
def test_default_pair_moves_and_key_calls(pair, monkeypatch):
    keyed = []
    real = mutclass.canonical_key
    monkeypatch.setattr(mutclass, "canonical_key", lambda Q: keyed.append(1) or real(Q))
    Q1, Q2 = (build(FamilySpec(*side)).quiver for side in pair)
    path, _ = search_equivalence(Q1, Q2)
    assert (path.moves, len(keyed)) == DEFAULT_PAIR_SEARCHES[pair_id(pair)]
