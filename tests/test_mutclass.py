from functools import lru_cache

import numpy as np
import pytest

from tests import oracle
from tests.conftest import cached_model, key_quivers
from tests.oracle import matrix_canonical_key, mutate_rows
from ysyslab import mutclass
from ysyslab.builders import FamilySpec, build, involutions
from ysyslab.mutclass import MutationPath, Search, canonical_key, search_equivalence, unpack
from ysyslab.quiver import Quiver, find_isomorphism, mutations
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
        key(Quiver(B))


def test_key_matches_matrix_oracle():
    quivers = key_quivers()
    assert len(quivers) >= 2000
    for Q in quivers:
        assert key(Q) == matrix_canonical_key(Q)


def test_row_mutation_matches_quiver_mutate():
    # the search's batch mutation, the Quiver.mutate that MutationPath.replay
    # keeps as the independent check, and the oracle's row mutation
    for Q in key_quivers():
        rows = Q.B.tolist()
        batch = mutations(Q.B, range(Q.n))
        for k in range(Q.n):
            assert np.array_equal(batch[k], Q.mutate(k).B)
            assert np.array_equal(batch[k], mutate_rows(rows, k))
        assert rows == Q.B.tolist()  # the input is left as it was


def test_stacked_mutation_matches_one_at_a_time():
    # the search mutates a stack of int32 matrices, each at its own vertex,
    # as Quiver.mutate mutates one int64 matrix
    rng = np.random.default_rng(7)
    by_size = {}
    for Q in key_quivers():
        by_size.setdefault(Q.n, []).append(Q)
    for quivers in by_size.values():
        ks = rng.integers(quivers[0].n, size=len(quivers)).tolist()
        stack = np.array([Q.B for Q in quivers], dtype=np.int32)
        got = mutations(stack, ks)
        assert got.dtype == np.int32
        for Q, k, child in zip(quivers, ks, got):
            assert np.array_equal(child, Q.mutate(k).B)


def constant_mix(entries, colors):
    return np.full(np.broadcast_shapes(entries.shape, colors.shape), 1 << 32, dtype=np.uint64)


@pytest.mark.parametrize("constant", [False, True], ids=["hashed", "constant-mix"])
def test_classes_match_canonical_keys(constant, monkeypatch):
    # one batch per size: two matrices share a class exactly when they
    # share a canonical key, whether the refinement was discrete or not;
    # with a constant signature mix every matrix takes the isomorphism test
    if constant:
        monkeypatch.setattr(mutclass, "signature_mix", constant_mix)
    by_size = {}
    for Q in key_quivers():
        by_size.setdefault(Q.n, []).append(Q)
    tests = 0
    for quivers in by_size.values():
        search = Search(quivers[0], quivers[0])
        ids = search.classify(np.array([Q.B for Q in quivers]))
        first = {}
        for Q, cid in zip(quivers, ids):
            assert first.setdefault(key(Q), cid) == cid
        assert len(set(ids)) == len(first)
        tests += search.iso_tests
    assert tests > 100  # control: many matrices take the isomorphism test


def refine_alone(M, stop_discrete=True):
    """The colors and signatures of color refinement of the one matrix M,
    recomputed every round until no color changes or, with stop_discrete,
    until the colors are distinct, and the rounds taken."""
    colors = np.zeros(len(M), dtype=np.int64)
    rounds = 0
    while True:
        rounds += 1
        mixed = mutclass.signature_mix(M, colors[None, :]) * (M != 0)
        sums = mixed.sum(axis=1, dtype=np.uint64)
        shift = mutclass._COLOR_SHIFT
        sigs = (colors.astype(np.uint64) << shift) | (sums >> (np.uint64(64) - shift))
        new = (sigs[None, :] < sigs[:, None]).sum(axis=1)
        if (new == colors).all() or (stop_discrete and len(set(new.tolist())) == len(M)):
            return new, sigs, rounds
        colors = new


@pytest.mark.parametrize("constant", [False, True], ids=["hashed", "constant-mix"])
def test_refine_batch_matches_each_alone(constant, monkeypatch):
    # a matrix leaves refine's batch once its colors repeat or turn
    # discrete; the colors and signatures of the batch stay bit for bit
    # those of refining each matrix alone, while other matrices of the batch
    # go on refining, and the colors are those of refining until a round
    # repeats them
    if constant:
        monkeypatch.setattr(mutclass, "signature_mix", constant_mix)
    by_size = {}
    for Q in key_quivers():
        by_size.setdefault(Q.n, [np.zeros((Q.n, Q.n), dtype=np.int64)]).append(Q.B)
    rounds, early = set(), 0
    for mats in by_size.values():
        batch = np.array(mats)
        colors, sigs = mutclass.refine(batch)
        assert (colors.dtype, sigs.dtype) == (np.int64, np.uint64)
        for M, got_colors, got_sigs in zip(batch, colors, sigs):
            want_colors, want_sigs, taken = refine_alone(M)
            assert np.array_equal(got_colors, want_colors)
            assert np.array_equal(got_sigs, want_sigs)
            repeated, _, taken_to_repeat = refine_alone(M, stop_discrete=False)
            assert np.array_equal(got_colors, repeated)
            rounds.add(taken)
            early += taken < taken_to_repeat
    # control: the zero matrices settle in the first round and others take
    # more; a constant mix sees only degrees, which settle in the second and
    # are never discrete, while hashed colorings often turn discrete a round
    # before they repeat
    assert min(rounds) == 1 and max(rounds) >= (2 if constant else 3), rounds
    assert (early > 0) != constant, early


def test_key_equality_iff_isomorphic_small_class():
    # expand a small neighbourhood of the mutation class and cross-validate
    start = cached_model("C", 2, 2).quiver
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
    assert final.apply_perm(iso) == Q2


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
    assert path.replay() == Q.mutate(0).mutate(1).mutate(0)


def random_quiver(rng):
    n = int(rng.integers(3, 10))
    U = np.triu(rng.integers(-2, 3, (n, n)), 1)
    return Quiver(U - U.T)


def run_outcome(run):
    try:
        res = run()
    except ValueError as err:
        return str(err)
    return None if res is None else (res[0].moves, tuple(res[1]))


@lru_cache(maxsize=None)
def rep_key(rep, n):
    """The canonical key of the matrix whose int16 bytes are rep."""
    return canonical_key(unpack(rep, n).tolist())


class CountingSearch(Search):
    """A Search that counts the matrices it left unclassed past ENTRY_CAP."""

    over_cap = 0

    def classify(self, C):
        ids = super().classify(C)
        self.over_cap += ids.count(None)
        return ids


def stored_classes(Q1, Q2, depth_cap, node_cap):
    """The outcome of mutclass's search, and per side the set of canonical
    keys of the matrices that side stores, with the Search itself."""
    search = CountingSearch(Q1, Q2)
    got = run_outcome(lambda: search.run(depth_cap, node_cap))
    return got, [{rep_key(rep, Q1.n) for rep, _, _ in side.values()} for side in search.sides], search


def oracle_classes(Q1, Q2, **caps):
    """The outcome of the oracle's search and the keys each side stores."""
    stores = [{}, {}]
    got = run_outcome(lambda: oracle.search_equivalence(Q1, Q2, stores=stores, **caps))
    return got, [set(store) for store in stores]


@lru_cache(maxsize=None)
def cached_oracle_classes(Q1, Q2, depth_cap, node_cap):
    return oracle_classes(Q1, Q2, depth_cap=depth_cap, node_cap=node_cap)


def random_pairs(rng, count, make=random_quiver):
    """count pairs of a random quiver and a relabelled random mutation of it."""
    for _ in range(count):
        Q1 = make(rng)
        Q2 = Q1
        for _ in range(int(rng.integers(0, 9))):
            Q2 = Q2.mutate(int(rng.integers(Q1.n)))
        yield Q1, Q2.apply_perm(rng.permutation(Q1.n).tolist())


def test_pruned_search_matches_reference():
    # the commuting and pentagon skips only drop children whose class is
    # already stored, so the search meets, caps and returns exactly where the
    # unpruned row search does, and each side stores the same classes
    rng = np.random.default_rng(23)
    ends = {"found": 0, "none": 0, "error": 0}
    for Q1, Q2 in random_pairs(rng, 22):
        for depth_cap in (2, 3, 5):
            for node_cap in [*range(2, 61), 10**5]:
                caps = {"depth_cap": depth_cap, "node_cap": node_cap}
                got, stored, _ = stored_classes(Q1, Q2, **caps)
                assert (got, stored) == cached_oracle_classes(Q1, Q2, **caps), caps
                ends["none" if got is None else "error" if isinstance(got, str) else "found"] += 1
    assert min(ends.values()) > 0, ends  # every kind of end is compared


#: GROUP_BYTES patched to one child per batch, and to more than any layer
GROUP_BOUNDS = {"one-child": 1, "whole-layer": 10**9}


def grouping_cases():
    """The five default pairs, uncapped and with node caps that end them
    inside a layer, and the random pairs and depth caps of
    test_pruned_search_matches_reference with every other node cap."""
    cases = []
    for pair in DEFAULT_PAIRS:
        Q1, Q2 = (build(FamilySpec(*side)).quiver for side in pair)
        cases += [(Q1, Q2, 12, node_cap) for node_cap in (4, 10, 100, 1000, 10**6)]
    rng = np.random.default_rng(23)
    for Q1, Q2 in random_pairs(rng, 22):
        cases += [(Q1, Q2, depth_cap, node_cap) for depth_cap in (2, 3, 5) for node_cap in [*range(2, 61, 2), 10**5]]
    return cases


@pytest.mark.parametrize("bound", GROUP_BOUNDS.values(), ids=GROUP_BOUNDS.keys())
def test_grouping_matches_reference(bound, monkeypatch):
    # children are taken in node order and then in increasing k whatever the
    # batch bound, so each search meets, caps and returns where the oracle
    # does, and each side stores the same classes
    monkeypatch.setattr(mutclass, "GROUP_BYTES", bound)
    ends = {"found": 0, "none": 0}
    for Q1, Q2, depth_cap, node_cap in grouping_cases():
        got, stored, search = stored_classes(Q1, Q2, depth_cap, node_cap)
        assert (got, stored) == cached_oracle_classes(Q1, Q2, depth_cap, node_cap), (depth_cap, node_cap)
        if bound == 1:
            assert search.batches == search.classified
        else:  # the two roots, then one batch per layer
            assert search.batches <= 2 + 2 * depth_cap
        if not isinstance(got, str):
            ends["none" if got is None else "found"] += 1
    # control: searches that find a path and searches that node_cap ends are
    # both compared; with a whole layer per batch, node_cap ends a search
    # inside that batch unless it falls on the layer's last child
    assert min(ends.values()) > 0, ends


SMALL_PAIRS = [pair for pair in DEFAULT_PAIRS if pair != (("F4", 4, 2), ("D", 5, 3))]


def test_search_exact_when_signatures_collide(monkeypatch):
    # with a constant signature mix a signature only counts the vertex's
    # neighbours, so the coloring is the degree partition, which is never
    # discrete: every matrix takes a bucket and the isomorphism test, and
    # the outcomes and the classes each side stores stay the oracle's
    monkeypatch.setattr(mutclass, "signature_mix", constant_mix)
    cases = [((build(FamilySpec(*a)).quiver, build(FamilySpec(*b)).quiver), (12, 10**6)) for a, b in SMALL_PAIRS]
    rng = np.random.default_rng(23)
    cases += [(pair, (depth_cap, 10**5)) for pair in random_pairs(rng, 22) for depth_cap in (2, 3, 5)]
    tests = 0
    for (Q1, Q2), (depth_cap, node_cap) in cases:
        got, stored, search = stored_classes(Q1, Q2, depth_cap, node_cap)
        assert (got, stored) == oracle_classes(Q1, Q2, depth_cap=depth_cap, node_cap=node_cap)
        assert not search.keys  # no coloring was discrete
        tests += search.iso_tests
    assert tests > 1000


def sparse_quiver(rng):
    n = int(rng.integers(3, 10))
    U = np.triu(rng.choice([-1, 0, 0, 1], (n, n)), 1)
    return Quiver(U - U.T)


def test_entry_cap_error_in_k_order(monkeypatch):
    # an over-cap child raises only when the loop reaches it in k order, as
    # in the oracle, which keys one child at a time: an earlier child of the
    # same batch may meet or reach node_cap first
    assert min(entry_cap_ends(monkeypatch).values()) > 0


@pytest.mark.parametrize("bound", GROUP_BOUNDS.values(), ids=GROUP_BOUNDS.keys())
def test_entry_cap_error_in_k_order_at_group_bound(bound, monkeypatch):
    monkeypatch.setattr(mutclass, "GROUP_BYTES", bound)
    ends = entry_cap_ends(monkeypatch)
    unreached = ends.pop("an over-cap child was left unreached")
    assert min(ends.values()) > 0, ends
    # a batch of one child classes no child that the loop does not reach
    assert (unreached > 0) == (bound > 1)


def entry_cap_ends(monkeypatch):
    """How the searches of random sparse pairs end, each compared with the
    oracle's, with ENTRY_CAP patched to 1."""
    monkeypatch.setattr(mutclass, "ENTRY_CAP", 1)
    message = "the mutation search supports entries of at most 1 in absolute value"
    rng = np.random.default_rng(29)
    ends = {"found": 0, "none": 0, "error": 0, "an over-cap child was left unreached": 0}
    for Q1, Q2 in random_pairs(rng, 22, sparse_quiver):
        for depth_cap in (2, 3):
            for node_cap in [*range(2, 41), 10**5]:
                caps = {"depth_cap": depth_cap, "node_cap": node_cap}
                got, stored, search = stored_classes(Q1, Q2, **caps)
                assert (got, stored) == oracle_classes(Q1, Q2, **caps), caps
                if isinstance(got, str):
                    assert got == message
                    ends["error"] += 1
                    continue
                ends["none" if got is None else "found"] += 1
                # every over-cap child reached raises, so one classed here
                # was left unreached in its batch
                ends["an over-cap child was left unreached"] += search.over_cap > 0
    return ends


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


# the path each default pair finds, the classes each side stores when it
# returns, the matrices it classes and the batches it classes them in.  A
# node classes neither the child that undoes its own move (mu_k mu_k is the
# identity), nor a child at a lower vertex k with B_kl = 0 for its own move
# l (mu_k mu_l = mu_l mu_k, so an earlier node has made it), nor the child
# at its parent's own move k when |B_kl| = 1 (the pentagon).  Without the
# pentagon skip F4:4:2~D:5:3 keys 3504 matrices and G2:2:3~C:3:3 249 one at
# a time, with the same moves; without the commuting skip too, 5922 and
# 345; without any skip F4:4:2~D:5:3 keys 6578.  The children of several
# nodes are classed as one batch of at most GROUP_BYTES, so the count
# includes the children after the meet in the batch where the search
# returns: one at a time, the same searches keyed 19 / 3127 / 12 / 5 / 248
# matrices, and one batch per node classed 25 / 3131 / 20 / 10 / 258 in
# 5 / 660 / 4 / 3 / 29 batches.  The two roots are a batch each.
DEFAULT_PAIR_SEARCHES = {
    "C:3:2~D:4:3": ((7, 4, 6), (7, 6), 44, 5),
    "F4:4:2~D:5:3": ((7, 0, 2, 6, 7, 1, 8, 6, 4), (730, 1397), 3178, 46),
    "C:2:3~A:3:4": ((0, 4), (4, 2), 20, 4),
    "G2:2:2~C:3:2": ((2,), (4, 1), 10, 3),
    "G2:2:3~C:3:3": ((2, 1, 3, 12, 7), (134, 95), 264, 10),
}


def pair_id(pair):
    return "~".join(":".join(map(str, side)) for side in pair)


def recording_searches(monkeypatch):
    """The list that each Search made by search_equivalence joins."""
    searches = []

    class Recording(Search):
        def __init__(self, Q1, Q2):
            super().__init__(Q1, Q2)
            searches.append(self)

    monkeypatch.setattr(mutclass, "Search", Recording)
    return searches


@pytest.mark.parametrize("pair", DEFAULT_PAIRS, ids=pair_id)
def test_default_pair_moves_and_key_calls(pair, monkeypatch):
    searches = recording_searches(monkeypatch)
    Q1, Q2 = (build(FamilySpec(*side)).quiver for side in pair)
    path, _ = search_equivalence(Q1, Q2)
    (search,) = searches
    stored = tuple(map(len, search.sides))
    assert (path.moves, stored, search.classified, search.batches) == DEFAULT_PAIR_SEARCHES[pair_id(pair)]
