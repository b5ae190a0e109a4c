"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with `pytest -s tests/test_acceptance.py` to see one line per criterion.
"""

from fractions import Fraction

import numpy as np

from tests.conftest import CASES, cached_dynamics, cached_numeric, cached_schedule, cached_tropical
from tests.oracle import D4_OUTER_EDGES, composite_mutate, sigma, total_points
from ysyslab.builders import FamilySpec, build, dynkin_edges
from ysyslab.dilog import (
    check_DI,
    check_functional_DI,
    rogers_L,
    solve_constant_Y,
)
from ysyslab.mutclass import search_equivalence
from ysyslab.quiver import Quiver, find_isomorphism
from ysyslab.roots import RootSystem, apart_mismatches_C, neg_simple, tvector_mismatches
from ysyslab.tropical import expected_counts

TVECTOR_CASES = [("C", r) for r in (2, 3, 4, 5, 6)] + [("F4", 4), ("G2", 2)]

EQUIVALENCE_PAIRS = [
    (("C", 3, 2), ("D", 4, 3)),
    (("F4", 4, 2), ("D", 5, 3)),
    (("C", 2, 3), ("A", 3, 4)),
    (("G2", 2, 2), ("C", 3, 2)),
    (("G2", 2, 3), ("C", 3, 3)),
]


def _ok(name, detail=""):
    print(f"PASS {name}" + (f": {detail}" if detail else ""))


def test_criterion_1_sign_counts():
    for family, rank, level in CASES:
        counts = cached_tropical(family, rank, level).count_signs()
        assert counts == expected_counts(family, rank, level), (family, rank, level)
    assert cached_tropical("C", 2, 2).count_signs() == (20, 20)
    assert cached_tropical("F4", 4, 2).count_signs() == (56, 120)
    assert cached_tropical("G2", 2, 2).count_signs() == (60, 48)
    _ok("criterion-1", f"sign tallies equal the closed forms on {len(CASES)} cases")


def test_criterion_2_tropical_periodicity():
    for family, rank, level in CASES:
        assert cached_tropical(family, rank, level).periodicity_mismatches() == []
    _ok("criterion-2", "half (with the up-down symmetry) and full periodicity exact")


def test_criterion_3_sign_patterns():
    f4 = {Fraction(x) for x in ("-2", "-5/2", "-9/2", "-5", "-7", "-15/2")}
    g2 = {Fraction(x) for x in ("-1", "-4/3", "-5/3", "-8/3", "-3", "-10/3")}
    for family, rank, level in CASES:
        run = cached_tropical(family, rank, level)
        assert run.sign_pattern_mismatches() == [], (family, rank, level)
        assert run.boundary_mismatches() == [], (family, rank, level)
        lo = -run.model.cartan["h_dual"] * run.t
        positives = set()
        for s, v in zip(*run.schedule.points(lo, 0)):
            meta = run.model.quiver.meta[v]
            period = 3 if family == "G2" else 2
            if meta.fill == "circle" or meta.row % period == 0:
                continue
            from ysyslab.tropical import POSITIVE, sign_classes

            if sign_classes(run.monomial(v, s)) == POSITIVE:
                positives.add(Fraction(s, run.t))
        if family == "F4":
            assert positives == f4
        elif family == "G2":
            assert positives == g2
        else:
            hd = Fraction(rank + 1)
            assert positives <= {-hd / 2, -hd / 2 - Fraction(1, 2)}
            if rank >= 3:
                assert positives == {-hd / 2, -hd / 2 - Fraction(1, 2)}
    _ok("criterion-3", "region signs and exceptional positive times exact")


def test_criterion_4_orbit_tables(capsys=None):
    # the verbatim fixtures live in test_roots; re-run them as the gate
    from tests import test_roots as tr

    tr.test_orbit_table_rank10()
    tr.test_orbit_table_rank9()
    tr.test_e6_orbits_verbatim()
    tr.test_d4_orbits_verbatim()
    for family, rank, count in [("C", 10, 110), ("C", 9, 90), ("F4", 4, 36), ("G2", 2, 12)]:
        sig, _ = cached_dynamics(family, rank)
        orbits = sig.orbit_decomposition()
        positives = [v for orb in orbits for v in orb if v in sig.rs.positive_roots]
        assert len(positives) == len(set(positives)) == count
        assert set(positives) == set(sig.rs.positive_roots)
    _ok("criterion-4", "orbit tables verbatim; orbits partition the positive roots")


def test_criterion_5_tvector_identities():
    for family, rank in TVECTOR_CASES:
        run = cached_tropical(family, rank, 2)
        assert tvector_mismatches(run) == [], (family, rank)
        if family == "C":
            assert apart_mismatches_C(run) == [], (family, rank)
        # the identities reach every positive root of the core's root system
        sig, alpha = cached_dynamics(family, rank)
        assert sorted(alpha.values()) == sorted(sig.rs.positive_roots), (family, rank)
    _ok("criterion-5", f"exponent vectors equal negated roots on {len(TVECTOR_CASES)} cases")


def test_criterion_6_numeric_residuals_and_periodicity():
    worst_res = worst_per = 0.0
    for family, rank, level in CASES:
        run = cached_numeric(family, rank, level)
        worst_res = max(worst_res, run.t_residuals().max(), run.y_residuals().max())
        worst_per = max(worst_per, run.t_periodicity_errors().max(), run.y_periodicity_errors().max())
    assert worst_res < 1e-9
    assert worst_per < 1e-8
    _ok("criterion-6", f"max residual {worst_res:.2e}, max periodicity error {worst_per:.2e}")


def test_criterion_7_constant_dilog():
    worst = 0.0
    for family, rank, level in CASES + [("C", 2, 5), ("C", 3, 5), ("C", 4, 5), ("F4", 4, 5), ("G2", 2, 5)]:
        lhs, rhs, err = check_DI(family, rank, level)
        assert err < 1e-8, (family, rank, level)
        worst = max(worst, err)
    lhs, rhs, _ = check_DI("G2", 2, 2)
    assert abs(rhs - 8 / 3) < 1e-15
    lhs, rhs, _ = check_DI("C", 2, 2)
    assert rhs == 2
    lhs, rhs, _ = check_DI("F4", 4, 2)
    assert abs(rhs - 60 / 11) < 1e-15
    _ok("criterion-7", f"constant identity on all cases plus level 5, worst error {worst:.2e}")


def test_criterion_8_functional_dilog():
    for family, rank, level in CASES:
        rep = check_functional_DI(cached_numeric(family, rank, level))
        assert rep["max_deviation"] < 1e-6, (family, rank, level)
        assert rep["seed_spread"] < 1e-6, (family, rank, level)
        npos, nneg = expected_counts(family, rank, level)
        assert rep["doubled_targets"] == (2 * nneg, 2 * npos)
    _ok("criterion-8", "class sums hit the tropical tallies; doubled values match the closed forms")


def test_criterion_9_mutation_equivalences():
    lengths = {}
    for left, right in EQUIVALENCE_PAIRS:
        Q1 = build(FamilySpec(*left)).quiver
        Q2 = build(FamilySpec(*right)).quiver
        res = search_equivalence(Q1, Q2, depth_cap=12, node_cap=10**6)
        assert res is not None, (left, right)
        path, iso = res
        final = path.replay()
        assert final.apply_perm(iso) == Q2
        assert find_isomorphism(final, Q2) is not None
        lengths[f"{left}~{right}"] = len(path.moves)
    _ok("criterion-9", f"paths found and replayed: {lengths}")


def test_criterion_10_property_suite():
    rng = np.random.default_rng(0)
    # mutation involution and skew-symmetry on random quivers
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        B = np.zeros((n, n), dtype=np.int64)
        for i in range(n):
            for j in range(i + 1, n):
                B[i, j] = rng.integers(-1, 2)
                B[j, i] = -B[i, j]
        Q = Quiver(B)
        k = int(rng.integers(0, n))
        Qk = Q.mutate(k)
        assert np.array_equal(Qk.B, -Qk.B.T)
        assert Qk.mutate(k) == Q

    # composite order independence on a scheduled set
    from itertools import permutations

    mdl = build(FamilySpec("C", 3, 2))
    from ysyslab.schedule import slot_sets

    S = slot_sets(mdl)[0][:4]
    results = {composite_mutate(mdl.quiver, p) for p in permutations(S)}
    assert len(results) == 1

    # pl reflections are involutions
    for rank, edges in (
        (4, dynkin_edges("A", 4)), (5, dynkin_edges("D", 5)), (6, dynkin_edges("E6", 6)), (4, D4_OUTER_EDGES),
    ):
        rs = RootSystem(rank, edges)
        elements = list(rs.positive_roots) + [neg_simple(rs, i) for i in range(1, rs.rank + 1)]
        for i in range(1, rs.rank + 1):
            for alpha in elements:
                assert sigma(rs, i, sigma(rs, i, alpha)) == tuple(alpha)

    # reflection identity of the dilogarithm on a grid
    xs = np.linspace(0.0, 1.0, 1000)
    assert np.max(np.abs(rogers_L(xs) + rogers_L(1.0 - xs) - np.pi**2 / 6)) < 1e-12

    # constant fixed point is unique across starts
    sched = cached_schedule("C", 3, 2)
    base = solve_constant_Y(sched)
    for _ in range(20):
        start = {k: float(rng.uniform(0.1, 10.0)) for k in base}
        other = solve_constant_Y(sched, start=start)
        assert max(abs(other[k] - base[k]) / base[k] for k in base) < 1e-10

    # tally total and level-rank duality
    for family, rank, level in CASES:
        npos, nneg = expected_counts(family, rank, level)
        assert npos + nneg == total_points(family, rank, level)
    for r in (2, 3, 4):
        for lev in (2, 3, 4):
            assert cached_tropical("C", r, lev).count_signs() == tuple(
                reversed(cached_tropical("C", lev, r).count_signs())
            )
    _ok("criterion-10", "property suite (involutions, order independence, identities, duality)")
