from fractions import Fraction

import numpy as np
import pytest

from tests.conftest import CASES, cached_model, cached_numeric, cached_tropical
from tests.oracle import NumericSeedPayload, run_payload
from ysyslab import numeric
from ysyslab.gfun import g_factors, transpose_factors
from ysyslab.numeric import (
    NumericRun,
    positivity_violations,
    real_plus1,
    trivial_plus1,
    tropical_shadow_mismatches,
)
from ysyslab.schedule import mutate_slot, run_schedule, slot_sets

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


def test_g_factors_tables():
    # long-root row couples to the doubled row below it
    assert g_factors("C", 3, 2, 3, 1) == [(2, 2, Fraction(0))]
    # short chain rows couple to both neighbours, boundary dropped
    assert g_factors("C", 4, 2, 1, 1) == [(2, 1, Fraction(0))]
    assert set(g_factors("C", 4, 2, 2, 1)) == {(1, 1, Fraction(0)), (3, 1, Fraction(0))}
    # the doubled row splits by parity: even rows reach across half-steps
    assert g_factors("C", 3, 3, 2, 2) == [(1, 2, Fraction(0)), (3, 1, -HALF), (3, 1, HALF)]
    assert g_factors("C", 3, 3, 2, 1) == [(1, 1, Fraction(0)), (3, 1, Fraction(0))]
    assert g_factors("C", 3, 3, 2, 5) == [(1, 5, Fraction(0)), (3, 2, Fraction(0))]
    # G2: the tall rows couple to the thin row in three phase patterns
    assert g_factors("G2", 2, 2, 2, 1) == [(1, 1, Fraction(0))]
    assert g_factors("G2", 2, 2, 2, 3) == [(1, 1, -2 * THIRD), (1, 1, Fraction(0)), (1, 1, 2 * THIRD)]
    assert g_factors("G2", 2, 2, 2, 2) == [(1, 1, -THIRD), (1, 1, THIRD)]
    assert g_factors("G2", 2, 2, 1, 1) == [(2, 3, Fraction(0))]
    # F4 middle rows
    assert g_factors("F4", 4, 2, 2, 1) == [(1, 1, Fraction(0)), (3, 2, Fraction(0))]
    assert g_factors("F4", 4, 2, 3, 2) == [(2, 1, -HALF), (2, 1, HALF), (4, 2, Fraction(0))]


def test_transpose_is_adjoint():
    rng = np.random.default_rng(0)
    for family, rank, level in [("C", 3, 2), ("C", 4, 3), ("F4", 4, 2), ("G2", 2, 3)]:
        from ysyslab.builders import cartan_data

        cd = cartan_data(family, rank)
        rows = [(a, m) for a in range(1, rank + 1) for m in range(1, cd["t_a"][a] * level)]
        table = transpose_factors(family, rank, level)
        for _ in range(250):
            a, m = rows[rng.integers(len(rows))]
            b, k = rows[rng.integers(len(rows))]
            for dv in (Fraction(0), HALF, -HALF, THIRD, -THIRD, 2 * THIRD, -2 * THIRD, Fraction(1), Fraction(-1)):
                lhs = table[(a, m)].count((b, k, dv))
                rhs = g_factors(family, rank, level, b, k).count((a, m, -dv))
                assert lhs == rhs


def test_y_numerator_matches_printed_relations():
    # type C long-root relation: four neighbour factors across a full step
    facs = transpose_factors("C", 3, 2)[(3, 1)]
    assert sorted(facs) == [(2, 1, Fraction(0)), (2, 2, -HALF), (2, 2, HALF), (2, 3, Fraction(0))]
    # G2 thin-row relation: nine factors spread over thirds
    facs = transpose_factors("G2", 2, 2)[(1, 1)]
    assert len(facs) == 9
    assert facs.count((2, 3, Fraction(0))) == 1
    assert {dv for (_, k, dv) in facs if k == 3} == {-2 * THIRD, Fraction(0), 2 * THIRD}
    assert {dv for (_, k, dv) in facs if k == 2} == {-THIRD, THIRD}
    assert {dv for (_, k, dv) in facs if k == 4} == {-THIRD, THIRD}
    assert {dv for (_, k, dv) in facs if k in (1, 5)} == {Fraction(0)}


def test_seed_double_mutation_restores():
    rng = np.random.default_rng(4)
    m = cached_model("C", 3, 2)
    logx = np.log(rng.uniform(0.5, 2.0, m.n))
    logy = np.log(rng.uniform(0.5, 2.0, m.n))
    for ks in ([0], slot_sets(m)[0]):
        L, lx = mutate_slot(m.quiver.B, ks, logy, real_plus1, logx)
        L, lx = mutate_slot(m.quiver.composite_mutate(ks).B, ks, L, real_plus1, lx)
        assert np.allclose(np.exp(lx), np.exp(logx), rtol=1e-12)
        assert np.allclose(np.exp(L), np.exp(logy), rtol=1e-12)


def test_overflow_raises(monkeypatch):
    # the runs work in logs; a cluster value or a coefficient past the
    # float range fails when the run turns them into values
    for which in (0, 1):

        def huge(model, s_lo, s_hi, L, oplus1, logx):
            seed = [L, logx]
            seed[which] = np.full(model.n, 800.0)
            return {0: tuple(seed)}

        monkeypatch.setattr(numeric, "run_schedule", huge)
        with pytest.raises(FloatingPointError):
            NumericRun("C", 2, 2, tracked=True)


@pytest.mark.parametrize("family,rank,level", CASES)
def test_residuals_and_periodicity(family, rank, level):
    for seed in range(5):
        tracked = cached_numeric(family, rank, level, seed, True)
        plain = cached_numeric(family, rank, level, seed, False)
        assert plain.t_residuals().max() < 1e-9
        assert tracked.t_residuals().max() < 1e-9
        assert tracked.y_residuals().max() < 1e-9
        assert plain.t_periodicity_errors().max() < 1e-8
        assert tracked.y_periodicity_errors().max() < 1e-8
        assert positivity_violations(tracked) == []


@pytest.mark.parametrize("family,rank,level", CASES)
def test_tropical_shadow(family, rank, level):
    assert tropical_shadow_mismatches(cached_tropical(family, rank, level), seed=11) == []


def test_trivial_semifield_projection():
    # the coefficient-free run is the exchange rule in the one-element
    # semifield; it agrees value for value with the plain two-monomial
    # exchange, and its coefficients never move
    for family, rank, level in [("C", 2, 2), ("F4", 4, 2), ("G2", 2, 2)]:
        mdl = cached_model(family, rank, level)
        t = mdl.cartan["t"]
        x0 = np.random.default_rng(0).uniform(0.5, 2.0, mdl.n)
        plain = run_payload(mdl, -2 * t, 2 * t, NumericSeedPayload(x0))
        projected = run_schedule(mdl, -2 * t, 2 * t, np.zeros(mdl.n), trivial_plus1, np.log(x0))
        for s, (L, logx) in projected.items():
            assert np.max(np.abs(np.exp(logx) - plain[s][0])) <= 1e-12
            assert not L.any()


def test_y_residuals_need_tracking():
    plain = cached_numeric("C", 2, 2, 0, False)
    with pytest.raises(ValueError):
        plain.y_residuals()


def test_boundary_labels_are_unit():
    run = cached_numeric("C", 2, 2, 0, False)
    assert run.X(1, 0, 0) == 1.0
    assert run.X(0, 1, 0) == 1.0
    assert run.X(2, 2, 0) == 1.0  # top row for the long root at level 2
