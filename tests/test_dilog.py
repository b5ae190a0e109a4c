from fractions import Fraction

import numpy as np
import pytest

from tests.conftest import CASES, cached_numeric
from ysyslab.dilog import (
    check_DI,
    check_functional_DI,
    constant_residuals,
    di_rhs_exact,
    functional_rhs_doubled,
    rogers_L,
    rogers_L_quad,
    solve_constant_Y,
)
from ysyslab.tropical import expected_counts, total_points


def test_endpoint_values():
    assert rogers_L(0.0) == 0.0
    assert abs(rogers_L(1.0) - np.pi**2 / 6) < 1e-14
    assert abs(rogers_L(0.5) - np.pi**2 / 12) < 1e-12


def test_against_quadrature():
    for x in (1e-6, 0.1, 0.5, 0.9, 1 - 1e-6):
        assert abs(rogers_L(x) - rogers_L_quad(x)) < 1e-12


def test_reflection_identity_grid():
    xs = np.linspace(0.0, 1.0, 1001)
    total = rogers_L(xs) + rogers_L(1.0 - xs)
    assert np.max(np.abs(total - np.pi**2 / 6)) < 1e-12


def test_domain_guard():
    with pytest.raises(ValueError):
        rogers_L(1.5)
    with pytest.raises(ValueError):
        rogers_L(-0.1)


def test_constant_solution_positive_with_tiny_residuals():
    for family, rank, level in [("C", 2, 2), ("C", 4, 3), ("F4", 4, 2), ("G2", 2, 3)]:
        Y = solve_constant_Y(family, rank, level)
        assert all(v > 0 for v in Y.values())
        assert max(constant_residuals(family, rank, level, Y).values()) < 1e-12


def test_constant_relation_structure():
    # the long-root relation carries the doubled middle factor, and the G2
    # thin-row relation carries exponents 1,2,3,2,1 on its five factors
    from ysyslab.dilog import _constant_rhs, constant_relations

    Y = solve_constant_Y("C", 3, 2)
    got = _constant_rhs(constant_relations("C", 3, 2), Y)[(3, 1)]
    manual = (
        (1 + Y[(2, 1)]) * (1 + Y[(2, 2)]) ** 2 * (1 + Y[(2, 3)])
    )  # m-neighbour denominators are boundary terms at level 2
    assert abs(got - manual) < 1e-12 * manual

    Yg = solve_constant_Y("G2", 2, 2)
    got = _constant_rhs(constant_relations("G2", 2, 2), Yg)[(1, 1)]
    manual = (
        (1 + Yg[(2, 1)])
        * (1 + Yg[(2, 2)]) ** 2
        * (1 + Yg[(2, 3)]) ** 3
        * (1 + Yg[(2, 4)]) ** 2
        * (1 + Yg[(2, 5)])
    )
    assert abs(got - manual) < 1e-12 * manual


def test_uniqueness_from_many_starts():
    rng = np.random.default_rng(9)
    family, rank, level = "G2", 2, 3
    base = solve_constant_Y(family, rank, level)
    keys = sorted(base)
    for _ in range(20):
        start = {k: float(rng.uniform(0.1, 10.0)) for k in keys}
        other = solve_constant_Y(family, rank, level, start=start)
        rel = max(abs(other[k] - base[k]) / base[k] for k in keys)
        assert rel < 1e-10


def test_rhs_exact_values():
    assert di_rhs_exact("G2", 2, 2) == Fraction(8, 3)
    assert di_rhs_exact("C", 2, 2) == 2
    assert di_rhs_exact("F4", 4, 2) == Fraction(60, 11)


@pytest.mark.parametrize("family,rank,level", CASES + [("C", 2, 5), ("F4", 4, 5), ("G2", 2, 5)])
def test_constant_identity(family, rank, level):
    lhs, rhs, err = check_DI(family, rank, level)
    assert err < 1e-8


def test_functional_identity_small_cases():
    for family, rank, level in [("C", 2, 2), ("G2", 2, 2)]:
        rep = check_functional_DI([cached_numeric(family, rank, level, seed, True) for seed in range(5)])
        assert rep["max_deviation"] < 1e-6
        assert rep["seed_spread"] < 1e-6
        npos, nneg = expected_counts(family, rank, level)
        assert rep["targets"] == (nneg, npos)
        doubled = functional_rhs_doubled(family, rank, level)
        assert doubled == (2 * nneg, 2 * npos)
        # the two class sums fill up the point count of the window
        assert nneg + npos == total_points(family, rank, level)
