import math
from fractions import Fraction

import numpy as np
import pytest

from tests.conftest import CASES, cached_numeric, cached_schedule
from tests.oracle import (
    constant_residuals,
    damped_constant_Y,
    functional_rhs_doubled,
    rogers_L_quad,
    total_points,
)
from ysyslab import dilog
from ysyslab.dilog import (
    check_DI,
    check_functional_DI,
    constant_DI,
    constant_relations,
    constant_system,
    di_rhs_exact,
    rogers_L,
    solve_constant_Y,
)
from ysyslab.tropical import expected_counts


def test_endpoint_values():
    assert rogers_L(0.0) == 0.0
    assert rogers_L(1.0) == np.pi**2 / 6
    assert rogers_L(np.array([0.0, 1.0])).tolist() == [0.0, np.pi**2 / 6]
    assert abs(rogers_L(0.5) - np.pi**2 / 12) < 1e-12


def test_closed_values():
    # L(1/2), and L at the two golden-ratio points (Zagier, "The Dilogarithm
    # Function", section 1)
    r5 = math.sqrt(5.0)
    for x, value in [(0.5, np.pi**2 / 12), ((3 - r5) / 2, np.pi**2 / 15), ((r5 - 1) / 2, np.pi**2 / 10)]:
        assert abs(rogers_L(x) - value) < 1e-15, x


def test_small_x_tail():
    # L(x) = x - x log(x)/2 + O(x^2 log x) as x -> 0; a form through
    # Li2(1 - x) loses this tail, since 1 - x rounds to 1 below about 1e-16
    for x in (1e-12, 1e-17):
        tail = x - 0.5 * x * math.log(x)
        assert abs(rogers_L(x) / tail - 1.0) < 1e-10, x


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_raises(bad):
    # NaN fails both range comparisons, so it must not pass the guard
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        rogers_L(bad)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        rogers_L(np.array([0.25, bad, 0.75]))


def test_constant_solution_positive_with_tiny_residuals():
    for family, rank, level in [("C", 2, 2), ("C", 4, 3), ("F4", 4, 2), ("G2", 2, 3)]:
        Y = solve_constant_Y(cached_schedule(family, rank, level))
        assert all(v > 0 for v in Y.values())
        assert max(constant_residuals(family, rank, level, Y).values()) < 1e-12


def test_constant_relation_structure():
    # the long-root relation carries the doubled middle factor, and the G2
    # thin-row relation carries exponents 1,2,3,2,1 on its five factors
    def rhs(family, rank, level, key):
        sched = cached_schedule(family, rank, level)
        keys, N, D = constant_system(sched)
        Y = solve_constant_Y(sched)
        y = np.array([Y[k] for k in keys])
        i = keys.index(key)
        return np.prod((1 + y) ** N[i]) / np.prod((1 + 1 / y) ** D[i]), Y

    got, Y = rhs("C", 3, 2, (3, 1))
    manual = (
        (1 + Y[(2, 1)]) * (1 + Y[(2, 2)]) ** 2 * (1 + Y[(2, 3)])
    )  # m-neighbour denominators are boundary terms at level 2
    assert abs(got - manual) < 1e-12 * manual

    got, Yg = rhs("G2", 2, 2, (1, 1))
    manual = (
        (1 + Yg[(2, 1)])
        * (1 + Yg[(2, 2)]) ** 2
        * (1 + Yg[(2, 3)]) ** 3
        * (1 + Yg[(2, 4)]) ** 2
        * (1 + Yg[(2, 5)])
    )
    assert abs(got - manual) < 1e-12 * manual


def test_constant_system_counts_repeated_factors():
    for family, rank, level in CASES:
        sched = cached_schedule(family, rank, level)
        keys, N, D = constant_system(sched)
        for i, (num, den) in enumerate(constant_relations(sched).values()):
            assert N[i].sum() == len(num) and D[i].sum() == len(den)
    keys, N, _ = constant_system(cached_schedule("G2", 2, 2))
    assert N[keys.index((1, 1)), keys.index((2, 3))] == 3


@pytest.mark.parametrize("family,rank,level", CASES)
def test_newton_matches_damped_oracle(family, rank, level):
    Y = solve_constant_Y(cached_schedule(family, rank, level))
    ref = damped_constant_Y(family, rank, level)
    assert Y.keys() == ref.keys()
    assert max(abs(Y[k] - ref[k]) / ref[k] for k in ref) <= 1e-10


def test_constant_identity_at_high_level(monkeypatch):
    # each Newton solve takes as many steps, each one dense solve of the
    # whole system, as it did when these counts were recorded; counting
    # them pins a solver regression without reading the machine's load
    real, sizes = np.linalg.solve, []

    def counted(A, b):
        sizes.append(A.shape)
        return real(A, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    for family, rank, level, steps, size in [("G2", 2, 20, 8, 78), ("F4", 4, 12, 6, 68), ("C", 4, 40, 9, 276)]:
        sizes.clear()
        lhs, rhs, err = check_DI(family, rank, level)
        assert err < 1e-12, (family, rank, level, err)
        assert sizes == [(size, size)] * steps, (family, rank, level)


def test_solver_raises_when_not_converged(monkeypatch):
    # a system without a root: its residual never falls below 1e-9
    real = dilog._constant_F
    monkeypatch.setattr(dilog, "_constant_F", lambda N, D, z: np.abs(real(N, D, z)) + 1e-9)
    with pytest.raises(RuntimeError, match="did not converge"):
        solve_constant_Y(cached_schedule("C", 2, 2))


def test_check_DI_returns_three_floats():
    # the benchmark unpacks exactly (lhs, rhs, abs_error)
    for case in [("C", 2, 2), ("F4", 4, 2), ("G2", 2, 5)]:
        result = check_DI(*case)
        assert isinstance(result, tuple) and len(result) == 3
        assert all(type(v) is float for v in result)
        lhs, rhs, err = result
        assert rhs == float(di_rhs_exact(*case))
        assert err == abs(lhs - rhs)
        assert constant_DI(cached_schedule(*case)) == result


def test_uniqueness_from_many_starts():
    rng = np.random.default_rng(9)
    sched = cached_schedule("G2", 2, 3)
    base = solve_constant_Y(sched)
    keys = sorted(base)
    for _ in range(20):
        start = {k: float(rng.uniform(0.1, 10.0)) for k in keys}
        other = solve_constant_Y(sched, start=start)
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
        rep = check_functional_DI(cached_numeric(family, rank, level))
        assert len(rep["sums"]) == 5
        assert rep["max_deviation"] < 1e-6
        assert rep["seed_spread"] < 1e-6
        npos, nneg = expected_counts(family, rank, level)
        assert rep["targets"] == (nneg, npos)
        assert rep["doubled_targets"] == functional_rhs_doubled(family, rank, level)
        # the two class sums fill up the point count of the window
        assert nneg + npos == total_points(family, rank, level)
