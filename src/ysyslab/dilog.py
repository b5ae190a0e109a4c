"""Rogers dilogarithm values, the constant coefficient fixed point, and the
dilogarithm identities (constant and functional)."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy import integrate, special

from .builders import cartan_data
from .gfun import transpose_factors
from .numeric import NumericRun
from .tropical import expected_counts


def rogers_L(x):
    """Rogers dilogarithm on [0, 1], normalized so L(1) = pi^2/6.

    Evaluated as Li2(x) + log(x)log(1-x)/2 away from the endpoints, where
    both terms are finite and the product term's log singularities cancel
    in the limit.
    """
    x = np.asarray(x, dtype=float)
    if np.any((x < 0) | (x > 1)):
        raise ValueError("rogers_L is defined on [0, 1]")
    out = np.empty_like(x)
    inner = (x > 0) & (x < 1)
    xi = x[inner]
    out[inner] = special.spence(1.0 - xi) + 0.5 * np.log(xi) * np.log(1.0 - xi)
    out[x <= 0] = 0.0
    out[x >= 1] = np.pi**2 / 6.0
    return out if out.ndim else float(out)


def rogers_L_quad(x):
    """Adaptive quadrature of the defining integral; slow reference route."""
    if x == 0:
        return 0.0

    def integrand(y):
        return np.log1p(-y) / y + np.log(y) / (1.0 - y)

    val, _ = integrate.quad(integrand, 0.0, x, points=[0.0, x], limit=200)
    return -0.5 * val


# -- constant coefficient system ----------------------------------------------


def constant_relations(family, rank, level):
    """(numerator, denominator) factor keys of the constant Y-relation at each (a, m).

    The numerator factors (1 + Y_(b,k)) are those of gfun.transpose_factors
    with the time shifts dropped, since a constant solution does not depend
    on u; the denominator factors (1 + 1/Y_(a,m+-1)) are dropped at the
    boundary rows.
    """
    numerators = transpose_factors(family, rank, level)
    return {
        (a, m): (
            [(b, k) for b, k, _ in num],
            [(a, k) for k in (m - 1, m + 1) if (a, k) in numerators],
        )
        for (a, m), num in numerators.items()
    }


def _constant_rhs(relations, Y):
    """RHS of the squared constant relations, per (a, m)."""
    return {
        key: math.prod([1.0 + Y[f] for f in num]) / math.prod([1.0 + 1.0 / Y[f] for f in den])
        for key, (num, den) in relations.items()
    }


DAMPING, TOL, MAX_ITER = 0.5, 1e-13, 100000


def solve_constant_Y(family, rank, level, start=None):
    """Damped fixed-point solution of the constant coefficient system.

    Iterates Y <- (1-DAMPING)*Y + DAMPING*sqrt(RHS(Y)) from the all-ones
    start (or a supplied one) until the largest relative update drops
    below TOL.  Raises after MAX_ITER iterations.
    """
    relations = constant_relations(family, rank, level)
    keys = list(relations)
    Y = {k: 1.0 for k in keys} if start is None else dict(start)
    for _ in range(MAX_ITER):
        rhs = _constant_rhs(relations, Y)
        delta = 0.0
        for k in keys:
            new = (1.0 - DAMPING) * Y[k] + DAMPING * np.sqrt(rhs[k])
            delta = max(delta, abs(new - Y[k]) / Y[k])
            Y[k] = new
        if delta < TOL:
            break
    else:
        raise RuntimeError(f"constant system did not converge for {family} level {level}")
    return Y


def constant_residuals(family, rank, level, Y):
    rhs = _constant_rhs(constant_relations(family, rank, level), Y)
    return {k: abs(Y[k] ** 2 - rhs[k]) / rhs[k] for k in Y}


def di_rhs_exact(family, rank, level):
    """r(level*h - h_dual)/(h_dual + level) as an exact fraction."""
    cd = cartan_data(family, rank)
    return Fraction(rank * (level * cd["h"] - cd["h_dual"]), cd["h_dual"] + level)


def check_DI(family, rank, level):
    """Constant dilogarithm identity; returns (lhs, rhs, abs error)."""
    Y = solve_constant_Y(family, rank, level)
    vals = np.array(list(Y.values()))
    lhs = 6.0 / np.pi**2 * float(np.sum(rogers_L(vals / (1.0 + vals))))
    rhs = float(di_rhs_exact(family, rank, level))
    return lhs, rhs, abs(lhs - rhs)


# -- functional identities ------------------------------------------------------


def functional_sums(run: NumericRun):
    """Normalized dilogarithm sums over one period of labelled coefficients.

    Returns (S_minus, S_plus) with S_minus = (6/pi^2) * sum L(y/(1+y)) and
    S_plus the companion sum of L(1/(1+y)); they target the negative and
    positive tropical tallies respectively.
    """
    ys = run.labelled_coefficients(0, run.full_s)
    s_minus = 6.0 / np.pi**2 * float(np.sum(rogers_L(ys / (1.0 + ys))))
    s_plus = 6.0 / np.pi**2 * float(np.sum(rogers_L(1.0 / (1.0 + ys))))
    return s_minus, s_plus


def functional_rhs_doubled(family, rank, level):
    """Printed closed forms for the doubled functional sums (2N-, 2N+)."""
    r, lev = rank, level
    if family == "C":
        return 4 * r * (2 * r * lev - r - 1), 4 * lev * (2 * r * lev - lev - 1)
    if family == "F4":
        return 48 * (4 * lev - 3), 8 * lev * (3 * lev + 1)
    if family == "G2":
        return 24 * (3 * lev - 2), 12 * lev * (2 * lev + 1)
    raise ValueError(f"unknown family {family!r}")


def check_functional_DI(runs):
    """Functional identities across tracked NumericRuns of one case, one per
    random initialization.

    Returns a dict with the per-run sums, the worst deviation from the
    tropical tallies (N-, N+), and the spread across runs.
    """
    spec = runs[0].spec
    npos, nneg = expected_counts(spec.family, spec.rank, spec.level)
    sums = np.array([functional_sums(run) for run in runs])
    dev_minus = float(np.max(np.abs(sums[:, 0] - nneg)))
    dev_plus = float(np.max(np.abs(sums[:, 1] - npos)))
    spread = float(max(np.ptp(sums[:, 0]), np.ptp(sums[:, 1])))
    return {
        "sums": sums.tolist(),
        "targets": (nneg, npos),
        "doubled_targets": functional_rhs_doubled(spec.family, spec.rank, spec.level),
        "max_deviation": max(dev_minus, dev_plus),
        "seed_spread": spread,
    }
