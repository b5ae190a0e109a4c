"""Rogers dilogarithm values, the constant coefficient fixed point, and the
dilogarithm identities (constant and functional)."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .builders import FamilySpec, build, cartan_data
from .numeric import NumericRun
from .schedule import Schedule
from .tropical import expected_counts


def _bernoulli(n):
    """B_0, ..., B_n as exact fractions, with B_1 = -1/2."""
    B = [Fraction(1)]
    for m in range(1, n + 1):
        B.append(-sum(math.comb(m + 1, j) * B[j] for j in range(m)) / (m + 1))
    return B


#: B_2k / (2k+1)! for k = 1..12: the series of Li2 in u = -log(1-y) past its
#: first two terms, in powers of u^2 since the odd B_n after B_1 vanish.  At
#: u <= log 2 the first term left out is below 1e-26.
_LI2_U2_COEFFS = tuple(
    float(b / math.factorial(2 * k + 1)) for k, b in enumerate(_bernoulli(24)[2::2], start=1)
)


def rogers_L(x):
    """Rogers dilogarithm on [0, 1], normalized so L(1) = pi^2/6.

    L(y) = Li2(y) + log(y)log(1-y)/2 for y = min(x, 1-x) <= 1/2, with Li2
    as its Bernoulli series in u = -log(1-y):

        L(y) = u - u^2/4 + sum_k B_2k u^(2k+1)/(2k+1)! - u log(y)/2,

    and L(x) = pi^2/6 - L(1-x) for x > 1/2, so x = 0 and x = 1 give exactly
    0 and pi^2/6.  Raises ValueError for input outside [0, 1], NaN included.
    """
    x = np.asarray(x, dtype=float)
    outside = ~((x >= 0) & (x <= 1))
    if np.any(outside):
        raise ValueError(f"rogers_L is defined on [0, 1], not at {x[outside].flat[0]}")
    upper = x > 0.5
    y = np.where(upper, 1.0 - x, x)
    u = -np.log1p(-y)
    w = u * u
    series = np.zeros_like(u)
    for c in reversed(_LI2_U2_COEFFS):
        series = series * w + c
    # u = 0 at y = 0, so log(y) is replaced there by 0 and the value is 0
    log_y = np.log(np.where(y > 0, y, 1.0))
    low = u - 0.25 * w + u * w * series - 0.5 * u * log_y
    out = np.where(upper, np.pi**2 / 6.0 - low, low)
    return out if out.ndim else float(out)


# -- constant coefficient system ----------------------------------------------


def constant_relations(schedule):
    """(numerator, denominator) factor keys of the constant Y-relation at each
    (a, m) of a verified Schedule.

    The numerator factors (1 + Y_(b,k)) are those of the schedule's
    numerators with the time shifts dropped, since a constant solution does
    not depend on u; the denominator factors (1 + 1/Y_(a,m+-1)) are dropped
    at the boundary rows.
    """
    numerators = schedule.numerators
    return {
        (a, m): (
            [(b, k) for b, k, _ in num],
            [(a, k) for k in (m - 1, m + 1) if (a, k) in numerators],
        )
        for (a, m), num in numerators.items()
    }


def constant_system(schedule):
    """(keys, N, D): the unknowns Y_(a,m) of the constant system in a fixed
    order, and the count matrices of its numerator and denominator factors.

    N[i, j] (D[i, j]) counts the factors (1 + Y_j) ((1 + 1/Y_j)) in the
    relation of keys[i]; a factor can repeat, so each matrix is filled by
    one np.add.at over the (relation, factor) pairs of all the relations.
    """
    relations = constant_relations(schedule)
    keys = list(relations)
    index = {key: i for i, key in enumerate(keys)}
    N, D = np.zeros((2, len(keys), len(keys)))
    for counts, part in ((N, 0), (D, 1)):
        pairs = [(i, index[f]) for i, factors in enumerate(relations.values()) for f in factors[part]]
        i, j = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
        np.add.at(counts, (i, j), 1)
    return keys, N, D


def _constant_F(N, D, z):
    """log(Y^2 / RHS) of the constant relations at z = log Y."""
    return 2.0 * z - N @ np.logaddexp(0.0, z) + D @ np.logaddexp(0.0, -z)


def solve_constant_Y(schedule, start=None):
    """Positive solution of the constant coefficient system of a verified
    Schedule, by Newton's method in z = log Y.

    Solves F(z) = 2z - N log(1+e^z) + D log(1+e^-z) = 0, whose Jacobian is
    2I - N diag(sigma(z)) - D diag(1 - sigma(z)), from z = 0 (or the log of
    a supplied start).  Stops once max|F| is a few ulps of z, or stops
    decreasing, or after 100 steps, and raises a RuntimeError if max|F| is
    then above 1e-12.
    """
    keys, N, D = constant_system(schedule)
    z = np.zeros(len(keys)) if start is None else np.log([start[k] for k in keys])
    F = _constant_F(N, D, z)
    for _ in range(100):
        err = np.max(np.abs(F))
        if err <= 4.0 * np.finfo(float).eps * max(1.0, np.max(np.abs(z))):
            break
        sig = 0.5 * (1.0 + np.tanh(0.5 * z))
        z_new = z - np.linalg.solve(2.0 * np.eye(len(z)) - N * sig - D * (1.0 - sig), F)
        F_new = _constant_F(N, D, z_new)
        if not np.max(np.abs(F_new)) < err:
            break
        z, F = z_new, F_new
    if not np.max(np.abs(F)) <= 1e-12:
        spec = schedule.model.spec
        raise RuntimeError(f"constant system did not converge for {spec.family} level {spec.level}")
    return dict(zip(keys, np.exp(z).tolist()))


def di_rhs_exact(family, rank, level):
    """r(level*h - h_dual)/(h_dual + level) as an exact fraction."""
    cd = cartan_data(family, rank)
    return Fraction(rank * (level * cd["h"] - cd["h_dual"]), cd["h_dual"] + level)


def constant_DI(schedule):
    """Constant dilogarithm identity of a verified Schedule; returns
    (lhs, rhs, abs error)."""
    spec = schedule.model.spec
    vals = np.array(list(solve_constant_Y(schedule).values()))
    lhs = 6.0 / np.pi**2 * float(np.sum(rogers_L(vals / (1.0 + vals))))
    rhs = float(di_rhs_exact(spec.family, spec.rank, spec.level))
    return lhs, rhs, abs(lhs - rhs)


def check_DI(family, rank, level):
    """constant_DI of the case, whose schedule it builds and verifies."""
    return constant_DI(Schedule(build(FamilySpec(family, rank, level))))


# -- functional identities ------------------------------------------------------


def functional_sums(run: NumericRun):
    """Normalized dilogarithm sums over one period of labelled coefficients.

    Returns one row (S_minus, S_plus) per seed of the run, with
    S_minus = (6/pi^2) * sum L(y/(1+y)) and S_plus the companion sum of
    L(1/(1+y)); they target the negative and positive tropical tallies
    respectively.  Each seed's sum runs along its own contiguous row.
    """
    ys = run.labelled_coefficients()
    s_minus = 6.0 / np.pi**2 * np.sum(rogers_L(ys / (1.0 + ys)), axis=1)
    s_plus = 6.0 / np.pi**2 * np.sum(rogers_L(1.0 / (1.0 + ys)), axis=1)
    return np.stack([s_minus, s_plus], axis=1)


def check_functional_DI(run):
    """Functional identities of a NumericRun of one case, over the random
    seeds of its positive-real block.

    Returns a dict with the per-seed sums, the worst deviation from the
    tropical tallies (N-, N+), and the spread across seeds.  Raises
    ArithmeticError when a coefficient puts a Rogers dilogarithm argument
    outside [0, 1] (a NaN, say).
    """
    spec = run.spec
    npos, nneg = expected_counts(spec.family, spec.rank, spec.level)
    try:
        sums = functional_sums(run)
    except ValueError as err:
        raise ArithmeticError(f"labelled coefficients off the positive reals: {err}") from err
    dev_minus = float(np.max(np.abs(sums[:, 0] - nneg)))
    dev_plus = float(np.max(np.abs(sums[:, 1] - npos)))
    spread = float(max(np.ptp(sums[:, 0]), np.ptp(sums[:, 1])))
    return {
        "sums": sums.tolist(),
        "targets": (nneg, npos),
        "doubled_targets": (2 * nneg, 2 * npos),
        "max_deviation": max(dev_minus, dev_plus),
        "seed_spread": spread,
    }
