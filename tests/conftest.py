"""Shared cached builders so expensive runs are computed once per session."""

from fractions import Fraction
from functools import lru_cache

import numpy as np

from ysyslab.builders import FamilySpec, build
from ysyslab.mutclass import SIZE_CAP
from ysyslab.numeric import NumericRun
from ysyslab.quiver import Quiver
from ysyslab.roots import level2_core, pl_dynamics
from ysyslab.schedule import Schedule
from ysyslab.tropical import TropicalRun


@lru_cache(maxsize=None)
def cached_model(family, rank, level):
    return build(FamilySpec(family, rank, level))


@lru_cache(maxsize=None)
def cached_schedule(family, rank, level):
    return Schedule(cached_model(family, rank, level))


@lru_cache(maxsize=None)
def cached_tropical(family, rank, level):
    return TropicalRun(cached_schedule(family, rank, level))


def relabelled_window(run):
    """Every time the TropicalRun serves, lo_s <= s <= full_s, read through
    monomial: window[s - lo_s, v] is the exponent row of v at time s."""
    times = np.arange(run.lo_s, run.full_s + 1)
    return run.monomial(np.arange(run.model.n), times[:, None])


#: The seeds of the cached numeric runs, one column each.
SEEDS = (0, 1, 2, 3, 4)


@lru_cache(maxsize=None)
def cached_numeric(family, rank, level):
    return NumericRun(cached_schedule(family, rank, level), SEEDS)


@lru_cache(maxsize=None)
def cached_dynamics(family, rank, thin=False):
    """(sigma, alpha) of roots.pl_dynamics on the level-2 core of a case, or
    on the thin row (i, 1), i < rank, of type C, with alpha keyed by
    (node i, time u)."""
    sched = cached_schedule(family, rank, 2)
    m = sched.model
    verts = [m.vid(i, 1) for i in range(1, rank)] if thin else level2_core(m)
    sigma, alpha = pl_dynamics(sched, verts)
    return sigma, {(verts.index(v) + 1, Fraction(s, sched.t)): root for (s, v), root in alpha.items()}


CASES = (
    [("C", r, lev) for r in (2, 3, 4) for lev in (2, 3, 4)]
    + [("F4", 4, 2), ("F4", 4, 3)]
    + [("G2", 2, lev) for lev in (2, 3, 4)]
)


@lru_cache(maxsize=None)
def key_quivers():
    """Quivers to check canonical keys on: four random mutation walks of 10
    steps from each CASES quiver the key supports, a relabelled copy of every
    step, and 1000 random skew matrices with entries in {0, +-1, +-2}."""
    rng = np.random.default_rng(17)
    out = []
    starts = [cached_model(*case).quiver for case in CASES]
    for Q in [Q for Q in starts if Q.n <= SIZE_CAP] * 4:
        for _ in range(10):
            Q = Q.mutate(int(rng.integers(Q.n)))
            out += [Q, Q.apply_perm(rng.permutation(Q.n).tolist())]
    for _ in range(1000):
        n = int(rng.integers(2, 13))
        U = np.triu(rng.integers(-2, 3, (n, n)), 1)
        out.append(Quiver(U - U.T))
    return tuple(out)
