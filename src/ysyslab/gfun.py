"""The exponent function coupling a T/Y relation to its neighbour variables,
read off the exchange matrices of a verified schedule.

At the mutation point (s, v) labelled (a, m) the exchange relation is the
T-relation centered at (a, m, s/t): the arrows out of v reach the
T^{(a)}_{m+-1}(s/t) of the rows above and below (a boundary row has no
vertex), and the arrows into v reach the neighbour product g(a, m).  A
neighbour w labelled (b, k) and last mutated at s' < s carries
T^{(b)}_k(u + ds/t), with the shift ds = s' + t/t_b - s an integer.
"""

from __future__ import annotations

import numpy as np


def g_factors(schedule):
    """The factors {(a, m): [(b, k, ds)]} of the neighbour products g, each
    list ascending, read at every mutation point of one period of schedule
    (its t, sets, matrices, the (a, m) labels of the vertices and model).

    Raises ValueError, naming the point, when the arrows out of a point are
    not its rows m+-1 inside the grid, when two points of one (a, m) differ,
    and when a vertex or a row of the grid has no point.
    """
    t, sets, labels = schedule.t, schedule.sets, schedule.labels
    t_a, level = schedule.model.cartan["t_a"], schedule.model.spec.level
    last = {w: s for s in range(-len(sets), 0) for w in sets[s]}  # the period before time 0
    if len(last) != len(labels):
        raise ValueError(f"the vertices {sorted(set(range(len(labels))) - set(last))} are never mutated")
    g = {}
    for s, (ks, B) in enumerate(zip(sets, schedule.matrices)):
        Bk = B[list(ks)]
        at, nbr = np.nonzero(Bk)  # every arrow at the slot, in (vertex, neighbour) order
        outs, intos = [[] for _ in ks], [[] for _ in ks]
        for i, w, outgoing in zip(at.tolist(), nbr.tolist(), (Bk[at, nbr] > 0).tolist()):
            b, k = labels[w]
            (outs if outgoing else intos)[i].append((b, k, last[w] + t // t_a[b] - s))
        for v, out, into in zip(ks, outs, intos):
            a, m = labels[v]
            out.sort()
            into.sort()
            adjacent = [(a, k, 0) for k in (m - 1, m + 1) if 0 < k < t_a[a] * level]
            if out != adjacent:
                raise ValueError(f"the arrows out of vertex {v} at s={s} reach {out}, not {adjacent}")
            if g.setdefault((a, m), into) != into:
                raise ValueError(f"vertex {v} at s={s} gives ({a}, {m}) the factors {into}, not {g[a, m]}")
        last.update((v, s) for v in ks)
    rows = [(a, m) for a in sorted(t_a) for m in range(1, t_a[a] * level)]
    if sorted(g) != rows:
        raise ValueError(f"the grid rows and the labels of the mutation points differ at {sorted(set(g) ^ set(rows))}")
    return {row: g[row] for row in rows}


def transpose_factors(g):
    """The Y-relation numerators of a g_factors table, in one pass over it:
    {(a, m): [(b, k, ds)]}, the factors (1+Y^{(b)}_k(u+ds/t)) in the
    numerator of the Y-relation at (a, m, u), in ascending (b, k)."""
    out = {row: [] for row in g}
    for (b, k), factors in g.items():
        for a, m, ds in factors:
            out[(a, m)].append((b, k, -ds))
    return out
