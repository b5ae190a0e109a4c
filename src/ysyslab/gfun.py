"""The exponent function coupling a T/Y relation to its neighbour variables.

For the relation centered at (a, m, u) the second exchange monomial is a
product of variables T^{(b)}_k(u + ds/t), with the shift ds an integer in
scaled time; g_factors returns those (b, k, ds) triples with boundary
factors (index 0, component 0, or top row t_b*level) already dropped.
transpose_factors inverts the whole table at once: for each (a, m) it
lists the (b, k, ds) with (1 + Y^{(b)}_k(u + ds/t)) in the numerator of
the Y-relation at (a, m, u).
"""

from __future__ import annotations

from .builders import cartan_data


def g_factors(family, rank, level, a, m):
    """Neighbour factors (b, k, ds) of the relation centered at (a, m, u)."""
    cd = cartan_data(family, rank)
    out = []

    def add(b, k, ds=0):
        if b < 1 or k < 1 or k > cd["t_a"][b] * level - 1:
            return
        out.append((b, k, ds))

    if family == "C":
        r = rank
        if a <= r - 2:
            add(a - 1, m)
            add(a + 1, m)
        elif a == r - 1:
            add(r - 2, m)
            if m % 2 == 0:
                add(r, m // 2, -1)
                add(r, m // 2, +1)
            else:
                add(r, (m - 1) // 2)
                add(r, (m + 1) // 2)
        else:
            add(r - 1, 2 * m)
    elif family == "F4":
        if a == 1:
            add(2, m)
        elif a == 2:
            add(1, m)
            add(3, 2 * m)
        elif a == 3:
            if m % 2 == 0:
                add(2, m // 2, -1)
                add(2, m // 2, +1)
            else:
                add(2, (m - 1) // 2)
                add(2, (m + 1) // 2)
            add(4, m)
        else:
            add(3, m)
    elif family == "G2":
        if a == 1:
            add(2, 3 * m)
        else:
            q, rem = divmod(m, 3)
            if rem == 0:
                add(1, q, -2)
                add(1, q)
                add(1, q, +2)
            elif rem == 1:
                add(1, q, -1)
                add(1, q, +1)
                add(1, q + 1)
            else:
                add(1, q)
                add(1, q + 1, -1)
                add(1, q + 1, +1)
    else:
        raise ValueError(f"unknown family {family!r}")
    return out


def transpose_factors(family, rank, level):
    """The Y-relation numerators, built in one pass over g_factors.

    Returns {(a, m): [(b, k, ds)]}: the factors (1+Y^{(b)}_k(u+ds/t)) in the
    numerator of the Y-relation at (a, m, u), listed in ascending (b, k).
    """
    cd = cartan_data(family, rank)
    rows = [(a, m) for a in range(1, rank + 1) for m in range(1, cd["t_a"][a] * level)]
    out = {row: [] for row in rows}
    for b, k in rows:
        for a, m, ds in g_factors(family, rank, level, b, k):
            out[(a, m)].append((b, k, -ds))
    return out
