"""Constructors for the level-restricted exchange quivers.

The quivers for types C_r, F4 and G2 are generated from local orientation
rules read off the defining diagrams:

* every column alternates vertex signs (or region tags) with the row index;
* vertical arrows run from "+" to "-" inside each column;
* horizontal arrows between tall (bullet) columns run from "-" to "+";
* a tall column meets its short (circle) neighbours only at matching grid
  heights: bullet row t*k fans out to circle row k, and "-" circles send
  diagonals back into the adjacent bullet rows.

Square products of simply laced Dynkin diagrams with an A_{level-1} chain
are provided for the mutation-equivalence checks.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .quiver import FILL_BULLET, FILL_CIRCLE, Quiver, Vertex

ROMAN = ("I", "II", "III", "IV", "V", "VI")

#: region tag of a circle vertex in the G2 quiver by (column, row parity)
_G2_TAGS = {
    (1, 1): "IV",
    (1, 0): "I",
    (2, 1): "II",
    (2, 0): "V",
    (3, 1): "VI",
    (3, 0): "III",
}

#: circle -> bullet attachments for each G2 region tag, as (offsets_out, offsets_in)
#: relative to the aligned bullet row 3k.
_G2_FAN = {
    "IV": ((-2, 0, 2), (-1, 1)),
    "I": ((), (0,)),
    "II": ((0,), (-1, 1)),
    "V": ((-1, 1), (0,)),
    "VI": ((0,), ()),
    "III": ((-1, 1), (-2, 0, 2)),
}


#: The rank of each family whose rank is fixed.
FIXED_RANK = {"F4": 4, "G2": 2, "E6": 6}
#: The least rank of each family whose rank is free.
MIN_RANK = {"C": 2, "A": 1, "D": 3}


@dataclass(frozen=True)
class FamilySpec:
    """A build target: family in {"C","F4","G2","A","D","E6"} and level >= 2.

    F4, G2 and E6 have the fixed ranks of FIXED_RANK; C, A and D take any
    rank from MIN_RANK on.  Families "A", "D", "E6" request the square
    product with A_{level-1}.
    """

    family: str
    rank: int
    level: int

    def __post_init__(self):
        for name in ("rank", "level"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"the {name} must be an integer, not {value!r}")
        if self.level < 2:
            raise ValueError("level must be >= 2")
        if self.family in FIXED_RANK and self.rank != FIXED_RANK[self.family]:
            raise ValueError(f"type {self.family} has rank {FIXED_RANK[self.family]}")
        if self.family in MIN_RANK and self.rank < MIN_RANK[self.family]:
            raise ValueError(f"type {self.family} needs rank >= {MIN_RANK[self.family]}")
        if self.family not in FIXED_RANK and self.family not in MIN_RANK:
            raise ValueError(f"unknown family {self.family!r}")


def cartan_data(family, rank=None):
    """Coxeter data (h, h_dual), scaling numbers t/t_a, and dim of the Lie algebra."""
    if family == "C":
        r = rank
        if r is None or r < MIN_RANK["C"]:
            raise ValueError(f"type C needs rank >= {MIN_RANK['C']}")
        t_a = {a: 2 for a in range(1, r)}
        t_a[r] = 1
        return {"h": 2 * r, "h_dual": r + 1, "t": 2, "t_a": t_a, "dim": r * (2 * r + 1)}
    if family == "F4":
        return {"h": 12, "h_dual": 9, "t": 2, "t_a": {1: 1, 2: 1, 3: 2, 4: 2}, "dim": 52}
    if family == "G2":
        return {"h": 6, "h_dual": 4, "t": 3, "t_a": {1: 1, 2: 3}, "dim": 14}
    raise ValueError(f"no Cartan data for family {family!r}")


class QuiverModel:
    """A built quiver together with its vertex index and symmetry data."""

    def __init__(self, spec, quiver, index):
        self.spec = spec
        self.quiver = quiver
        self.index = index  # (col, row) -> vertex id
        self.cartan = cartan_data(spec.family, spec.rank) if spec.family in ("C", "F4", "G2") else None

    @property
    def n(self):
        return self.quiver.n

    def vid(self, col, row):
        return self.index[(col, row)]

    def position(self, v):
        m = self.quiver.meta[v]
        return (m.col, m.row)

    def perm_from_position_map(self, fn):
        """Index-level permutation from a (col,row) -> (col,row) map."""
        perm = [0] * self.n
        for v in range(self.n):
            perm[v] = self.index[fn(*self.position(v))]
        return tuple(perm)


def _finish(spec, verts, arrows):
    index = {}
    meta = []
    for pos, vert in verts:
        index[pos] = len(meta)
        meta.append(vert)
    n = len(meta)
    B = np.zeros((n, n), dtype=np.int64)
    for src, dst in arrows:
        i, j = index[src], index[dst]
        if B[i, j] != 0:
            raise ValueError(f"duplicate arrow {src} -> {dst}")
        B[i, j] = 1
        B[j, i] = -1
    return QuiverModel(spec, Quiver(B, meta), index)


def _sign_chain(plus_on_odd):
    return lambda row: "+" if (row % 2 == 1) == plus_on_odd else "-"


def _vertical_arrows(col, rows, sign_of):
    out = []
    for k in range(1, rows):
        a, b = (col, k), (col, k + 1)
        out.append((a, b) if sign_of(k) == "+" else (b, a))
    return out


def _build_C(spec):
    r, lev = spec.rank, spec.level
    tall, short = 2 * lev - 1, lev - 1

    def bullet_sign(i, row):
        return "+" if (r - i + row) % 2 == 0 else "-"

    circle_sign = {r: _sign_chain(True), r + 1: _sign_chain(False)}

    verts = []
    for i in range(1, r):
        for k in range(1, tall + 1):
            verts.append(((i, k), Vertex(i, k, FILL_BULLET, bullet_sign(i, k))))
    for i in (r, r + 1):
        for k in range(1, short + 1):
            verts.append(((i, k), Vertex(i, k, FILL_CIRCLE, circle_sign[i](k))))

    arrows = []
    for i in range(1, r):
        arrows += _vertical_arrows(i, tall, lambda k, i=i: bullet_sign(i, k))
    for i in (r, r + 1):
        arrows += _vertical_arrows(i, short, circle_sign[i])
    # bullet-bullet rows: "-" -> "+"
    for i in range(1, r - 1):
        for k in range(1, tall + 1):
            a, b = (i, k), (i + 1, k)
            arrows.append((a, b) if bullet_sign(i, k) == "-" else (b, a))
    # tall column r-1 meets the circle columns
    for k in range(1, short + 1):
        for c in (r, r + 1):
            arrows.append(((r - 1, 2 * k), (c, k)))
            if circle_sign[c](k) == "-":
                arrows.append(((c, k), (r - 1, 2 * k - 1)))
                arrows.append(((c, k), (r - 1, 2 * k + 1)))
    return _finish(spec, verts, arrows)


def _build_F4(spec):
    lev = spec.level
    tall, short = 2 * lev - 1, lev - 1
    circle_cols = (1, 2, 5, 6)
    sign_of = {
        1: _sign_chain(True),
        2: _sign_chain(False),
        3: _sign_chain(True),
        4: _sign_chain(False),
        5: _sign_chain(True),
        6: _sign_chain(False),
    }

    verts = []
    for i in (3, 4):
        for k in range(1, tall + 1):
            verts.append(((i, k), Vertex(i, k, FILL_BULLET, sign_of[i](k))))
    for i in circle_cols:
        for k in range(1, short + 1):
            verts.append(((i, k), Vertex(i, k, FILL_CIRCLE, sign_of[i](k))))

    arrows = []
    for i in (3, 4):
        arrows += _vertical_arrows(i, tall, sign_of[i])
    for i in circle_cols:
        arrows += _vertical_arrows(i, short, sign_of[i])
    for k in range(1, tall + 1):  # bullet pair 4 -- 3
        a, b = (4, k), (3, k)
        arrows.append((a, b) if sign_of[4](k) == "-" else (b, a))
    for k in range(1, short + 1):
        for a, b in ((1, 2), (5, 6)):  # circle pairs
            lo, hi = (a, k), (b, k)
            arrows.append((lo, hi) if sign_of[a](k) == "-" else (hi, lo))
        for c in (2, 5):  # fan from the central tall column
            arrows.append(((3, 2 * k), (c, k)))
            if sign_of[c](k) == "-":
                arrows.append(((c, k), (3, 2 * k - 1)))
                arrows.append(((c, k), (3, 2 * k + 1)))
    return _finish(spec, verts, arrows)


def _build_G2(spec):
    lev = spec.level
    tall, short = 3 * lev - 1, lev - 1

    def bullet_sign(row):
        return "+" if row % 2 == 1 else "-"

    verts = []
    for k in range(1, tall + 1):
        verts.append(((4, k), Vertex(4, k, FILL_BULLET, bullet_sign(k))))
    for i in (1, 2, 3):
        for k in range(1, short + 1):
            verts.append(((i, k), Vertex(i, k, FILL_CIRCLE, _G2_TAGS[(i, k % 2)])))

    arrows = _vertical_arrows(4, tall, bullet_sign)
    for i in (1, 2, 3):
        for k in range(1, short):
            a, b = (i, k), (i, k + 1)
            # sources are the I/II/III-tagged circles
            arrows.append((a, b) if _G2_TAGS[(i, k % 2)] in ("I", "II", "III") else (b, a))
    for i in (1, 2, 3):
        for k in range(1, short + 1):
            outs, ins = _G2_FAN[_G2_TAGS[(i, k % 2)]]
            for d in outs:
                arrows.append(((i, k), (4, 3 * k + d)))
            for d in ins:
                arrows.append(((4, 3 * k + d), (i, k)))
    return _finish(spec, verts, arrows)


# -- simply laced square products -------------------------------------------


def dynkin_edges(family, rank):
    """Edge list of a simply laced Dynkin diagram, 1-based nodes."""
    if family == "A":
        return [(i, i + 1) for i in range(1, rank)]
    if family == "D":
        return [(i, i + 1) for i in range(1, rank - 1)] + [(rank - 2, rank)]
    if family == "E6":
        return [(1, 2), (2, 3), (3, 5), (5, 6), (3, 4)]
    raise ValueError(f"not a simply laced family: {family!r}")


def _bipartition(rank, edges):
    color = {1: 0}
    stack = [1]
    adj = {i: [] for i in range(1, rank + 1)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in color:
                color[w] = 1 - color[v]
                stack.append(w)
    return color


def _build_square_product(spec):
    edges = dynkin_edges(spec.family, spec.rank)
    color = _bipartition(spec.rank, edges)
    rows = spec.level - 1
    verts = [
        ((i, j), Vertex(i, j, FILL_BULLET, "+" if (color[i] + j) % 2 else "-"))
        for i in range(1, spec.rank + 1)
        for j in range(1, rows + 1)
    ]
    arrows = []
    for a, b in edges:  # Dynkin edges inside row j, alternating with j
        if color[a] != 0:
            a, b = b, a
        for j in range(1, rows + 1):
            arrows.append(((a, j), (b, j)) if j % 2 == 1 else ((b, j), (a, j)))
    for i in range(1, spec.rank + 1):  # chain edges inside column i
        for j in range(1, rows):
            lo, hi = (i, j), (i, j + 1)
            arrows.append((lo, hi) if (color[i] + j) % 2 == 0 else (hi, lo))
    return _finish(spec, verts, arrows)


def build(spec):
    """Build the quiver for a FamilySpec (or family string plus rank/level)."""
    if not isinstance(spec, FamilySpec):
        raise TypeError("build expects a FamilySpec")
    if spec.family == "C":
        return _build_C(spec)
    if spec.family == "F4":
        return _build_F4(spec)
    if spec.family == "G2":
        return _build_G2(spec)
    return _build_square_product(spec)


# -- involutions -------------------------------------------------------------


def involutions(m):
    """Symmetry permutations of a built C/F4/G2 quiver.

    Returns a dict with "omega" always present, "r" for C/F4, and "nu_<s>"
    for every permutation s of {1,2,3} for G2 (keyed e.g. "nu_132" meaning
    columns 1,2,3 are renamed to 1,3,2 in one-line notation).
    """
    spec = m.spec
    lev = spec.level
    out = {}
    if spec.family == "C":
        r = spec.rank

        def refl(col, row):
            if col <= r - 1:
                return (col, row)
            return (2 * r + 1 - col, row)

        def omega(col, row):
            if col <= r - 1:
                return (col, 2 * lev - row)
            if r % 2 == 0:
                return (2 * r + 1 - col, lev - row)
            return (col, lev - row)

        out["r"] = m.perm_from_position_map(refl)
        out["omega"] = m.perm_from_position_map(omega)
    elif spec.family == "F4":

        def refl(col, row):
            return ({1: 6, 2: 5, 5: 2, 6: 1}.get(col, col), row)

        def omega(col, row):
            if col in (3, 4):
                return (col, 2 * lev - row)
            return ({1: 6, 2: 5, 5: 2, 6: 1}[col], lev - row)

        out["r"] = m.perm_from_position_map(refl)
        out["omega"] = m.perm_from_position_map(omega)
    elif spec.family == "G2":

        def omega(col, row):
            if col == 4:
                return (col, 3 * lev - row)
            return (col, lev - row)

        out["omega"] = m.perm_from_position_map(omega)
        for s in ((1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)):
            def nu(col, row, s=s):
                return (s[col - 1], row) if col != 4 else (col, row)

            out["nu_" + "".join(map(str, s))] = m.perm_from_position_map(nu)
    else:
        raise ValueError("involutions are defined for the C/F4/G2 quivers only")
    return out
