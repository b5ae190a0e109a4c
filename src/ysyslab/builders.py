"""Constructors for the level-l exchange quivers, all with simple arrows.

The quivers for types C_r, F4 and G2 fold the columns of a figure onto the
Dynkin nodes, one column table per family (column_table).  Column col of
node a has t_a*level - 1 rows and is a tall (bullet) column when t_a = t, a
short (circle) one otherwise.  The arrows follow local orientation rules
read off the defining diagrams:

* every column alternates vertex signs (or region tags) with the row index;
* vertical arrows run from "+" to "-" inside each column;
* horizontal arrows between same-fill neighbour columns run from "-" to "+";
* a tall column meets its short (circle) neighbours only at matching grid
  heights: bullet row t*k fans out to circle row k, and "-" circles send
  diagonals back into the adjacent bullet rows.

One builder applies these rules for C and F4; G2 fans its bullet column out
to the circles by their region tags.  The symmetries (involutions) are read
off the column table too.

Square products of simply laced Dynkin diagrams with an A_{level-1} chain
are provided for the mutation-equivalence checks.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from itertools import permutations

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


def column_table(family, rank):
    """{col: a}, the Dynkin node a of each column of the C/F4/G2 figure, in
    column order.

    The vertex in column col and row m that is mutated at time u carries
    Y^{(a)}_m(u) and T^{(a)}_m(u - 1/t_a); these mutation points are the
    labelled values, one for each point of the P'+ grid.
    """
    if family == "C":
        return {col: min(col, rank) for col in range(1, rank + 2)}  # both circle columns carry a = r
    if family == "F4":
        return {1: 1, 2: 2, 3: 3, 4: 4, 5: 2, 6: 1}
    if family == "G2":
        return {1: 1, 2: 1, 3: 1, 4: 2}
    raise ValueError(f"no column table for family {family!r}")


class QuiverModel:
    """A built quiver together with its vertex index and symmetry data."""

    def __init__(self, spec, quiver, index):
        self.spec = spec
        self.quiver = quiver
        self.index = index  # (col, row) -> vertex id
        folded = spec.family in ("C", "F4", "G2")
        self.cartan = cartan_data(spec.family, spec.rank) if folded else None
        self.columns = column_table(spec.family, spec.rank) if folded else None  # col -> Dynkin node a

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
    """The QuiverModel of verts and arrows.  Each arrow writes +-1, and one given
    twice or against another raises ValueError, so B has entries in {-1, 0, 1}."""
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


def _arrow(p, q, forward):
    return (p, q) if forward else (q, p)


def _grid(spec, tag):
    """The vertices of a C/F4/G2 figure, tagged tag(col, row), in vertex
    order, and the vertical arrows, which leave the "+" or I/II/III vertex of
    each pair of neighbours in a column.

    Column col of node a = column_table[col] has t_a*level - 1 rows and is a
    bullet column when t_a = t, a circle column otherwise; the vertex order
    lists the bullet columns, then the circle columns, each in column order.
    """
    cd = cartan_data(spec.family, spec.rank)
    t_a = {col: cd["t_a"][a] for col, a in column_table(spec.family, spec.rank).items()}
    verts, arrows = [], []
    for col in sorted(t_a, key=lambda col: t_a[col] != cd["t"]):
        fill = FILL_BULLET if t_a[col] == cd["t"] else FILL_CIRCLE
        rows = range(1, t_a[col] * spec.level)
        verts += [((col, k), Vertex(col, k, fill, tag(col, k))) for k in rows]
        arrows += [_arrow((col, k), (col, k + 1), tag(col, k) in ("+", "I", "II", "III")) for k in rows[:-1]]
    return verts, arrows


def _build_folded(spec, plus_on_odd, pairs, fan):
    """A C or F4 quiver: "+" on the odd rows of the columns in plus_on_odd
    and on the even rows of the others; along each row of a same-fill column
    pair, an arrow from its "-" vertex to its "+" one; and bullet row 2k of
    the tall column fan[0] fanning out to row k of each circle column in
    fan[1], whose "-" rows send diagonals back to bullet rows 2k - 1, 2k + 1.
    """

    def sign(col, row):
        return "+" if (row % 2 == 1) == (col in plus_on_odd) else "-"

    verts, arrows = _grid(spec, sign)
    for a, b in pairs:
        arrows += [_arrow((a, k), (b, k), sign(a, k) == "-") for (col, k), _ in verts if col == a]
    tall, circles = fan
    for c, k in (pos for pos, _ in verts if pos[0] in circles):
        arrows.append(((tall, 2 * k), (c, k)))
        if sign(c, k) == "-":
            arrows += [((c, k), (tall, 2 * k - 1)), ((c, k), (tall, 2 * k + 1))]
    return _finish(spec, verts, arrows)


def _build_G2(spec):
    def tag(col, row):
        if col == 4:
            return "+" if row % 2 == 1 else "-"
        return _G2_TAGS[(col, row % 2)]

    verts, arrows = _grid(spec, tag)
    for (i, k), _ in verts:
        if i != 4:
            outs, ins = _G2_FAN[tag(i, k)]
            arrows += [((i, k), (4, 3 * k + d)) for d in outs] + [((4, 3 * k + d), (i, k)) for d in ins]
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
        r = spec.rank
        plus_on_odd = {i for i in range(1, r) if (r - i) % 2} | {r}
        return _build_folded(spec, plus_on_odd, [(i, i + 1) for i in range(1, r - 1)], (r - 1, (r, r + 1)))
    if spec.family == "F4":
        return _build_folded(spec, {1, 3, 5}, [(3, 4), (1, 2), (5, 6)], (3, (2, 5)))
    if spec.family == "G2":
        return _build_G2(spec)
    return _build_square_product(spec)


# -- involutions -------------------------------------------------------------


def involutions(m):
    """Symmetry permutations of a built C/F4/G2 quiver, read off its column table.

    "omega" sends (col, row) to (sigma(col), t_a*level - row), with a the
    node of col.  sigma reverses the columns of each node when h_dual is odd
    (F4 and even-rank C, where it swaps a node's two columns) and is the
    identity otherwise.  C and F4 also have "r", that reversal on its own,
    keeping the rows.  G2 has "nu_<s>" for every permutation s of {1,2,3}
    instead (keyed e.g. "nu_132" meaning columns 1,2,3 are renamed to 1,3,2
    in one-line notation).
    """
    if m.columns is None:
        raise ValueError("involutions are defined for the C/F4/G2 quivers only")
    node_cols = {}
    for col, a in m.columns.items():
        node_cols.setdefault(a, []).append(col)
    mirror = {col: cols[-1 - i] for cols in node_cols.values() for i, col in enumerate(cols)}
    sigma = mirror if m.cartan["h_dual"] % 2 else {col: col for col in mirror}
    t_a, lev = m.cartan["t_a"], m.spec.level
    out = {"omega": m.perm_from_position_map(lambda col, row: (sigma[col], t_a[m.columns[col]] * lev - row))}
    if m.spec.family == "G2":
        for s in permutations((1, 2, 3)):
            out["nu_" + "".join(map(str, s))] = m.perm_from_position_map(
                lambda col, row, s=s: (s[col - 1] if col != 4 else col, row)
            )
    else:
        out["r"] = m.perm_from_position_map(lambda col, row: (mirror[col], row))
    return out
