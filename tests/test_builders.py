import numpy as np
import pytest

from tests.conftest import CASES, cached_model
from tests import oracle
from tests.oracle import compose_perms
from ysyslab.builders import FamilySpec, _finish, build, cartan_data, involutions
from ysyslab.roots import level2_core
from ysyslab.quiver import FILL_BULLET, FILL_CIRCLE, Vertex
from ysyslab.suite import DEFAULT_PAIRS


def vertex_count(family, rank, level):
    if family == "C":
        return (rank - 1) * (2 * level - 1) + 2 * (level - 1)
    if family == "F4":
        return 4 * (level - 1) + 2 * (2 * level - 1)
    if family == "G2":
        return 3 * (level - 1) + (3 * level - 1)
    raise ValueError


def test_vertex_counts():
    for level in range(2, 6):
        for rank in range(2, 7):
            assert cached_model("C", rank, level).n == vertex_count("C", rank, level)
        assert cached_model("F4", 4, level).n == vertex_count("F4", 4, level)
        assert cached_model("G2", 2, level).n == vertex_count("G2", 2, level)


def test_cartan_data():
    c3 = cartan_data("C", 3)
    assert (c3["h"], c3["h_dual"]) == (6, 4)
    assert c3["t_a"] == {1: 2, 2: 2, 3: 1}
    f4 = cartan_data("F4")
    assert (f4["h"], f4["h_dual"], f4["t"]) == (12, 9, 2)
    g2 = cartan_data("G2")
    assert (g2["t"], g2["t_a"]) == (3, {1: 1, 2: 3})
    assert cartan_data("C", 2)["dim"] == 10 and f4["dim"] == 52 and g2["dim"] == 14


FOLDED_CASES = [("C", rank, level) for rank in range(2, 9) for level in range(2, 9)] + [
    (family, rank, level) for family, rank in (("F4", 4), ("G2", 2)) for level in range(2, 9)
]


@pytest.mark.parametrize("family,rank,level", FOLDED_CASES)
def test_column_table_matches_typed_builders(family, rank, level):
    # the quiver, its vertex order, its symmetries, the node of every column
    # and the level-2 core all equal the ones typed family by family
    spec = FamilySpec(family, rank, level)
    m, ref = build(spec), {"C": oracle.build_C, "F4": oracle.build_F4, "G2": oracle.build_G2}[family](spec)
    assert np.array_equal(m.quiver.B, ref.quiver.B)
    assert m.quiver.meta == ref.quiver.meta
    assert list(m.index.items()) == list(ref.index.items())
    assert involutions(m) == oracle.involutions(ref)
    assert m.columns == {col: oracle.column_fold(family, rank, col) for col in sorted({v.col for v in m.quiver.meta})}
    assert level2_core(m) == oracle.level2_core(ref)


def test_invalid_specs():
    with pytest.raises(ValueError):
        FamilySpec("C", 1, 2)
    with pytest.raises(ValueError):
        FamilySpec("C", 3, 1)
    with pytest.raises(ValueError):
        FamilySpec("F4", 3, 2)
    with pytest.raises(ValueError):
        FamilySpec("X9", 2, 2)
    for family, rank, message in (("A", 0, "type A needs rank >= 1"), ("D", 2, "type D needs rank >= 3"),
                                  ("E6", 5, "type E6 has rank 6"), ("G2", 3, "type G2 has rank 2")):
        with pytest.raises(ValueError, match=message):
            FamilySpec(family, rank, 3)
    for rank, level in ((2.0, 2), (2, 3.0), (True, 2), (2, "3")):
        with pytest.raises(ValueError, match="must be an integer"):
            FamilySpec("C", rank, level)
    assert FamilySpec("C", np.int64(2), 2).rank == 2


def arrows_by_position(model):
    return {
        (model.position(i), model.position(j)) for i, j in model.quiver.arrows()
    }


# Snapshot fixtures transcribed directly from the defining figures at small size.

C2_L2_ARROWS = {
    ((1, 1), (1, 2)),
    ((1, 3), (1, 2)),
    ((1, 2), (2, 1)),
    ((1, 2), (3, 1)),
    ((3, 1), (1, 1)),
    ((3, 1), (1, 3)),
}

C3_L2_ARROWS = {
    ((1, 2), (1, 1)),
    ((1, 2), (1, 3)),
    ((2, 1), (2, 2)),
    ((2, 3), (2, 2)),
    ((1, 1), (2, 1)),
    ((2, 2), (1, 2)),
    ((1, 3), (2, 3)),
    ((2, 2), (3, 1)),
    ((2, 2), (4, 1)),
    ((4, 1), (2, 1)),
    ((4, 1), (2, 3)),
}

F4_L2_ARROWS = {
    ((3, 1), (3, 2)),
    ((3, 3), (3, 2)),
    ((4, 2), (4, 1)),
    ((4, 2), (4, 3)),
    ((4, 1), (3, 1)),
    ((3, 2), (4, 2)),
    ((4, 3), (3, 3)),
    ((2, 1), (1, 1)),
    ((6, 1), (5, 1)),
    ((3, 2), (2, 1)),
    ((3, 2), (5, 1)),
    ((2, 1), (3, 1)),
    ((2, 1), (3, 3)),
}

G2_L2_ARROWS = {
    ((4, 1), (4, 2)),
    ((4, 3), (4, 2)),
    ((4, 3), (4, 4)),
    ((4, 5), (4, 4)),
    ((1, 1), (4, 1)),
    ((1, 1), (4, 3)),
    ((1, 1), (4, 5)),
    ((4, 2), (1, 1)),
    ((4, 4), (1, 1)),
    ((4, 2), (2, 1)),
    ((4, 4), (2, 1)),
    ((2, 1), (4, 3)),
    ((3, 1), (4, 3)),
}


@pytest.mark.parametrize(
    "family,rank,level,expected",
    [
        ("C", 2, 2, C2_L2_ARROWS),
        ("C", 3, 2, C3_L2_ARROWS),
        ("F4", 4, 2, F4_L2_ARROWS),
        ("G2", 2, 2, G2_L2_ARROWS),
    ],
)
def test_small_quiver_snapshots(family, rank, level, expected):
    assert arrows_by_position(cached_model(family, rank, level)) == expected


def test_fills_and_tags():
    m = cached_model("C", 3, 3)
    tall = [v for v in range(m.n) if m.quiver.meta[v].fill == FILL_BULLET]
    short = [v for v in range(m.n) if m.quiver.meta[v].fill == FILL_CIRCLE]
    assert len(tall) == 2 * 5 and len(short) == 2 * 2
    g = cached_model("G2", 2, 3)
    tags = {g.quiver.meta[g.vid(c, k)].tag for c in (1, 2, 3) for k in (1, 2)}
    assert tags == {"I", "II", "III", "IV", "V", "VI"}


def test_involutions_are_involutions():
    for family, rank, level in [("C", 3, 2), ("C", 4, 3), ("F4", 4, 2), ("G2", 2, 3)]:
        m = cached_model(family, rank, level)
        invs = involutions(m)
        ident = tuple(range(m.n))
        assert compose_perms(invs["omega"], invs["omega"]) == ident
        if "r" in invs:
            assert compose_perms(invs["r"], invs["r"]) == ident


def test_omega_symmetry_all_cases():
    for family in ("C", "F4", "G2"):
        for rank in (2, 3, 4, 5) if family == "C" else [cartan_data(family)["h"] // 3]:
            rank = {"F4": 4, "G2": 2}.get(family, rank)
            for level in (2, 3, 4, 5):
                m = cached_model(family, rank, level)
                invs = involutions(m)
                omega_Q = m.quiver.apply_perm(invs["omega"])
                even = (m.cartan["h_dual"] + level) % 2 == 0
                if even:
                    assert omega_Q == m.quiver
                elif family == "G2":
                    assert omega_Q == m.quiver.apply_perm(invs["nu_321"]).opposite()
                else:
                    assert omega_Q == m.quiver.apply_perm(invs["r"])


def test_g2_has_no_reflection():
    invs = involutions(cached_model("G2", 2, 3))
    assert "r" not in invs
    with pytest.raises(KeyError):
        invs["r"]


def test_column_cycled_copy_is_isomorphic():
    from ysyslab.quiver import find_isomorphism

    m = cached_model("G2", 2, 3)
    nu = involutions(m)["nu_213"]
    image = m.quiver.apply_perm(nu)
    p = find_isomorphism(m.quiver, image)
    assert p is not None and m.quiver.apply_perm(p) == image


def test_nu_composition():
    m = cached_model("G2", 2, 4)
    invs = involutions(m)

    def one_line(name):
        return tuple(int(ch) for ch in name.split("_")[1])

    names = [k for k in invs if k.startswith("nu_")]
    for n1 in names:
        for n2 in names:
            s1, s2 = one_line(n1), one_line(n2)
            comp = tuple(s1[s2[i] - 1] for i in range(3))
            target = invs["nu_" + "".join(map(str, comp))]
            assert compose_perms(invs[n1], invs[n2]) == target


def test_square_product_shape():
    m = build(FamilySpec("A", 3, 4))
    assert m.n == 9
    B = m.quiver.B
    # alternating product: every unit square is an oriented 4-cycle
    for i in (1, 2):
        for j in (1, 2):
            cyc = [m.vid(i, j), m.vid(i + 1, j), m.vid(i + 1, j + 1), m.vid(i, j + 1)]
            total = sum(
                abs(B[cyc[a], cyc[(a + 1) % 4]]) for a in range(4)
            )
            signs = {B[cyc[a], cyc[(a + 1) % 4]] for a in range(4)}
            assert total == 4 and signs in ({1}, {-1})
    d = build(FamilySpec("D", 5, 3))
    assert d.n == 10


SQUARE_PRODUCTS = sorted({side for pair in DEFAULT_PAIRS for side in pair if side[0] in ("A", "D")}) + [
    ("E6", 6, 2),
    ("E6", 6, 3),
]


@pytest.mark.parametrize("family,rank,level", list(CASES) + SQUARE_PRODUCTS)
def test_built_quivers_have_simple_arrows(family, rank, level):
    # the builders are the one place that writes B: +-1 per arrow, so every
    # built quiver has entries in {-1, 0, 1}; Quiver itself holds any
    # skew-symmetric matrix and does not check this again
    B = build(FamilySpec(family, rank, level)).quiver.B
    assert set(np.unique(B).tolist()) <= {-1, 0, 1} and B.any()


def finish(arrows):
    verts = [((1, row), Vertex(1, row)) for row in (1, 2, 3)]
    return _finish(FamilySpec("C", 2, 2), verts, arrows)


@pytest.mark.parametrize(
    "arrows",
    [[((1, 1), (1, 2)), ((1, 1), (1, 2))], [((1, 1), (1, 2)), ((1, 2), (1, 1))]],
    ids=["repeated", "antiparallel"],
)
def test_finish_refuses_a_second_arrow_between_two_vertices(arrows):
    assert finish(arrows[:1]).quiver.B[0, 1] == 1
    with pytest.raises(ValueError, match="duplicate arrow"):
        finish(arrows)


def test_finish_refuses_a_loop():
    # a loop writes +1 then -1 on the diagonal, which is not skew-symmetric
    with pytest.raises(ValueError, match="B is not skew-symmetric"):
        finish([((1, 2), (1, 2))])
