"""The benchmark's checker accepts ysyslab's true outputs and rejects corrupted ones.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import (  # noqa: E402
    HEADROOM_CAP,
    Tally,
    di_rhs,
    find_permutation,
    mutate,
    mutation_points,
    path_reaches,
    tropical_tallies,
)

# (N+, N-) of small cases, worked out by hand from the paper's tallies
TALLIES = {
    ("C", 2, 2): (20, 20),
    ("C", 3, 2): (36, 48),
    ("F4", 4, 2): (56, 120),
    ("G2", 2, 2): (60, 48),
}


@pytest.mark.parametrize("case, tallies", TALLIES.items())
def test_tallies_match_worked_values(case, tallies):
    assert tropical_tallies(*case) == tallies
    assert sum(tallies) == mutation_points(*case)


@pytest.mark.parametrize("family, rank", [("C", 2), ("C", 5), ("F4", 4), ("G2", 2)])
@pytest.mark.parametrize("level", [2, 3, 7])
def test_tallies_add_up_and_match_the_constant_identity(family, rank, level):
    npos, nneg = tropical_tallies(family, rank, level)
    assert npos + nneg == mutation_points(family, rank, level)
    # N- spread over the t (h* + l) steps of a half period is the constant sum
    _, hd, t = {"C": (0, rank + 1, 2), "F4": (0, 9, 2), "G2": (0, 4, 3)}[family]
    assert Fraction(nneg, t * (hd + level)) == di_rhs(family, rank, level)


def test_di_rhs_exact_values():
    assert di_rhs("C", 2, 2) == Fraction(2 * (2 * 4 - 3), 5)
    assert di_rhs("G2", 2, 20) == Fraction(29, 3)
    assert di_rhs("C", 8, 20) == Fraction(2488, 29)


def _rows_ok(rows):
    tally = Tally()
    for case, check, status, metrics in rows:
        tally.row(case, check, status, metrics)
    return tally


GOOD = [
    (("C", 2, 2), "tropical-counts", "pass", {"got": [20, 20], "expected": [20, 20]}),
    (("C", 2, 2), "numeric-residuals", "pass", {"max_residual": 1e-12, "tol": 1e-9}),
    (("C", 2, 2), "numeric-periodicity", "pass", {"max_error": 0.0, "tol": 1e-8}),
    (("C", 2, 2), "dilog-constant", "pass", {"lhs": 2.0 + 1e-12, "rhs": 2.0, "abs_error": 1e-12}),
    (("C", 2, 2), "dilog-functional", "pass",
     {"max_deviation": 1e-9, "seed_spread": 1e-10, "targets": [20, 20]}),
]


def test_true_outputs_pass_with_headroom():
    tally = _rows_ok(GOOD)
    assert tally.failed == 0 and tally.attempted > len(GOOD)
    assert tally.headroom == pytest.approx(3.0)


def test_zero_error_is_capped():
    tally = Tally()
    tally.within(0.0, 1e-8, "exact")
    assert tally.headroom == HEADROOM_CAP and tally.failed == 0


@pytest.mark.parametrize("index, field, value", [
    (0, "got", [21, 20]),
    (1, "max_residual", 2e-9),
    (2, "max_error", float("nan")),
    (2, "max_error", float("inf")),
    (3, "lhs", 2.0 + 2e-8),
    (3, "rhs", 2.5),
    (4, "targets", [20, 21]),
    (4, "seed_spread", 1e-5),
])
def test_corrupted_value_is_rejected(index, field, value):
    rows = [(c, k, s, dict(m)) for c, k, s, m in GOOD]
    rows[index][3][field] = value
    tally = _rows_ok(rows)
    assert tally.failed >= 1, tally.failures


def test_failing_status_is_rejected():
    tally = _rows_ok([(("C", 2, 2), "schedule", "fail", {})])
    assert tally.failed == 1


# A -> B -> C, the linear A3 quiver
A3 = [[0, 1, 0], [-1, 0, 1], [0, -1, 0]]


def test_mutation_formula():
    # mutating at B reverses its arrows and adds A -> C: the cycle A -> C -> B -> A
    assert mutate(A3, 1) == [[0, -1, 1], [1, 0, -1], [-1, 1, 0]]
    assert mutate(mutate(A3, 1), 1) == A3


def test_permutation_is_explicit():
    reversed_a3 = [[0, -1, 0], [1, 0, -1], [0, 1, 0]]  # C -> B -> A
    p = find_permutation(A3, reversed_a3)
    assert p == [2, 1, 0]
    assert find_permutation(A3, mutate(A3, 1)) is None


def test_path_replay_accepts_and_rejects():
    cycle = mutate(A3, 1)
    assert path_reaches(A3, cycle, [1])
    assert path_reaches(A3, A3, [1, 1])
    assert not path_reaches(A3, cycle, [0])
    assert not path_reaches(A3, cycle, [1, 1])
    assert not path_reaches(A3, cycle, [3])


def test_corrupted_path_from_the_program_is_rejected():
    from ysyslab.builders import FamilySpec, build
    from ysyslab.suite import run_suite

    pair = (("G2", 2, 3), ("C", 3, 3))
    (row,) = run_suite({"cases": [], "pairs": [pair]})
    start, target = (build(FamilySpec(*side)).quiver.B.tolist() for side in pair)
    moves = row.metrics["moves"]
    assert path_reaches(start, target, moves)
    tally = Tally()
    tally.row(row.case, row.check, row.status, dict(row.metrics, moves=moves[:-1]), (start, target))
    assert tally.failed == 1
