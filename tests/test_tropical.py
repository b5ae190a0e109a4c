import copy
import re
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from tests import oracle
from tests.conftest import CASES, cached_schedule, cached_tropical, relabelled_window
from tests.oracle import (
    CLOSED_FORM_CASES,
    composite_mutate,
    family_boundary_targets,
    family_expected_counts,
    functional_rhs_doubled,
    total_points,
)
from ysyslab.builders import FamilySpec, build, involutions
from ysyslab.quiver import FILL_CIRCLE, Quiver
from ysyslab.roots import level2_core, pl_dynamics
from ysyslab.schedule import Schedule, run_schedule, slot_operator
from ysyslab.tropical import (
    MIXED,
    NEGATIVE,
    POSITIVE,
    UNIT,
    PeriodicityError,
    TropicalRun,
    boundary_targets,
    expected_counts,
    seed_mismatches,
    sign_classes,
    tropical_plus1,
)


#: The cases of the benchmark's scale workload, and three larger ones.
SCALE_CASES = [("C", 6, 6), ("F4", 4, 5), ("G2", 2, 6)]
LARGE_CASES = [("C", 12, 12), ("F4", 4, 24), ("G2", 2, 30)]
#: The case with the largest tropical record.
C16 = ("C", 16, 16)


def test_sign_classification():
    assert sign_classes(np.array([0, 0, 0])) == UNIT
    assert sign_classes(np.array([1, 0, 2])) == POSITIVE
    assert sign_classes(np.array([-1, 0, 0])) == NEGATIVE
    assert sign_classes(np.array([1, -1])) == MIXED
    rows = np.array([[[0, 0], [2, 0]], [[0, -1], [1, -1]]])
    assert sign_classes(rows).tolist() == [[UNIT, POSITIVE], [NEGATIVE, MIXED]]


def rank2_quiver():
    return Quiver(np.array([[0, 1], [-1, 0]]))


def test_mutation_rule_hand_example():
    # one arrow 1 -> 2; mutating at 1 sends y2 to y2*y1
    Q = rank2_quiver()
    Es, _ = run_schedule(one_step_schedule(slot_operator(Q.B, [0])), 0, 1, np.eye(2, dtype=np.int64), tropical_plus1)
    assert Es[1].tolist() == [[-1, 0], [1, 1]]


def test_mutation_involution_randomized():
    rng = np.random.default_rng(2)
    for _ in range(300):
        n = int(rng.integers(2, 8))
        B = np.zeros((n, n), dtype=np.int64)
        for i in range(n):
            for j in range(i + 1, n):
                B[i, j] = rng.integers(-1, 2)
                B[j, i] = -B[i, j]
        Q = Quiver(B)
        E0 = rng.integers(-3, 4, (n, n))
        # a single vertex half the time, else a random maximal set of
        # pairwise non-adjacent vertices
        order = rng.permutation(n)
        if rng.integers(0, 2):
            order = order[:1]
        ks = []
        for k in order:
            if not B[k, ks].any():
                ks.append(int(k))
        # the two steps as an unverified two-slot schedule
        ops = [slot_operator(Q.B, ks), slot_operator(composite_mutate(Q, ks).B, ks)]
        Es, _ = run_schedule(SimpleNamespace(t=1, operators=ops), 0, 2, E0, tropical_plus1)
        assert np.array_equal(Es[2], E0)


def one_step_schedule(op):
    """An unverified schedule whose every slot operator is op, so that
    run_schedule over any window [s, s + 1] takes the step op."""
    return SimpleNamespace(t=1, operators=[op, op])


def test_float_products_match_integer_step():
    # run_schedule carries an int64 seed in float64; below 2**53 the step's
    # product is exact, so it equals the integer rule for exponents up to 2**40
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        B = np.triu(rng.integers(-2, 3, (n, n)), 1)
        B = B - B.T
        ks = []
        for k in rng.permutation(n)[: int(rng.integers(1, n + 1))]:
            if not B[k, ks].any():
                ks.append(int(k))
        E0 = rng.integers(-(2**40), 2**40 + 1, (n, n))
        P, Ek = B[ks], E0[ks]
        want = E0 + np.maximum(P, 0).T @ Ek - P.T @ np.minimum(Ek, 0)
        want[ks] = -Ek
        Es, _ = run_schedule(one_step_schedule(slot_operator(B, ks)), 0, 1, E0, tropical_plus1)
        assert Es.dtype == np.int64 and np.array_equal(Es[0], E0) and np.array_equal(Es[1], want)


@pytest.mark.parametrize(
    "s_lo, b, seed, want, vertex",
    [
        (0, 1, [[127, 0], [1, 0]], 128, 1),  # row 1 gains [b]+ times row 0
        (0, 2, [[127, 0], [46, 0]], 300, 1),
        (0, -2, [[-100, 0], [0, 0]], -200, 1),  # row 1 loses b times min(row 0, 0)
        (0, 1, [[-128, 0], [0, 0]], 128, 0),  # the exchanged row 0 is negated
        (-1, 1, [[127, 0], [1, 0]], 128, 1),  # the seed stands at s_lo = -1
        (5, 1, [[-128, 0], [0, 0]], 128, 0),  # the seed stands at s_lo = 5
        (0, -1, [[-100, 0], [-28, 0]], -128, 1),  # the int8 minimum is stored
    ],
    ids=["128", "300", "-200", "negated-128", "from-minus-one-128", "from-five-negated-128", "stores-min"],
)
def test_step_past_int8_range_raises(s_lo, b, seed, want, vertex):
    # run_schedule checks each float64 seed before the store casts it to the
    # int8 record, which would wrap 128, 300 and -200 to -128, 44 and 56
    # without a warning; the seed stands at s_lo, and the check names the
    # time of the step's result, the entry as stored and the vertex (the
    # row) holding it, against the true int8 range
    sched = one_step_schedule(slot_operator(np.array([[0, b], [-b, 0]]), [0]))
    window = (s_lo, s_lo + 1)
    Es, _ = run_schedule(sched, *window, np.array(seed, dtype=np.int64), tropical_plus1)
    assert want in Es[1, vertex]  # the exact step
    if -128 <= want <= 127:
        E8, _ = run_schedule(sched, *window, np.array(seed, dtype=np.int8), tropical_plus1)
        assert E8.dtype == np.int8 and np.array_equal(E8, Es)
        return
    message = f"a mutation step to time s={s_lo + 1} gives the entry {want} at vertex {vertex}, outside the int8 range"
    with pytest.raises(ArithmeticError, match=re.escape(f"{message} [-128, 127]")):
        run_schedule(sched, *window, np.array(seed, dtype=np.int8), tropical_plus1)


@pytest.mark.parametrize("family,rank,level", SCALE_CASES)
def test_int8_record_matches_int64_run(family, rank, level):
    # the half record starts from an int8 identity and stays int8; entry for
    # entry it is the run of an int64 identity over 0 <= s <= half_s
    run = TropicalRun(cached_schedule(family, rank, level))
    E0 = np.eye(run.model.n, dtype=np.int64)
    want, _ = run_schedule(run.schedule, 0, run.half_s, E0, tropical_plus1)
    assert run.H.dtype == np.int8 and want.dtype == np.int64
    assert np.array_equal(run.H, want)


@pytest.mark.parametrize("family,rank,level", list(CASES) + SCALE_CASES)
def test_float_products_are_exact_on_int8_records(family, rank, level):
    # TropicalRun does not re-check the 2**53 bound after the run; it rests
    # on an int8 record (each seed checked by run_schedule before it is
    # stored, so the input of each forward step lies in [-128, 127]) and on
    # slot operators whose W has entries in {-2, -1, 0, 1}, each -2 alone in
    # its row, so each partial sum of a step's product is at most
    # 128*(2n + 1)
    run = cached_tropical(family, rank, level)
    assert all(set(np.unique(B).tolist()) <= {-1, 0, 1} for B in run.schedule.matrices)
    assert len(run.schedule.operators) == 2 * run.t
    for op in run.schedule.operators:
        assert set(np.unique(op.W).tolist()) <= {-2, -1, 0, 1}
        rows = np.flatnonzero((op.W == -2).any(1))
        assert rows.tolist() == sorted(op.ks.tolist())
        assert ((op.W[rows] != 0).sum(1) == 1).all()
    assert run.H.dtype == np.int8
    assert 128 * (2 * run.model.n + 1) < 2**53


@pytest.mark.parametrize("family,rank,level", CASES)
def test_block_periodicity_matches_oracle(family, rank, level):
    # with faults planted in the seed, in its image half a period on and
    # at times inside the half record, the check gives the per-time
    # reference's list on the same record, in its order: the seed faults,
    # each at the vertex whose comparison it breaks, and none of the others
    run = cached_tropical(family, rank, level)
    period, n, last = 2 * run.t, run.model.n, run.half_s - 1
    broken = run
    for r, vs in [(0, [0, n - 1]), (1, [0]), (period - 1, [n - 1, 0]), (period, [1]), (last, [2, n - 1])]:
        for v in vs:
            broken = planted_row(broken, r, v, broken.H[r, v] + 1)
    broken = planted_row(broken, run.half_s, 1, broken.H[run.half_s, 1] - 1)
    got = broken.periodicity_mismatches()
    assert got == record_reference(broken)
    positions = {run.model.position(v) for v in (run.omega[0], run.omega[n - 1], 1)}
    assert {(kind, u) for kind, _, u in got} == {("half", 0)} and {pos for _, pos, _ in got} == positions


@pytest.mark.parametrize("family,rank,level", list(CASES) + SCALE_CASES + LARGE_CASES)
def test_one_period_record_premises(family, rank, level):
    # periodicity_mismatches compares the seed and its image half a period
    # on, and monomial relabels the half record by omega: full periodicity
    # follows when omega is an involution and full_s is twice half_s; the
    # record holds 0 <= s <= half_s, and the times it serves,
    # -h_dual*t <= s <= full_s, must hold every time a tropical check reads
    case = (family, rank, level)
    run = TropicalRun(Schedule(build(FamilySpec(*case)))) if case in LARGE_CASES else cached_tropical(*case)
    m, t, sched = run.model, run.t, run.schedule
    hd = m.cartan["h_dual"]
    assert np.array_equal(run.omega[run.omega], np.arange(m.n))
    assert run.full_s == 2 * run.half_s and run.full_s % (2 * t) == 0
    assert len(run.H) == run.half_s + 1 and (run.lo_s, run.full_s) == (-hd * t, 2 * run.half_s)
    reads = {0, run.full_s - 1, run.full_s, level * t}  # counts, periodicity, boundary
    reads |= {-hd * t, level * t - 1, *sched.points(-hd * t, level * t)[0].tolist()}  # sign region
    reads |= {0, 4 * t - 1, *sched.points(0, 4 * t)[0].tolist()}  # shadow window
    if level == 2:
        roots = [level2_core(m)] + [[m.vid(i, 1) for i in range(1, rank)]] * (family == "C")
        reads |= {s for vertices in roots for s, _ in pl_dynamics(sched, vertices)[1]}
    assert run.lo_s <= min(reads) and max(reads) <= run.full_s


def record_reference(run):
    """The per-time reference of TropicalRun.periodicity_mismatches on the
    run's own half record: the half statement at time 0."""
    return oracle.record_periodicity_mismatches(run, run.H, 0, [0], [])


@pytest.mark.parametrize("family,rank,level", CASES)
def test_every_planted_time_is_reported(family, rank, level):
    # each time lo_s <= s <= full_s is read from one entry of the half
    # record; one changed entry there moves every time that entry serves,
    # s + k*half_s with the vertex relabelled by omega when k is odd, and
    # no other; in the seed it fails the seed comparison, as the per-time
    # reference on the same record reports it, and then every read raises
    run = cached_tropical(family, rank, level)
    n, clean = run.model.n, relabelled_window(run)
    for s in range(run.lo_s, run.full_s + 1):
        v = s % n
        broken = planted(run, s, v, run.monomial(v, s) + np.eye(n, dtype=np.int64)[s % 3])
        got = broken.periodicity_mismatches()
        assert got == record_reference(broken), s
        if s % run.half_s == 0:
            assert got, s
            with pytest.raises(PeriodicityError):
                broken.monomial(v, s)
            continue
        assert got == [], s
        moved = {tuple(x) for x in np.argwhere((relabelled_window(broken) != clean).any(2))}
        served = {
            (s2 - run.lo_s, v if (s2 - s) // run.half_s % 2 == 0 else run.omega[v])
            for s2 in range(run.lo_s, run.full_s + 1)
            if (s2 - s) % run.half_s == 0
        }
        assert moved == served, s


def with_operator(schedule, i, op):
    """A copy of the schedule whose slot i applies op: the step out of each
    time of slot i."""
    broken = copy.copy(schedule)
    broken.operators = list(schedule.operators)
    broken.operators[i] = op
    return broken


@pytest.mark.parametrize("family,rank,level", list(CASES) + SCALE_CASES)
def test_wrong_dynamics_fail_both_checks(family, rank, level):
    # slot i's operator built from the matrix of slot j != i, planted after
    # the Schedule has checked its operators, breaks the dynamics; unless
    # the int8 guard stops the run first, or the half record comes out as
    # the clean one, both checks fail: each mismatch the seed comparison
    # reports is one the two-period oracle reports, and no read of the
    # record passes
    clean = cached_tropical(family, rank, level)
    sched = clean.schedule
    period, tried = 2 * sched.t, 0
    for i in range(period):
        for j in set(range(period)) - {i}:
            try:
                run = TropicalRun(with_operator(sched, i, slot_operator(sched.matrices[j], sched.sets[i])))
            except ArithmeticError:
                continue
            got, want = run.periodicity_mismatches(), oracle.periodicity_mismatches(run)
            if np.array_equal(run.H, clean.H):
                assert got == want == [], (i, j)
                continue
            assert got and want and set(got) <= set(want), (i, j)
            with pytest.raises(PeriodicityError, match="seed comparison"):
                run.count_signs()
            tried += 1
    assert tried


@pytest.mark.parametrize("family,rank,level", list(CASES) + SCALE_CASES + LARGE_CASES + [C16])
def test_relabelled_window_matches_two_direction_record(family, rank, level):
    # every time lo_s <= s <= full_s read from the half record through omega
    # is, bit for bit, the record run in both directions from time 0
    case = (family, rank, level)
    cached = case in CASES or case in SCALE_CASES
    run = cached_tropical(*case) if cached else TropicalRun(Schedule(build(FamilySpec(*case))))
    window = relabelled_window(run)
    assert window.dtype == np.int8 and np.array_equal(window, oracle.tropical_record(run))
    assert 2 * run.H.nbytes <= window.nbytes


def test_failed_seed_comparison_fails_every_read():
    # with the seed comparison failed, monomial raises at every time, even
    # those the half record was run over, naming the failed comparison and
    # its first vertex; the counts, signs and boundary reads fail with it
    run = cached_tropical("C", 3, 2)
    broken = planted_row(run, run.half_s, 4, -run.H[run.half_s, 4])
    u = Fraction(run.half_s, run.t)
    message = re.escape(f"the seed comparison E({u})[v] = E(0)[omega(v)] fails at 1 of 8 vertices, first at (2, 2)")
    assert run.model.position(4) == (2, 2)
    for s in (run.lo_s, 0, 1, run.half_s, run.full_s):
        with pytest.raises(PeriodicityError, match=message):
            broken.monomial(0, s)
    for read in (broken.count_signs, broken.sign_pattern_mismatches, broken.boundary_mismatches):
        with pytest.raises(PeriodicityError, match=message):
            read()


def test_monomial_outside_record_raises():
    # the record spans lo_s <= s <= full_s; a time just outside it, on
    # either side, is an IndexError naming that span, not a row read from
    # the other end of the record
    run = cached_tropical("C", 3, 3)
    record = oracle.tropical_record(run)
    for s in (run.lo_s, run.full_s):
        assert np.array_equal(run.monomial(0, s), record[s - run.lo_s, 0])
    for s in (run.lo_s - 1, run.full_s + 1):
        span = f"time s={s} is outside the tropical record [{run.lo_s}, {run.full_s}]"
        with pytest.raises(IndexError, match=re.escape(span)):
            run.monomial(0, s)


def test_first_window_positivity_level2():
    run = cached_tropical("C", 2, 2)
    for s, v in zip(*run.schedule.points(0, 2 * run.t)):
        assert sign_classes(run.monomial(v, s)) == POSITIVE


@pytest.mark.parametrize("family,rank,level", CASES)
def test_counts_match_closed_forms(family, rank, level):
    run = cached_tropical(family, rank, level)
    counts = run.count_signs()
    assert counts == expected_counts(family, rank, level)
    assert sum(counts) == total_points(family, rank, level)


def test_level_rank_duality():
    for r in (2, 3, 4):
        for lev in (2, 3, 4):
            npr, nmr = expected_counts("C", r, lev)
            npl, nml = expected_counts("C", lev, r)
            assert npr == nml and nmr == npl
            assert cached_tropical("C", r, lev).count_signs() == (npr, nmr)


@pytest.mark.parametrize("family,rank,level", list(CASES) + SCALE_CASES)
def test_periodicity_exact(family, rank, level):
    # the one-period record and the seed comparison agree with the per-time
    # comparison over two full periods that the oracle runs itself
    run = cached_tropical(family, rank, level)
    assert run.periodicity_mismatches() == oracle.periodicity_mismatches(run) == []


@pytest.mark.parametrize("family,rank,level", CASES)
def test_boundary_tuples(family, rank, level):
    assert cached_tropical(family, rank, level).boundary_mismatches() == []


@pytest.mark.parametrize("family,rank,level", CASES)
def test_region_sign_patterns(family, rank, level):
    assert cached_tropical(family, rank, level).sign_pattern_mismatches() == []


def test_planted_sign_faults_are_reported():
    # a negated monomial in region one, and another at an exceptional
    # positive time of region two (u = -5/2 on F4), are reported exactly as
    # the point-by-point classification reports them
    run = cached_tropical("F4", 4, 2)
    meta = run.model.quiver.meta
    s1, v1 = (int(a[0]) for a in run.schedule.points(1, 2))
    s2, v2 = next(
        (int(s), int(v))
        for s, v in zip(*run.schedule.points(-5, -4))
        if meta[v].fill != FILL_CIRCLE and meta[v].row % run.t and sign_classes(run.monomial(v, s)) == POSITIVE
    )
    broken = planted(run, s1, v1, -run.monomial(v1, s1))
    broken = planted(broken, s2, v2, -run.monomial(v2, s2))
    got = broken.sign_pattern_mismatches()
    assert got == oracle.sign_pattern_mismatches(broken)
    assert got == [
        (run.model.position(v2), Fraction(-5, 2), NEGATIVE, POSITIVE),
        (run.model.position(v1), Fraction(1, 2), NEGATIVE, POSITIVE),
    ]


def _positive_exception_times(run):
    """Times of region two, -h_dual <= u < 0, at which any thin-row monomial is positive."""
    times = set()
    lo = -run.model.cartan["h_dual"] * run.t
    for s, v in zip(*run.schedule.points(lo, 0)):
        meta = run.model.quiver.meta[v]
        if meta.fill == FILL_CIRCLE:
            continue
        period = 3 if run.spec.family == "G2" else 2
        if meta.row % period == 0:
            continue
        if sign_classes(run.monomial(v, s)) == POSITIVE:
            times.add(Fraction(s, run.t))
    return times


def test_exceptional_positive_times_exact():
    f4 = {Fraction(x) for x in ("-2", "-5/2", "-9/2", "-5", "-7", "-15/2")}
    g2 = {Fraction(x) for x in ("-1", "-4/3", "-5/3", "-8/3", "-3", "-10/3")}
    for lev in (2, 3):
        assert _positive_exception_times(cached_tropical("F4", 4, lev)) == f4
        assert _positive_exception_times(cached_tropical("G2", 2, lev)) == g2
    for r in (3, 4):
        hd = Fraction(r + 1)
        want = {-hd / 2, -hd / 2 - Fraction(1, 2)}
        assert _positive_exception_times(cached_tropical("C", r, 2)) == want
    # at rank 2 only the thin rows of one parity exist, so a subset appears
    assert _positive_exception_times(cached_tropical("C", 2, 2)) <= {
        Fraction(-3, 2),
        Fraction(-2),
    }


def planted_row(run, r, w, vec):
    """A copy of the run whose half record holds vec as row w of time r, with
    its seed comparison made again."""
    broken = copy.copy(run)
    broken.H = run.H.copy()
    broken.H[r, w] = vec
    broken.seed_mismatches = seed_mismatches(broken.H, broken.omega)
    return broken


def planted(run, s, v, vec):
    """A copy of the run whose monomial of vertex v at time s is vec: the
    entry of the half record that serves it, changed."""
    q, r = divmod(s, run.half_s)
    return planted_row(run, r, run.omega[v] if q % 2 else v, vec)


def test_mixed_monomial_raises():
    run = cached_tropical("C", 2, 2)
    broken = planted(run, 2, run.schedule.sets[2][0], [1, -1, 0, 0, 0])
    with pytest.raises(ArithmeticError, match="mixed"):
        broken.count_signs()


def test_unit_monomial_raises():
    run = cached_tropical("C", 2, 2)
    v = run.schedule.sets[1][0]
    broken = planted(run, 1, v, 0)
    message = f"unit tropical monomial at vertex {run.model.position(v)}, u=1/2"
    with pytest.raises(ArithmeticError, match=re.escape(message)):
        broken.count_signs()


def test_planted_periodicity_fault_is_reported():
    # one changed exponent of the seed breaks the half statement at the
    # vertex omega maps it to, and one changed at s = half_s at its own
    # vertex, both at u = 0; one changed at s = 1 is read by no comparison,
    # since E(1 + half_s) is read from it
    run = cached_tropical("C", 3, 2)
    v, bump = 2, np.eye(run.model.n, dtype=np.int64)[0]
    broken = planted_row(run, 0, v, run.H[0, v] + bump)
    assert broken.periodicity_mismatches() == [("half", run.model.position(run.omega[v]), Fraction(0))]
    broken = planted_row(run, run.half_s, v, run.H[run.half_s, v] + bump)
    assert broken.periodicity_mismatches() == [("half", run.model.position(v), Fraction(0))]
    broken = planted(run, 1, v, run.monomial(v, 1) + bump)
    assert broken.periodicity_mismatches() == []
    assert np.array_equal(broken.monomial(run.omega[v], 1 + run.half_s), run.monomial(v, 1) + bump)


def test_planted_boundary_fault_is_reported():
    # u = level and u = -h_dual are half a period apart, so both boundary
    # tuples are read from one time of the half record; the check compares
    # the one at u = level, and a fault there is reported once
    run = cached_tropical("G2", 2, 3)
    s, v = 3 * run.t, 5
    broken = planted(run, s, v, -run.monomial(v, s))
    targets, w = boundary_targets(run.model, run.omega), run.omega[v]
    assert s - run.half_s == -4 * run.t
    assert np.array_equal(broken.monomial(w, -4 * run.t), -run.monomial(w, -4 * run.t))
    assert broken.boundary_mismatches() == [(Fraction(3), run.model.position(v), targets[v])]


@pytest.mark.parametrize("family,rank,level", CLOSED_FORM_CASES)
def test_closed_forms_match_family_formulas(family, rank, level):
    # the boundary targets read off omega and the tallies read off the Lie
    # data equal the per-family closed forms, and the doubled tallies the
    # printed doubled functional sums; the target at u = -h_dual is the one
    # at u = level relabelled by omega
    model = build(FamilySpec(family, rank, level))
    omega, t = involutions(model)["omega"], model.cartan["t"]
    at_level = boundary_targets(model, omega)
    at_minus_hd = [at_level[w] for w in omega]
    assert {level * t: at_level, -model.cartan["h_dual"] * t: at_minus_hd} == family_boundary_targets(model)
    npos, nneg = expected_counts(family, rank, level)
    assert (npos, nneg) == family_expected_counts(family, rank, level)
    assert npos + nneg == total_points(family, rank, level)
    assert (2 * nneg, 2 * npos) == functional_rhs_doubled(family, rank, level)
