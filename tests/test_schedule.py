import json
import re
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from tests.conftest import (
    CASES,
    SEEDS,
    cached_model,
    cached_numeric,
    cached_schedule,
    cached_tropical,
    relabelled_window,
)
from tests.oracle import (
    NumericSeedPayload,
    PiecewisePlan,
    TropicalCoefficients,
    composite_mutate,
    grid_points,
    int64_slot_cycle,
    label_g,
    label_g_prime,
    parity_plus,
    mutate_slot,
    run_payload,
    run_slots,
    run_two_product,
    trivial_plus1,
)
from ysyslab.builders import FamilySpec, build, involutions
from ysyslab.gfun import transpose_factors
from ysyslab.quiver import Quiver
from ysyslab import numeric, schedule, tropical
from ysyslab.schedule import Relations, Schedule, ScheduleError, run_schedule, slot_sets
from ysyslab.numeric import NumericRun, real_plus1, tropical_shadow_mismatches
from ysyslab.cli import main
from ysyslab.tropical import TropicalRun, tropical_plus1


def test_parity_shift_relation():
    # (a,m,u) is in the primed class iff (a, m, u +- 1/t_a) is in the plain one
    for family, rank, level in [("C", 3, 2), ("C", 4, 3), ("F4", 4, 3), ("G2", 2, 3)]:
        m = cached_model(family, rank, level)
        t = m.cartan["t"]
        for a, mm, s in grid_points(family, rank, level, -2 * t, 2 * t, prime=True):
            dt = t // m.cartan["t_a"][a]
            assert parity_plus(family, rank, a, mm, s + dt)
            assert parity_plus(family, rank, a, mm, s - dt)


@pytest.mark.parametrize("family,rank,level", CASES)
def test_label_bijection_covers_mutation_points(family, rank, level):
    m = cached_model(family, rank, level)
    t = m.cartan["t"]
    sets = slot_sets(m)
    window = range(0, 2 * t)
    targets = {(v, s) for s in window for v in sets[s % (2 * t)]}
    image = []
    for a, mm, s in grid_points(family, rank, level, 0, 2 * t, prime=True):
        image.append(label_g_prime(m, a, mm, s))
    assert len(image) == len(set(image)) == len(targets)
    assert set(image) == targets


def test_label_g_matches_prime_map_timing():
    m = cached_model("C", 3, 2)
    # short-root row: vertex equals the grid column, time advances by 1/t_a
    v, s = label_g(m, 1, 2, -1)  # w = -1/2, u = 0
    assert m.position(v) == (1, 2) and s == 0
    # long-root rows alternate between the two circle columns with m+u
    v, s = label_g(m, 3, 1, -2)  # w = -1, u = 0, m+u odd -> column rank
    assert m.position(v) == (3, 1) and s == 0
    v, s = label_g(m, 3, 1, 0)  # w = 0, u = 1, m+u even -> column rank+1
    assert m.position(v) == (4, 1) and s == 2
    g = cached_model("G2", 2, 3)
    # first-column grid point lands in quiver column 2 when m+u = 4/3 mod 2
    v, s = label_g(g, 1, 1, -2)  # w = -2/3, u = 1/3
    assert g.position(v) == (2, 1) and s == 1
    v, s = label_g_prime(g, 1, 1, 1)  # (1, 1, u=1/3) directly
    assert g.position(v) == (2, 1) and s == 1


def test_label_parity_violation_raises():
    m = cached_model("C", 2, 2)
    with pytest.raises(ValueError):
        label_g_prime(m, 2, 1, 1)  # long-root row needs integer time
    with pytest.raises(ValueError):
        label_g(m, 1, 1, 0)


def test_schedule_steps_listing(capsys):
    g = cached_model("G2", 2, 3)
    main(["schedule", "--family", "G2", "--rank", "2", "--level", "3", "--from", "0", "--to", "2"])
    steps = json.loads(capsys.readouterr().out)
    assert len(steps) == 6
    # the second step pairs region II circles with the minus bullets
    tags = {g.quiver.meta[g.vid(*p)].tag for p in steps[1]["mutate"]}
    assert tags == {"II", "-"}
    assert steps[0]["expected_perm"] == "nu_132" and steps[0]["expected_opposite"]
    with pytest.raises(SystemExit) as err:
        main(["schedule", "--family", "G2", "--rank", "2", "--level", "3", "--from", "0", "--to", "1/2"])
    assert err.value.code == 2


@pytest.mark.parametrize("family,rank,level", [("C", 3, 2), ("F4", 4, 2), ("G2", 2, 3)])
def test_points_match_slot_loop(family, rank, level):
    # the mutation points of a window, negative times included: slot s mod 2t
    # at every time s, its vertices in order
    sched = cached_schedule(family, rank, level)
    t = sched.t
    want = [(s, v) for s in range(-3 * t - 1, 2 * t + 1) for v in sched.sets[s % (2 * t)]]
    s, v = sched.points(-3 * t - 1, 2 * t + 1)
    assert s.dtype == v.dtype == np.int64
    assert list(zip(s.tolist(), v.tolist())) == want
    assert [a.size for a in sched.points(2, 2)] == [0, 0]


def test_run_schedule_empty_window_raises():
    # the seed stands at s_lo, which may be any time; a window with no time
    # in it is refused, and a one-time window is the seed alone
    sched = cached_schedule("C", 2, 2)
    E0 = np.eye(sched.model.n, dtype=np.int64)
    for s_lo, s_hi in ((1, 0), (-1, -4)):
        with pytest.raises(ValueError, match=re.escape(f"the window [{s_lo}, {s_hi}] is empty")):
            run_schedule(sched, s_lo, s_hi, E0, tropical_plus1)
    for s in (-3, 0, 5):
        Ls, xs = run_schedule(sched, s, s, E0, tropical_plus1)
        assert xs is None and np.array_equal(Ls, E0[None])


def test_run_schedule_steps_by_the_slot_of_each_time():
    # the seed stands at s_lo and the step out of time s applies the
    # operator of slot s mod 2t: a run from any s_lo is the two-product
    # reference run from 0 of the schedule with its slots rotated to start
    # at slot s_lo mod 2t, bit for bit
    sched = cached_schedule("G2", 2, 2)
    period, E0 = 2 * sched.t, np.eye(sched.model.n, dtype=np.int64)
    for s_lo in (-7, -6, 0, 4, 13):
        k = s_lo % period
        rotated = SimpleNamespace(
            t=sched.t, sets=sched.sets[k:] + sched.sets[:k], matrices=sched.matrices[k:] + sched.matrices[:k]
        )
        Ls, _ = run_schedule(sched, s_lo, s_lo + period + 2, E0, tropical_plus1)
        want, _ = run_two_product(rotated, 0, period + 2, E0, tropical_plus1)
        assert np.array_equal(Ls, want), s_lo


@pytest.mark.parametrize("family,rank,level", CASES)
def test_run_schedule_matches_slot_step_loop(family, rank, level):
    # run_schedule carries the seed of every record dtype in a two-row
    # float64 carry, writes each step's products into buffers it holds, and
    # is, bit for bit, the loop of the reference step that returns new
    # arrays: on the int8 tropical half record, on a 1-D float shadow seed,
    # and on a numeric cluster whose columns past L's run coefficient-free
    sched = cached_schedule(family, rank, level)
    plan, n = sched.plan, sched.model.n
    rng = np.random.default_rng(7)
    logy = rng.integers(1, 4, n) * np.log(1e-12)
    L, logx = np.log(rng.uniform(0.5, 2.0, (2, n, 3)))
    runs = [
        (0, sched.half_s, np.eye(n, dtype=np.int8), tropical_plus1, None),
        (0, 4 * sched.t, logy, real_plus1, None),
        (plan.lo_s, plan.hi_s, L, real_plus1, np.concatenate([logx, logx[:, :2]], axis=1)),
    ]
    for s_lo, s_hi, *seed in runs:
        got, want = run_schedule(sched, s_lo, s_hi, *seed), run_slots(sched, s_lo, s_hi, *seed)
        for g, w in zip(got, want, strict=True):
            assert (g is None) == (w is None)
            if g is not None:
                assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes(), (s_lo, s_hi)


@pytest.mark.parametrize("family,rank,level", [("C", 3, 2), ("G2", 2, 3)])
@pytest.mark.parametrize("s_lo", [-3, 1, 5])
def test_numeric_run_off_slot_zero_matches_slot_step_loop(family, rank, level, s_lo):
    # every numeric run starts at a multiple of the slot period, so this
    # pins the per-slot views of the cluster step at the other offsets: a
    # window from s_lo over more than one slot period, whose cluster carries
    # two coefficient-free columns past L's three, equals the reference loop
    # bit for bit
    sched = cached_schedule(family, rank, level)
    n, period = sched.model.n, 2 * sched.t
    assert s_lo % period != 0
    L, logx = np.log(np.random.default_rng(11).uniform(0.5, 2.0, (2, n, 3)))
    seed = (L, real_plus1, np.concatenate([logx, logx[:, :2]], axis=1))
    got = run_schedule(sched, s_lo, s_lo + 2 * period + 1, *seed)
    want = run_slots(sched, s_lo, s_lo + 2 * period + 1, *seed)
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()


def test_run_schedule_fills_records_given_as_out():
    # records passed as out= are filled and returned as they are, so that a
    # caller can run into arrays it keeps; records of other shapes are
    # refused
    sched = cached_schedule("C", 2, 2)
    n, J = sched.model.n, 2
    L, logx = np.log(np.random.default_rng(1).uniform(0.5, 2.0, (2, n, J)))
    logx = np.tile(logx, 2)
    want = run_schedule(sched, -4, 0, L, real_plus1, logx)
    out = np.empty((5, n, J)), np.empty((5, n, 2 * J))
    got = run_schedule(sched, -4, 0, L, real_plus1, logx, out)
    assert all(g is o and np.array_equal(g, w) for g, o, w in zip(got, out, want, strict=True))
    for bad in ((out[0][1:], out[1]), (out[0], None), (out[0], out[1][..., :J])):
        with pytest.raises(ValueError, match=re.escape("out must be records of shapes")):
            run_schedule(sched, -4, 0, L, real_plus1, logx, bad)


@pytest.mark.parametrize("family,rank,level", CASES)
def test_full_period_returns_quiver(family, rank, level):
    sched = Schedule(cached_model(family, rank, level))  # raises ScheduleError on any mismatch
    for got, want in zip(sched.matrices, schedule.expected_quivers(sched.model, involutions(sched.model)), strict=True):
        assert np.array_equal(got, want)
    assert sched.sets == slot_sets(sched.model)


def refuse_slot_step(*args, **kwargs):
    raise AssertionError("a seed was mutated through an unverified schedule")


def test_flipped_orientation_rule_fails_first_step(monkeypatch):
    # negative control: flipping one local orientation rule (the vertical
    # arrows) breaks the expected quiver transform at the very first step
    m = cached_model("C", 3, 2)
    B = m.quiver.B.copy()
    for i in range(m.n):
        for j in range(m.n):
            ci, ri = m.position(i)
            cj, rj = m.position(j)
            if ci == cj and abs(ri - rj) == 1:
                B[i, j] = -m.quiver.B[i, j]
    bad = type(m)(m.spec, Quiver(B, m.quiver.meta), dict(m.index))
    monkeypatch.setattr(numeric, "run_schedule", refuse_slot_step)
    with pytest.raises(ScheduleError):  # raised before any run exists
        NumericRun(Schedule(bad))


def test_adjacent_slot_vertices_fail(monkeypatch):
    # the slot step mutates a whole slot at once, which needs its vertices
    # pairwise non-adjacent in the slot's matrix
    m = cached_model("C", 3, 2)
    i, j = slot_sets(m)[0][:2]
    B = m.quiver.B.copy()
    B[i, j], B[j, i] = 1, -1
    bad = type(m)(m.spec, Quiver(B, m.quiver.meta), dict(m.index))
    monkeypatch.setattr(tropical, "run_schedule", refuse_slot_step)
    with pytest.raises(ScheduleError, match="adjacent"):  # raised before any run exists
        TropicalRun(Schedule(bad))


@pytest.mark.parametrize("reverse", [False, True])
def test_inner_arrow_names_the_pair_in_the_order_given(reverse, monkeypatch):
    # an arrow inside a slot set fails Schedule before the slot is mutated,
    # naming the first adjacent pair in row order of the set as it is given,
    # as the oracle's composite mutation does
    m = cached_model("C", 3, 2)
    sets = [ks[::-1] if reverse else ks for ks in slot_sets(m)]
    i, j = sorted(sets[0])[:2]
    B = m.quiver.B.copy()
    B[i, j], B[j, i] = 1, -1
    bad = type(m)(m.spec, Quiver(B, m.quiver.meta), dict(m.index))
    monkeypatch.setattr(schedule, "slot_sets", lambda model: sets)
    monkeypatch.setattr(schedule, "mutations", refuse_slot_step)
    first, second = (j, i) if reverse else (i, j)
    message = f"composite mutation set contains adjacent vertices {first} and {second}"
    with pytest.raises(ValueError, match=message):
        composite_mutate(bad.quiver, sets[0])
    with pytest.raises(ScheduleError, match=f"^step from u=0: {message}$"):
        Schedule(bad)


@pytest.mark.parametrize("family,rank,level", CASES)
def test_tropical_run_matches_per_vertex_oracle(family, rank, level):
    # every time the half record serves, through omega, is the per-vertex
    # run's, negative times included
    run = cached_tropical(family, rank, level)
    window = relabelled_window(run)
    want = run_payload(run.model, run.region_two_s, run.full_s, TropicalCoefficients(np.eye(run.model.n)))
    assert sorted(want) == list(range(run.region_two_s, run.full_s + 1)) and len(window) == len(want)
    for s, E in want.items():
        assert np.array_equal(window[s - run.region_two_s], E), s


@pytest.mark.parametrize("family,rank,level", CASES)
@pytest.mark.parametrize("tracked", [True, False])
def test_numeric_run_matches_per_vertex_oracle(family, rank, level, tracked):
    # the run stands at its seed at lo_s = -2t, a whole slot period before
    # time 0, so record row i is the per-vertex run of that seed forward
    # from time 0 after i steps
    # (each column of the positive-real block when tracked, else of the
    # coefficient-free block, whose y is exactly 1 and not recorded: the
    # y record has the positive-real columns alone)
    run = cached_numeric(family, rank, level)
    assert run.lo_s == -2 * run.t
    assert run.y.shape == (*run.x.shape[:2], len(SEEDS))
    block = run.real if tracked else run.free
    for j in range(block.start, block.stop):  # each seed's column on its own
        x0, y0 = run.x[0, :, j], run.y[0, :, j] if tracked else None
        want = run_payload(run.model, 0, run.hi_s - run.lo_s, NumericSeedPayload(x0, y0))
        assert sorted(want) == list(range(len(run.x)))
        for i, (x, y) in want.items():
            assert np.max(np.abs(run.x[i, :, j] - x) / x) <= 1e-13, (i, j)
            if tracked:
                assert np.max(np.abs(run.y[i, :, j] - y) / y) <= 1e-13, (i, j)
            else:
                assert y is None, (i, j)


@pytest.mark.parametrize("family,rank,level", list(CASES) + [("C", 6, 6), ("F4", 4, 5), ("G2", 2, 6)])
def test_one_product_runs_match_two_product_reference(family, rank, level, monkeypatch):
    # the half tropical record is the two-product reference's bit for bit,
    # as int8; the numeric and shadow records, whose float sums the one
    # product regroups, agree with it to 1e-12 relative
    sched, trop = cached_schedule(family, rank, level), cached_tropical(family, rank, level)
    E0 = np.eye(sched.model.n, dtype=np.int8)
    want, _ = run_two_product(sched, 0, trop.half_s, E0, tropical_plus1)
    assert trop.H.dtype == want.dtype == np.int8 and np.array_equal(trop.H, want)

    runs = []

    def recorded(*args):
        Ls, xs = run_schedule(*args)
        runs.append((args, Ls.copy(), xs if xs is None else xs.copy()))
        return Ls, xs

    monkeypatch.setattr(numeric, "run_schedule", recorded)
    NumericRun(sched, SEEDS)
    tropical_shadow_mismatches(trop)
    (numeric_args, Ls, xs), (shadow_args, shadow, _) = runs
    # both start a whole number of slot periods from 0, so each is the
    # reference run forward from 0 over as many steps
    assert [args[1] % (2 * sched.t) for args in (numeric_args, shadow_args)] == [0, 0]
    _, s_lo, s_hi, L, oplus1, logx, _ = numeric_args
    J = L.shape[1]
    want_L, want_x = run_two_product(sched, 0, s_hi - s_lo, L, oplus1, logx[:, :J])
    # the columns of logx past L's run coefficient-free, in the trivial semifield
    _, want_free = run_two_product(sched, 0, s_hi - s_lo, np.zeros_like(L), trivial_plus1, logx[:, J:])
    want_x = np.concatenate([want_x, want_free], axis=-1)
    for got, ref in ((Ls, want_L), (xs, want_x)):  # the values y = exp(L) and x = exp(logx)
        assert np.max(np.abs(np.exp(got) - np.exp(ref)) / np.exp(ref)) <= 1e-12
    _, s_lo, s_hi, *seed = shadow_args
    want_shadow, _ = run_two_product(sched, 0, s_hi - s_lo, *seed)
    assert np.max(np.abs(shadow - want_shadow) / np.abs(want_shadow)) <= 1e-12


def test_global_opposite_passes_cycle_but_flips_tropical_signs():
    # a global arrow flip commutes with mutation, so the quiver cycle alone
    # cannot see it; the shape of the T-relations at the mutation points
    # does, and so does the forward-window tropical positivity
    from ysyslab.tropical import POSITIVE, sign_classes

    for case in [("C", 3, 2), ("F4", 4, 3), ("G2", 2, 3)]:
        good, m = cached_schedule(*case), cached_model(*case)
        bad = type(m)(m.spec, m.quiver.opposite(), dict(m.index))
        assert slot_sets(bad) == good.sets
        # the one-period cycle passes by the negation symmetry
        matrices = schedule.slot_matrices(bad, good.sets, involutions(bad))
        unverified = SimpleNamespace(t=good.t, operators=list(map(schedule.slot_operator, matrices, good.sets)))
        with pytest.raises(ScheduleError, match="arrows out of vertex"):
            Schedule(bad)
        s, v = good.points(0, 2 * good.t)
        E0 = np.eye(m.n, dtype=np.int64)
        for sched, positive in ((good, True), (unverified, False)):
            Es, _ = run_schedule(sched, 0, 2 * good.t, E0, tropical_plus1)
            assert (set(sign_classes(Es[s, v]).tolist()) == {POSITIVE}) == positive, case


@pytest.mark.parametrize("family,rank,level", CASES)
def test_non_equivariant_operator_raises(family, rank, level, monkeypatch):
    # the tropical half record rests on each slot's operator being that of
    # the slot half a period before relabelled by omega; with slot i's
    # operator built from the matrix of slot j != i, making the Schedule
    # raises, naming the slots, exactly when the operators no longer act
    # equivariantly on a random integer seed (L, logx): the operator of
    # slot i + half_s on the seed relabelled by omega gives the result of
    # slot i's relabelled, every sum exact.  When half_s is a whole number
    # of slot periods, every slot matrix is omega-invariant, so
    # no such plant breaks the premise; the seed comparison catches those
    # (test_tropical.test_wrong_dynamics_fail_both_checks)
    good = cached_schedule(family, rank, level)
    n, omega, period = good.model.n, good.omega, 2 * good.t
    half = good.half_s
    assert half == (good.model.cartan["h_dual"] + level) * good.t
    assert half % period in (0, 2, 3)
    rng = np.random.default_rng(3)
    L, logx = rng.integers(-3, 4, (2, n, 3 * n)).astype(float)

    def equivariant(op, image):
        got = mutate_slot(image, L[omega], tropical_plus1, logx[omega])
        want = mutate_slot(op, L, tropical_plus1, logx)
        return all(np.array_equal(g, w[omega]) for g, w in zip(got, want))

    real, raised = schedule.slot_operator, 0
    for i in range(period):
        for j in set(range(period)) - {i}:
            ops = list(good.operators)
            ops[i] = real(good.matrices[j], good.sets[i])
            i2 = (i + half) % period
            calls = iter(range(period))
            monkeypatch.setattr(schedule, "slot_operator", lambda B, ks: ops[next(calls)])
            if equivariant(ops[i], ops[i2]) and equivariant(ops[i2], ops[i]):
                Schedule(good.model)
                continue
            message = r"the operator of slot \d is not that of slot \d relabelled by omega"
            with pytest.raises(ScheduleError, match=message):
                Schedule(good.model)
            raised += 1
    assert raised or half % period == 0


def test_composite_after_first_step_gives_reflection():
    m = cached_model("C", 3, 2)
    sets = slot_sets(m)
    Q = composite_mutate(composite_mutate(m.quiver, sets[0]), sets[1])
    assert Q == m.quiver.apply_perm(involutions(m)["r"])


def test_mutation_sets_match_printed_cycle():
    m = cached_model("C", 3, 3)
    sets = slot_sets(m)
    meta = m.quiver.meta
    assert all(meta[v].tag == "+" for v in sets[0])
    assert all(meta[v].fill == "bullet" and meta[v].tag == "-" for v in sets[1])
    circ2 = {meta[v].tag for v in sets[2] if meta[v].fill == "circle"}
    assert circ2 == {"-"}


SCALE_CASES = [("C", 6, 6), ("F4", 4, 5), ("G2", 2, 6)]
LARGE_CASES = [("C", 12, 12), ("F4", 4, 24), ("G2", 2, 30)]


def case_schedule(case):
    """The Schedule of a case: cached for CASES, made afresh for the larger
    cases, so that the session does not keep them."""
    return cached_schedule(*case) if case in CASES else Schedule(build(FamilySpec(*case)))


@pytest.mark.parametrize("case", list(CASES) + SCALE_CASES + LARGE_CASES + [("C", 16, 16)], ids=str)
def test_gather_plan_matches_piecewise_oracle(case):
    # the plan, made by one batched lookup with its translates bounded by
    # their largest row, is array for array and bit for bit the plan built
    # one lookup and one off-grid check at a time
    sched = case_schedule(case)
    plan, ref = sched.plan, PiecewisePlan(sched)
    for name in ("t_relation", "y_relation"):
        for field, got, want in zip(Relations._fields, getattr(plan, name), getattr(ref, name), strict=True):
            if want is None:
                assert got is None, (name, field)
                continue
            assert got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want), (name, field)
    for name in ("t_period", "y_period"):
        for got, want in zip(getattr(plan, name), getattr(ref, name), strict=True):
            assert got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want), name
    got, want = plan.coefficients(), ref.coefficients(0, plan.full_s)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def shifted(table, by):
    """A relation table whose first factor of each row is read by steps
    later: two slot periods keep it on the grid, but its translate by the
    last slot period leaves the window."""
    return {row: [(b, k, ds + by * (i == 0)) for i, (b, k, ds) in enumerate(factors)] for row, factors in table.items()}


PLANTS = {
    "t-factor-at-its-own-time": lambda g, t: ({row: [(*row, 0)] for row in g}, None),
    "t-factor-translate-out": lambda g, t: (shifted(g, 6 * t), None),
    "y-factor-at-its-own-time": lambda g, t: (g, {row: [(*row, 0)] for row in g}),
    "y-factor-translate-out": lambda g, t: (g, shifted(transpose_factors(g), 6 * t)),
}


@pytest.mark.parametrize("plant", PLANTS)
@pytest.mark.parametrize("case", [("C", 2, 2), ("F4", 4, 3), ("G2", 2, 3)], ids=str)
def test_off_grid_reads_raise_the_piecewise_error(plant, case, monkeypatch):
    # a relation table that reads off the grid, at the read itself or only
    # at its translate by the last slot period, fails the Schedule with the
    # error of the piece-by-piece plan: the same value, first in the same
    # order of reads
    good = cached_schedule(*case)
    g, numerators = PLANTS[plant](good.g, good.t)
    numerators = transpose_factors(g) if numerators is None else numerators
    with pytest.raises(ScheduleError) as want:
        PiecewisePlan(SimpleNamespace(g=g, numerators=numerators, plan=good.plan))
    monkeypatch.setattr(schedule, "g_factors", lambda sched: g)
    monkeypatch.setattr(schedule, "transpose_factors", lambda table: numerators)
    with pytest.raises(ScheduleError) as got:
        Schedule(good.model)
    assert str(got.value) == str(want.value)
    assert "is off the grid, read by a relation" in str(got.value)


@pytest.mark.parametrize("case", list(CASES) + LARGE_CASES, ids=str)
def test_float_slot_cycle_is_the_int64_cycle(case, monkeypatch):
    # slot_matrices mutates a float64 copy of the exchange matrix, so that
    # the products run in BLAS; at every slot its matrix is, entry for
    # entry, that of the int64 cycle of quiver.mutations, while the
    # Schedule's matrices stay int64; a quiver fault planted at one step
    # still raises the mismatch message naming that step
    model = cached_model(*case) if case in CASES else build(FamilySpec(*case))
    sets, invs, t = slot_sets(model), involutions(model), model.cartan["t"]
    steps, mutations = [], schedule.mutations

    def recording(B, ks):
        out = mutations(B, ks)
        steps.append(out[0].copy())
        return out

    monkeypatch.setattr(schedule, "mutations", recording)
    matrices = schedule.slot_matrices(model, sets, invs)
    want = int64_slot_cycle(model, sets)
    assert [B.dtype for B in steps] == [np.dtype(np.float64)] * len(want)
    assert all(np.array_equal(got, B) for got, B in zip(steps, want, strict=True))
    assert [B.dtype for B in matrices] == [np.dtype(np.int64)] * len(sets)
    if case in CASES:
        assert all(B.dtype == np.int64 for B in cached_schedule(*case).matrices)
    bad_step = len(sets) // 2

    def planted(B, ks):
        out = mutations(B, ks)
        if len(steps) == bad_step:  # reverse the first arrow of this step's matrix
            i, j = np.argwhere(out[0])[0]
            out[0, i, j], out[0, j, i] = -out[0, i, j], -out[0, j, i]
        steps.append(None)
        return out

    steps.clear()
    monkeypatch.setattr(schedule, "mutations", planted)
    spec = model.spec
    message = f"quiver mismatch after step to u={Fraction(bad_step + 1, t)} (family {spec.family}, rank {spec.rank}, level {spec.level})"
    with pytest.raises(ScheduleError, match=re.escape(message)):
        schedule.slot_matrices(model, sets, invs)
