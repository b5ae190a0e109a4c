import re
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from tests import oracle
from tests.conftest import CASES, SEEDS, cached_model, cached_numeric, cached_schedule, cached_tropical
from tests.oracle import (
    LabelledArrays,
    NumericSeedPayload,
    composite_mutate,
    grid_points,
    label_g,
    label_g_prime,
    run_payload,
)
from ysyslab import numeric, schedule
from ysyslab.dilog import check_functional_DI
from ysyslab.gfun import transpose_factors
from ysyslab.numeric import NumericRun, gather, real_plus1, tropical_shadow_mismatches, worst_errors
from ysyslab.schedule import (
    OFF,
    UNIT,
    Schedule,
    ScheduleError,
    run_schedule,
    slot_operator,
    slot_sets,
)
from ysyslab.tropical import TropicalRun

def derived_g(family, rank, level, a, m):
    """The derived T-relation factors of (a, m)."""
    return cached_schedule(family, rank, level).g[(a, m)]


def test_g_factors_tables():
    # shifts are integers in scaled time: one unit is 1/2 for C and F4 (t=2)
    # and 1/3 for G2 (t=3)
    # long-root row couples to the doubled row below it
    assert derived_g("C", 3, 2, 3, 1) == [(2, 2, 0)]
    # short chain rows couple to both neighbours, boundary dropped
    assert derived_g("C", 4, 2, 1, 1) == [(2, 1, 0)]
    assert set(derived_g("C", 4, 2, 2, 1)) == {(1, 1, 0), (3, 1, 0)}
    # the doubled row splits by parity: even rows reach across half-steps
    assert derived_g("C", 3, 3, 2, 2) == [(1, 2, 0), (3, 1, -1), (3, 1, 1)]
    assert derived_g("C", 3, 3, 2, 1) == [(1, 1, 0), (3, 1, 0)]
    assert derived_g("C", 3, 3, 2, 5) == [(1, 5, 0), (3, 2, 0)]
    # G2: the tall rows couple to the thin row in three phase patterns
    assert derived_g("G2", 2, 2, 2, 1) == [(1, 1, 0)]
    assert derived_g("G2", 2, 2, 2, 3) == [(1, 1, -2), (1, 1, 0), (1, 1, 2)]
    assert derived_g("G2", 2, 2, 2, 2) == [(1, 1, -1), (1, 1, 1)]
    assert derived_g("G2", 2, 2, 1, 1) == [(2, 3, 0)]
    # F4 middle rows
    assert derived_g("F4", 4, 2, 2, 1) == [(1, 1, 0), (3, 2, 0)]
    assert derived_g("F4", 4, 2, 3, 2) == [(2, 1, -1), (2, 1, 1), (4, 2, 0)]
    assert all(type(ds) is int for _, _, ds in derived_g("G2", 2, 2, 2, 3))


#: C ranks 2-6 at levels 2-5, F4 at levels 2-5, G2 at levels 2-6, and four larger cases
PRINTED_TABLE_CASES = (
    [("C", r, lev) for r in range(2, 7) for lev in range(2, 6)]
    + [("F4", 4, lev) for lev in range(2, 6)]
    + [("G2", 2, lev) for lev in range(2, 7)]
    + [("C", 8, 20), ("C", 6, 6), ("F4", 4, 8), ("G2", 2, 9)]
)


@pytest.mark.parametrize("family,rank,level", PRINTED_TABLE_CASES)
def test_derived_tables_match_printed_tables(family, rank, level):
    # the tables read off the schedule are the printed T- and Y-relations,
    # factor for factor and in the same order
    sched = cached_schedule(family, rank, level)
    printed = oracle.transpose_factors(family, rank, level)
    assert list(sched.g) == list(printed)
    for a, m in printed:
        assert sched.g[(a, m)] == oracle.g_factors(family, rank, level, a, m), (a, m)
    assert sched.numerators == printed


def test_transpose_is_adjoint():
    rng = np.random.default_rng(0)
    for family, rank, level in [("C", 3, 2), ("C", 4, 3), ("F4", 4, 2), ("G2", 2, 3)]:
        sched = cached_schedule(family, rank, level)
        rows = list(sched.g)
        table = transpose_factors(sched.g)
        for _ in range(250):
            a, m = rows[rng.integers(len(rows))]
            b, k = rows[rng.integers(len(rows))]
            for ds in range(-2, 3):
                lhs = table[(a, m)].count((b, k, ds))
                rhs = sched.g[(b, k)].count((a, m, -ds))
                assert lhs == rhs


def test_y_numerator_matches_printed_relations():
    # type C long-root relation: four neighbour factors across a full step
    facs = cached_schedule("C", 3, 2).numerators[(3, 1)]
    assert sorted(facs) == [(2, 1, 0), (2, 2, -1), (2, 2, 1), (2, 3, 0)]
    # G2 thin-row relation: nine factors spread over thirds
    facs = cached_schedule("G2", 2, 2).numerators[(1, 1)]
    assert len(facs) == 9
    assert facs.count((2, 3, 0)) == 1
    assert {ds for (_, k, ds) in facs if k == 3} == {-2, 0, 2}
    assert {ds for (_, k, ds) in facs if k == 2} == {-1, 1}
    assert {ds for (_, k, ds) in facs if k == 4} == {-1, 1}
    assert {ds for (_, k, ds) in facs if k in (1, 5)} == {0}


def test_seed_double_mutation_restores():
    rng = np.random.default_rng(4)
    m = cached_model("C", 3, 2)
    logx = np.log(rng.uniform(0.5, 2.0, m.n))
    logy = np.log(rng.uniform(0.5, 2.0, m.n))
    for ks in ([0], slot_sets(m)[0]):
        # the two steps as an unverified two-slot schedule
        ops = [slot_operator(m.quiver.B, ks), slot_operator(composite_mutate(m.quiver, ks).B, ks)]
        Ls, lxs = run_schedule(SimpleNamespace(t=1, operators=ops), 0, 2, logy, real_plus1, logx)
        assert np.allclose(np.exp(lxs[2]), np.exp(logx), rtol=1e-12)
        assert np.allclose(np.exp(Ls[2]), np.exp(logy), rtol=1e-12)


def test_overflow_raises(monkeypatch):
    # the runs work in logs; a cluster value or a coefficient past the
    # float range fails when the run turns them into values
    for which in (0, 1):

        def huge(schedule, s_lo, s_hi, L, oplus1, logx, out):
            out[0][...], out[1][...] = L, logx  # the seed at every time
            out[which][...] = 800.0
            return out

        monkeypatch.setattr(numeric, "run_schedule", huge)
        with pytest.raises(FloatingPointError):
            NumericRun(cached_schedule("C", 2, 2))


def test_underflow_raises(monkeypatch):
    # values are exp of logs, so they can fail to be positive only by
    # underflowing to 0, and that raises too
    for which in (0, 1):

        def tiny(schedule, s_lo, s_hi, L, oplus1, logx, out):
            out[0][...], out[1][...] = L, logx  # the seed at every time
            out[which][...] = -800.0
            return out

        monkeypatch.setattr(numeric, "run_schedule", tiny)
        with pytest.raises(FloatingPointError):
            NumericRun(cached_schedule("C", 2, 2))


@pytest.mark.parametrize("family,rank,level", CASES)
def test_residuals_and_periodicity(family, rank, level):
    # the T-relations are read in both blocks, one column per record column;
    # the Y checks in the positive-real block and T periodicity in the
    # coefficient-free one, one column per seed
    run = cached_numeric(family, rank, level)
    assert run.t_residuals().shape[1] == 2 * len(SEEDS)
    assert run.y_residuals().shape[1] == run.t_periodicity_errors().shape[1] == len(SEEDS)
    assert run.y_periodicity_errors().shape[1] == len(SEEDS)
    assert run.t_residuals().max() < 1e-9
    assert run.y_residuals().max() < 1e-9
    assert run.t_periodicity_errors().max() < 1e-8
    assert run.y_periodicity_errors().max() < 1e-8


@pytest.mark.parametrize("family,rank,level", CASES)
def test_blocks_match_two_run_oracle(family, rank, level, monkeypatch):
    # the positive-real block is the tracked run of the two-run path and the
    # coefficient-free block its plain run, to 1e-13 relative in the record
    # (BLAS may block a wider product differently) and to 1e-13 in the
    # relative residuals and periodicity errors; the coefficient-free Y is
    # exactly 1 and not recorded: the log-coefficient record and y hold the
    # positive-real block alone
    recorded, real = [], numeric.run_schedule

    def recording(*args):
        Ls, logxs = real(*args)
        recorded.append(Ls.copy())  # the log record, before the run exponentiates it in place
        return Ls, logxs

    sched = cached_schedule(family, rank, level)
    tracked, plain = oracle.NumericRun(sched, SEEDS), oracle.NumericRun(sched, SEEDS, tracked=False)
    monkeypatch.setattr(numeric, "run_schedule", recording)
    run = NumericRun(sched, SEEDS)
    (Ls,) = recorded
    assert Ls.shape == run.y.shape == (*run.x.shape[:2], len(SEEDS))
    assert run.x.shape[-1] == 2 * len(SEEDS)

    def close(got, want, rtol=1e-13, atol=0.0, name=""):
        assert got.shape == want.shape, name
        np.testing.assert_allclose(got, want, rtol=rtol, atol=atol, err_msg=name)

    close(run.x[..., run.real], tracked.x, name="tracked x")
    close(run.y, tracked.y, name="tracked y")
    close(run.x[..., run.free], plain.x, name="plain x")
    window = (run.lo_s, run.hi_s + 1)
    close(run.labelled_coefficients(*window), tracked.labelled_coefficients(*window), name="coefficients")
    checks = [
        (run.t_residuals()[:, run.real], tracked.t_residuals(), "tracked t_residuals"),
        (run.t_residuals()[:, run.free], plain.t_residuals(), "plain t_residuals"),
        (run.y_residuals(), tracked.y_residuals(), "y_residuals"),
        (run.t_periodicity_errors(), plain.t_periodicity_errors(), "t_periodicity_errors"),
        (run.y_periodicity_errors(), tracked.y_periodicity_errors(), "y_periodicity_errors"),
    ]
    for got, want, name in checks:
        close(got, want, rtol=0.0, atol=1e-13, name=name)


def earliest_y_relation_row(plan):
    """The record row of the earliest Y a Y-relation reads: before time 0, so
    no T-relation and no periodicity pair reads it."""
    return plan.translated(plan.y_relation).lhs.min()


#: Where a NaN goes in test_worst_errors_propagate_nan: the record, the
#: block, the plan row, and which of (worst residual, worst periodicity
#: error) it reaches.
NAN_PLANTS = {
    "tracked-x": ("x", "real", lambda plan: plan.t_period[0][0], (True, False)),
    "tracked-y": ("y", "real", earliest_y_relation_row, (True, False)),
    "tracked-y-periodic": ("y", "real", lambda plan: plan.y_period[0][0], (True, True)),
    "free-x": ("x", "free", lambda plan: plan.t_period[0][0], (True, True)),
}


@pytest.mark.parametrize("plant", NAN_PLANTS)
def test_worst_errors_propagate_nan(plant):
    # a NaN in a value that a check reads is the worst error of that check,
    # wherever it falls among the per-check maxima: the tracked-y plant
    # reaches the Y-relations alone, the last residual maximum taken
    record, block, where, affected = NAN_PLANTS[plant]
    run = NumericRun(cached_schedule("C", 2, 2), SEEDS)
    row = where(run.schedule.plan)
    values = getattr(run, record)
    values.reshape(-1, values.shape[-1])[row, getattr(run, block).start + 1] = np.nan
    got, clean = worst_errors(run), worst_errors(cached_numeric("C", 2, 2))
    assert all(np.isfinite(clean))
    for g, c, hit in zip(got, clean, affected):
        assert np.isnan(g) if hit else g == c, (got, clean)


def test_numeric_run_keeps_each_record_once():
    # NumericRun has run_schedule fill its flat records in logs and
    # exponentiates them in place, so making one holds no second copy of a
    # record: over C:6:6 and five seeds it peaks at most a quarter of its two
    # records' bytes above what it keeps
    sched = cached_schedule("C", 6, 6)
    NumericRun(cached_schedule("C", 2, 2), SEEDS)  # first-use allocations
    tracemalloc.start()
    try:
        run = NumericRun(sched, SEEDS)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    records = run._x.nbytes + run._y.nbytes
    assert run._y.shape[1] == len(SEEDS) and run._x.shape[1] == 2 * len(SEEDS)
    assert peak - kept <= records / 4, (peak - kept, records)


def test_numeric_run_rejects_empty_seeds():
    with pytest.raises(ValueError, match="seeds is empty"):
        NumericRun(cached_schedule("C", 2, 2), ())


@pytest.mark.parametrize("family,rank,level", CASES)
def test_batched_run_matches_single_seed_runs(family, rank, level):
    # column j of a run over several seeds is the run of seed j alone, up to
    # the rounding of a matrix product against a vector; so are its labelled
    # coefficients and its functional sums
    # (in each block of x: column j in the positive-real block, J + j in the
    # coefficient-free one; y holds column j alone)
    sched = cached_schedule(family, rank, level)
    batched, J = cached_numeric(family, rank, level), len(SEEDS)
    for j, seed in enumerate(SEEDS):
        # each seed draws its cluster, then its coefficients; both blocks
        # start from the same cluster draw
        draws = np.random.default_rng(seed).uniform(0.5, 2.0, (2, sched.model.n))
        for col in (j, J + j):
            np.testing.assert_allclose(batched.x[0, :, col], draws[0], rtol=1e-15)
        np.testing.assert_allclose(batched.y[0, :, j], draws[1], rtol=1e-15)
        single = NumericRun(sched, (seed,))
        window = (batched.lo_s, batched.hi_s + 1)
        for name in ("x", "y", "labelled_coefficients"):
            got, want = getattr(batched, name), getattr(single, name)
            if callable(got):  # one row per seed of the positive-real block
                got, want = got(*window).T[..., [j]], want(*window).T
            else:  # both blocks of x, the positive-real one of y
                got = got[..., [j, J + j] if name == "x" else [j]]
            assert got.shape == want.shape, name
            np.testing.assert_allclose(got, want, rtol=1e-12, err_msg=f"{name}, seed {seed}")
        got, want = check_functional_DI(batched), check_functional_DI(single)
        np.testing.assert_allclose(got["sums"][j], want["sums"][0], rtol=1e-12)
        assert got["targets"] == want["targets"]


@pytest.mark.parametrize("family,rank,level", [("C", 2, 2), ("C", 4, 3), ("F4", 4, 2), ("G2", 2, 3)])
def test_numeric_record_starts_from_the_seed_draws(family, rank, level, monkeypatch):
    # NumericRun stands at its seed draws at the record's first time, lo_s =
    # -2t, and runs forward to hi_s; -2t is a whole slot period, so the
    # record is, bit for bit, the run of the same seed forward from time 0
    # over hi_s - lo_s steps
    runs, real = [], numeric.run_schedule

    def recording(*args):
        runs.append(args)
        return real(*args)

    sched = cached_schedule(family, rank, level)
    monkeypatch.setattr(numeric, "run_schedule", recording)
    run = NumericRun(sched, SEEDS)
    ((_, s_lo, s_hi, L, oplus1, logx, _),) = runs
    assert (s_lo, s_hi) == (run.lo_s, run.hi_s) == (-2 * run.t, run.full_s + 3 * run.t)
    J = len(SEEDS)
    draws = np.array([np.random.default_rng(seed).uniform(0.5, 2.0, (2, sched.model.n)) for seed in SEEDS])
    np.testing.assert_allclose(run.x[0], np.tile(draws[:, 0].T, 2), rtol=1e-15)
    np.testing.assert_allclose(run.y[0], draws[:, 1].T, rtol=1e-15)
    assert run.y.shape[-1] == J
    Ls, logxs = real(sched, 0, s_hi - s_lo, L, oplus1, logx)
    assert np.array_equal(np.exp(logxs), run.x) and np.array_equal(np.exp(Ls), run.y)


@pytest.mark.parametrize("family,rank,level", CASES)
def test_tropical_shadow(family, rank, level):
    assert tropical_shadow_mismatches(cached_tropical(family, rank, level), seed=11) == []


@pytest.mark.parametrize("delta", [1, -1])
def test_tropical_shadow_reports_one_wrong_exponent(delta):
    trop = TropicalRun(cached_schedule("G2", 2, 2))
    s, v = (a[-1] for a in trop.schedule.points(0, trop.t))
    trop.H[s, v, 0] += delta  # 0 <= s < t, a time the half record holds as it is
    bad = tropical_shadow_mismatches(trop, seed=11)
    assert [(pos, u) for pos, u, *_ in bad] == [(trop.model.position(v), Fraction(s, trop.t))]


def test_trivial_semifield_projection():
    # the coefficient-free block is the exchange rule in the one-element
    # semifield; it agrees value for value with the plain two-monomial
    # exchange, run from the seed's draw over two slot periods, and its
    # coefficients never move
    for family, rank, level in [("C", 2, 2), ("F4", 4, 2), ("G2", 2, 2)]:
        run = cached_numeric(family, rank, level)
        t, col = run.t, run.free.start
        x0 = np.random.default_rng(SEEDS[0]).uniform(0.5, 2.0, run.model.n)
        plain = run_payload(run.model, 0, 4 * t, NumericSeedPayload(x0))
        assert sorted(plain) == list(range(4 * t + 1))
        for i, (x, _) in plain.items():  # record row i is time lo_s + i, a whole slot period before i
            assert np.max(np.abs(run.x[i, :, col] - x)) <= 1e-12
        assert run.y.shape[-1] == len(SEEDS)  # no record of the coefficient-free y


def test_y_checks_read_the_positive_real_block():
    # the Y-relations, Y periodicity and the labelled coefficients read the
    # positive-real block alone, the one block y holds: a NaN in the
    # coefficient-free block, which x alone holds, reaches none of them, and
    # the same NaN in the positive-real y reaches each one
    clean = cached_numeric("C", 2, 2)
    plan = clean.schedule.plan
    row = plan.y_period[0][0]
    names = ("y_residuals", "y_periodicity_errors")
    assert clean.y.shape[-1] == len(SEEDS)
    for record, block, reached in (("x", "free", False), ("y", "real", True)):
        run = NumericRun(clean.schedule, SEEDS)
        values = getattr(run, record)
        values.reshape(-1, values.shape[-1])[row, getattr(run, block).start] = np.nan
        for name in names:
            got, want = getattr(run, name)(), getattr(clean, name)()
            assert got.shape == want.shape and got.shape[1] == len(SEEDS)
            assert np.isnan(got).any() == reached and (reached or np.array_equal(got, want)), (block, name)
        coefficients = run.labelled_coefficients(0, run.full_s)
        assert coefficients.shape[0] == len(SEEDS) and np.isnan(coefficients).any() == reached, block


def test_boundary_labels_are_unit():
    # the plan reads the boundary rows of T as UNIT at every time of the
    # window, and a run gathers an exact 1.0 there, in every seed's column
    run = cached_numeric("C", 2, 2)
    plan = run.schedule.plan
    times = np.arange(run.lo_s - run.t, run.hi_s + 1)
    for a, m in [(0, k) for k in range(5)] + [(1, 0), (1, 4), (2, 0), (2, 2)]:
        # rows 0 and 4 of a short root, and 0 and 2 of the long root, at level 2
        rows = plan.t_rows(a, m, times)
        assert (rows == UNIT).all(), (a, m)
        assert (run.t_values(rows) == 1.0).all()


@pytest.mark.parametrize("family,rank,level", CASES)
def test_column_fold_inverts_label_map(family, rank, level):
    # each mutation point of a run's window, folded to (a, m, s) by the
    # column table, is the point the per-family label map sends to it; the
    # image is the P'+ grid
    run = cached_numeric(family, rank, level)
    sets = slot_sets(run.model)
    image = []
    for s in range(run.lo_s, run.hi_s + 1):
        for v in sets[s % (2 * run.t)]:
            col, m = run.model.position(v)
            a = run.model.columns[col]
            assert label_g_prime(run.model, a, m, s) == (v, s)
            image.append((a, m, s))
    assert sorted(image) == sorted(grid_points(family, rank, level, run.lo_s, run.hi_s + 1, prime=True))


@pytest.mark.parametrize("family,rank,level", CASES)
@pytest.mark.parametrize("tracked", [True, False])
def test_labelled_arrays_match_label_lookups(family, rank, level, tracked):
    # over the whole box of labels and times, the plan's record rows are the
    # per-point label lookups into the run record: one row for each P'+
    # coefficient and each P+ cluster variable of the window, UNIT on the
    # boundary of T, and OFF everywhere else; the values a run gathers there
    # are the record's, bit for bit: T in every seed's column of the
    # positive-real block (tracked) or the coefficient-free one, and Y in
    # every column of y, which holds the positive-real block alone (the
    # coefficient-free Y is 1 throughout, and no record holds it)
    run = cached_numeric(family, rank, level)
    cols = run.real if tracked else run.free
    plan, n, s0 = run.schedule.plan, run.model.n, run.lo_s - run.t
    tops = {a: t_a * level for a, t_a in run.model.cartan["t_a"].items()}
    box = np.meshgrid(np.arange(rank + 1), np.arange(max(tops.values()) + 1), np.arange(s0, run.hi_s + 1), indexing="ij")
    T, Y = np.full(box[0].shape, OFF), np.full(box[0].shape, OFF)
    T[0] = UNIT
    for a, top in tops.items():
        T[a, 0] = T[a, top] = UNIT
    record_x = run.x[..., cols]
    assert run.y.shape[-1] == len(SEEDS)
    want_t, want_y = [], []
    for a, m, s in grid_points(family, rank, level, run.lo_s, run.hi_s + 1, prime=True):
        v, _ = label_g_prime(run.model, a, m, s)
        Y[a, m, s - s0] = (s - run.lo_s) * n + v
        want_y.append(run.y[s - run.lo_s, v])
    for a, m, s_w in grid_points(family, rank, level, s0, run.hi_s + 1):
        v, s = label_g(run.model, a, m, s_w)
        if run.lo_s <= s <= run.hi_s:
            T[a, m, s_w - s0] = (s - run.lo_s) * n + v
            want_t.append(record_x[s - run.lo_s, v])
    assert np.array_equal(plan.y_rows(*box), Y)
    assert np.array_equal(plan.t_rows(*box), T)
    # grid_points lists in (s, a, m) order, the box in (a, m, s) order
    order = (2, 0, 1)
    y_rows = Y.transpose(order)[Y.transpose(order) >= 0]
    assert np.array_equal(gather(run.y.reshape(-1, run.y.shape[-1]), y_rows), want_y)
    assert np.array_equal(run.y_values(y_rows), want_y)
    assert np.array_equal(run.t_values(T.transpose(order)[T.transpose(order) >= 0])[:, cols], want_t)
    assert (run.t_values(T[T == UNIT]) == 1.0).all()


@pytest.mark.parametrize("family,rank,level", CASES)
@pytest.mark.parametrize("tracked", [True, False])
def test_plan_gathers_match_labelled_arrays(family, rank, level, tracked):
    # every check gathered through the plan equals, bit for bit and in the
    # same order, the row-by-row reads of the NaN-filled labelled arrays of
    # the block it reads: the T-relations in both blocks, the Y checks in the
    # positive-real block (tracked) and T periodicity in the coefficient-free
    # one
    run = cached_numeric(family, rank, level)
    ref = LabelledArrays(run, tracked)
    cols = run.real if tracked else run.free
    got, want = run.t_residuals()[:, cols], ref.t_residuals()
    assert got.shape == want.shape and np.array_equal(got, want), "t_residuals"
    if not tracked:
        got, want = run.t_periodicity_errors(), ref.t_periodicity_errors()
        assert got.shape == want.shape and np.array_equal(got, want), "t_periodicity_errors"
        return
    for name in ("y_residuals", "y_periodicity_errors"):
        got, want = getattr(run, name)(), getattr(ref, name)()
        assert got.shape == want.shape and np.array_equal(got, want), name
    for window in [(0, run.full_s), (run.lo_s, run.hi_s + 1), (run.t + 1, 3 * run.t)]:
        got, want = run.labelled_coefficients(*window), ref.labelled_coefficients(*window)
        assert got.shape == want.shape and np.array_equal(got, want), window
        assert got.flags.c_contiguous  # each seed's functional sum runs along a contiguous row


def planted(table):
    """A relation table whose every row reads itself at its own time: off the
    parity class, so off the grid."""
    return {row: [(*row, 0)] for row in table}


def test_off_grid_gather_raises(monkeypatch):
    # a factor off the parity class reads a value no mutation point carries;
    # making the Schedule raises, so no run can carry it into worst_errors;
    # the planted table is read off a Schedule made before the patch, whose
    # making would otherwise call the patched g_factors
    model, good = cached_model("C", 2, 2), cached_schedule("C", 2, 2)
    monkeypatch.setattr(schedule, "g_factors", lambda sched: planted(good.g))
    with pytest.raises(ScheduleError, match=r"\(1, 1, 0/2\) is off the grid"):
        Schedule(model)
    monkeypatch.undo()
    monkeypatch.setattr(schedule, "transpose_factors", planted)
    with pytest.raises(ScheduleError, match="off the grid"):
        Schedule(model)


def test_coefficients_refuse_a_window_outside_the_plan():
    # the plan's coefficient rows exist from lo_s to hi_s; a window that
    # leaves that range raises IndexError naming both windows, through
    # labelled_coefficients too, and an empty window raises ValueError,
    # where each was clamped or failed in numpy before
    run = cached_numeric("C", 2, 2)
    plan = run.schedule.plan
    outside = [(0, 10 * plan.full_s), (-100, 0), (plan.hi_s + 1, plan.hi_s + 3), (plan.lo_s - 1, 0), (0, plan.hi_s + 2)]
    for s_lo, s_hi in outside:
        message = f"the window [{s_lo}, {s_hi}) is outside the plan's window [{plan.lo_s}, {plan.hi_s}]"
        for read in (plan.coefficients, run.labelled_coefficients):
            with pytest.raises(IndexError, match=re.escape(message)):
                read(s_lo, s_hi)
    for s_lo, s_hi in ((5, 3), (4, 4)):
        with pytest.raises(ValueError, match=re.escape(f"the window [{s_lo}, {s_hi}) is empty")):
            run.labelled_coefficients(s_lo, s_hi)
    full = plan.coefficients(plan.lo_s, plan.hi_s + 1)
    assert np.array_equal(np.concatenate([plan.coefficients(plan.lo_s, 0), plan.coefficients(0, plan.hi_s + 1)]), full)


def test_records_end_in_a_unit_row():
    # each record is kept flattened, as the plan numbers its rows, with one
    # trailing row of exact 1.0 that UNIT reads; x and y are views of the
    # rest, so a value written through them is what the checks gather
    run = NumericRun(cached_schedule("C", 2, 2), SEEDS)
    for name in ("x", "y"):
        record, flat = getattr(run, name), getattr(run, f"_{name}")
        assert flat.shape == (record.shape[0] * record.shape[1] + 1, record.shape[2])
        assert np.shares_memory(record, flat) and (flat[-1] == 1.0).all()
        record[1, 2, 3] = 7.0
        assert np.array_equal(gather(flat, np.array([[UNIT, run.model.n + 2]])), [[flat[-1], record[1, 2]]])
