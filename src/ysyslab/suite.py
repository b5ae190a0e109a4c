"""The wired verification suite: runs every check over a case list and
emits machine-readable report rows (one JSON object per case and check)."""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field

from .builders import FamilySpec, build, cartan_data
from .dilog import check_functional_DI, constant_DI
from .mutclass import search_equivalence
from .numeric import NumericRun, tropical_shadow_mismatches, worst_errors
from .quiver import find_isomorphism
from .roots import apart_mismatches_C, tvector_mismatches
from .schedule import Schedule, ScheduleError
from .tropical import TropicalRun, expected_counts

DEFAULT_CASES = (
    [("C", r, lev) for r in (2, 3, 4) for lev in (2, 3, 4)]
    + [("F4", 4, 2), ("F4", 4, 3)]
    + [("G2", 2, lev) for lev in (2, 3, 4)]
)

DEFAULT_PAIRS = [
    (("C", 3, 2), ("D", 4, 3)),
    (("F4", 4, 2), ("D", 5, 3)),
    (("C", 2, 3), ("A", 3, 4)),
    (("G2", 2, 2), ("C", 3, 2)),
    (("G2", 2, 3), ("C", 3, 3)),
]

DEFAULT_CONFIG = {
    "cases": DEFAULT_CASES,
    "pairs": DEFAULT_PAIRS,
    "seeds": [0, 1, 2, 3, 4],
    "residual_tol": 1e-9,
    "periodicity_tol": 1e-8,
    "dilog_tol": 1e-8,
    "functional_tol": 1e-6,
    "extra_dilog_levels": [5],
    "depth_cap": 12,
    "node_cap": 10**6,
}


@dataclass
class VerificationReport:
    case: str
    check: str
    status: str  # pass / fail / inconclusive
    statement: str
    metrics: dict = field(default_factory=dict)

    def to_json(self):
        return json.dumps(asdict(self), sort_keys=True)


def _case_id(family, rank, level):
    return f"{family}:{rank}:{level}"


def _row(case, check, ok, statement, **metrics):
    """A report row that passes when ok holds and fails otherwise."""
    return VerificationReport(case, check, "pass" if ok else "fail", statement, metrics)


def _tropical_rows(sched, case, seed, row):
    """The rows read off the case's TropicalRun, passed to row.  A row whose
    reads raise ArithmeticError fails carrying the error: every row when the
    run raises (an exponent past the int8 range of its record), and the rows
    read through the relabelled record when its seed comparison fails
    (tropical.PeriodicityError)."""
    family, rank, level = case

    def counts(trop):
        got, want = trop.count_signs(), expected_counts(family, rank, level)
        return got == want, {"got": list(got), "expected": list(want)}

    def periodicity(trop):
        per = trop.periodicity_mismatches()
        first = {"first_mismatch": [per[0][0], per[0][1], str(per[0][2])]} if per else {}
        return not per, {"mismatches": len(per), **first}

    def signs(trop):
        sgn, bnd = trop.sign_pattern_mismatches(), trop.boundary_mismatches()
        return not (sgn or bnd), {"region_mismatches": len(sgn), "boundary_mismatches": len(bnd)}

    def tvectors(trop):
        bad = tvector_mismatches(trop) + (apart_mismatches_C(trop) if family == "C" else [])
        return not bad, {"mismatches": len(bad)}

    def shadow(trop):
        bad = tropical_shadow_mismatches(trop, seed=seed)
        return not bad, {"mismatches": len(bad)}

    checks = [
        ("tropical-counts", "sign-count-closed-form", counts),
        ("tropical-periodicity", "tropical-half-full-periodicity", periodicity),
        ("tropical-signs", "region-sign-classification", signs),
        ("tropical-shadow", "small-parameter-slopes", shadow),
    ] + [("tvectors", "level2-root-identities", tvectors)] * (level == 2)
    try:
        trop = TropicalRun(sched)
    except ArithmeticError as err:
        for check, statement, _ in checks:
            row(check, False, statement, error=str(err))
        return
    for check, statement, read in checks:
        try:
            ok, metrics = read(trop)
        except ArithmeticError as err:
            ok, metrics = False, {"error": str(err)}
        row(check, ok, statement, **metrics)


def _case_rows(case, cfg):
    family, rank, level = case
    cid = _case_id(family, rank, level)
    rows = []

    def row(check, ok, statement, **metrics):
        rows.append(_row(cid, check, ok, statement, **metrics))

    # scheduled mutation cycle (quiver transforms asserted over one period),
    # checked once here; every run of the case is driven by this Schedule
    try:
        sched = Schedule(build(FamilySpec(family, rank, level)))
        row("schedule", True, "scheduled-quiver-cycle", vertices=sched.model.n)
    except ScheduleError as err:
        row("schedule", False, "scheduled-quiver-cycle", error=str(err))
        return rows

    _tropical_rows(sched, case, cfg["seeds"][0], row)
    rows.append(_constant_dilog_row(case, cfg, sched))
    _numeric_rows(sched, tuple(cfg["seeds"]), cfg, row)
    return rows


def _numeric_rows(sched, seeds, cfg, row):
    """The rows read off the case's NumericRun, passed to row; when the run
    raises (a value off the float range), each of them fails carrying the
    error, and dilog-functional fails with check_functional_DI's error."""
    try:
        run = NumericRun(sched, seeds)
    except FloatingPointError as err:
        row("numeric-residuals", False, "recursion-residuals", error=str(err))
        row("numeric-periodicity", False, "labelled-periodicity", error=str(err))
        row("dilog-functional", False, "functional-dilog-identity", error=str(err))
        return
    worst_res, worst_per = worst_errors(run)
    res_tol, per_tol = cfg["residual_tol"], cfg["periodicity_tol"]
    row("numeric-residuals", worst_res < res_tol, "recursion-residuals", max_residual=worst_res, tol=res_tol)
    row("numeric-periodicity", worst_per < per_tol, "labelled-periodicity", max_error=worst_per, tol=per_tol)
    rep = check_functional_DI(run)
    if "error" in rep:
        row("dilog-functional", False, "functional-dilog-identity", error=rep["error"])
        return
    ok = rep["max_deviation"] < cfg["functional_tol"] and rep["seed_spread"] < cfg["functional_tol"]
    row(
        "dilog-functional", ok, "functional-dilog-identity",
        max_deviation=rep["max_deviation"], seed_spread=rep["seed_spread"], targets=list(rep["targets"]),
    )


def _pair_rows(pair, cfg):
    left, right = pair
    cid = f"{_case_id(*left)}~{_case_id(*right)}"
    Q1 = build(FamilySpec(*left)).quiver
    Q2 = build(FamilySpec(*right)).quiver
    metrics = {"depth_cap": cfg["depth_cap"], "node_cap": cfg["node_cap"]}
    try:
        res = search_equivalence(Q1, Q2, **metrics)
    except ValueError as err:  # sizes that differ, or past the search's size or entry bound
        res, metrics["error"] = None, str(err)
    if res is None:
        return [VerificationReport(cid, "mutation-equivalence", "inconclusive", "mutation-equivalence", metrics)]
    path, _ = res
    verified = find_isomorphism(path.replay(), Q2) is not None
    return [
        _row(
            cid, "mutation-equivalence", verified, "mutation-equivalence",
            path_length=len(path.moves), moves=list(path.moves),
        )
    ]


def _constant_dilog_row(case, cfg, sched=None):
    """The dilog-constant row of a case on its verified Schedule, which is
    built here when not given; a ScheduleError makes a failing row."""
    cid = _case_id(*case)
    try:
        lhs, rhs, err = constant_DI(sched or Schedule(build(FamilySpec(*case))))
    except ScheduleError as error:
        return _row(cid, "dilog-constant", False, "constant-dilog-identity", error=str(error))
    return _row(
        cid, "dilog-constant", err < cfg["dilog_tol"], "constant-dilog-identity", lhs=lhs, rhs=rhs, abs_error=err
    )


def _extra_dilog_rows(cfg):
    """The dilog-constant rows at the extra levels, but for the cases' own."""
    extra = {(f, r, lev) for f, r, _ in cfg["cases"] for lev in cfg["extra_dilog_levels"]}
    return [_constant_dilog_row(case, cfg) for case in sorted(extra - set(cfg["cases"]))]


def _lists(v, depth):
    """v is a list (or tuple) of lists, depth levels deep."""
    return isinstance(v, (list, tuple)) and (depth == 1 or all(_lists(x, depth - 1) for x in v))


def _number(v, kind, low=0):
    """v is a finite number of the numbers-ABC kind, above low; bools are not numbers here."""
    return isinstance(v, kind) and not isinstance(v, bool) and low < v < math.inf


_TOLERANCE = ("a positive real number", lambda v: _number(v, numbers.Real))
_CAP = ("a positive int", lambda v: _number(v, numbers.Integral))
_VALUE_TYPES = {  # key: (what its value must be, the test)
    "cases": ("a list of cases", lambda v: _lists(v, 2)),
    "pairs": ("a list of pairs of cases", lambda v: _lists(v, 3)),
    "seeds": (
        "a list of non-negative ints",
        lambda v: _lists(v, 1) and all(_number(x, numbers.Integral, low=-1) for x in v),
    ),
    "extra_dilog_levels": ("a list", lambda v: _lists(v, 1)),
    "residual_tol": _TOLERANCE,
    "periodicity_tol": _TOLERANCE,
    "dilog_tol": _TOLERANCE,
    "functional_tol": _TOLERANCE,
    "depth_cap": _CAP,
    "node_cap": _CAP,
}


def resolve_config(config=None):
    """DEFAULT_CONFIG updated by config, with the cases and pairs as tuples.

    Raises ValueError on a config that is not a mapping, a key that
    DEFAULT_CONFIG does not have, a value of the wrong type, an empty seed
    list, a pair that is not two cases, a case or pair listed twice, or a
    case or pair that cannot be run.
    """
    config = config or {}
    if not isinstance(config, dict):
        raise ValueError("the config must be a mapping of settings")
    unknown = sorted(set(config) - set(DEFAULT_CONFIG))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(map(repr, unknown))}")
    cfg = {**DEFAULT_CONFIG, **config}
    for key, (kind, ok) in _VALUE_TYPES.items():
        if not ok(cfg[key]):
            raise ValueError(f"{key} must be {kind}, not {cfg[key]!r}")
    if not cfg["seeds"]:
        raise ValueError("seeds must list at least one seed")
    cfg["cases"] = [tuple(c) for c in cfg["cases"]]
    cfg["pairs"] = [tuple(map(tuple, p)) for p in cfg["pairs"]]
    for key in ("cases", "pairs"):
        for i, item in enumerate(cfg[key]):
            if key == "pairs" and len(item) != 2:
                raise ValueError(f"pair {json.dumps(item)} must be two cases, not {len(item)}")
            if item in cfg[key][:i]:
                raise ValueError(f"{key} lists {json.dumps(item)} twice")
    extra = [(f, r, lev) for f, r, _ in cfg["cases"] for lev in cfg["extra_dilog_levels"]]
    for case in cfg["cases"] + extra + [side for pair in cfg["pairs"] for side in pair]:
        try:
            FamilySpec(*case)
            if case in cfg["cases"]:
                cartan_data(case[0], case[1])  # a case needs a schedule: C, F4 or G2
        except (TypeError, ValueError) as err:
            raise ValueError(f"case {':'.join(map(str, case))}: {err}") from err
    return cfg


def run_suite(config=None):
    """Run every verification over the configured cases; returns report rows.

    resolve_config rejects a bad config with a ValueError before any work
    starts.
    """
    cfg = resolve_config(config)
    rows = [row for case in cfg["cases"] for row in _case_rows(case, cfg)]
    rows += [row for pair in cfg["pairs"] for row in _pair_rows(pair, cfg)]
    rows += _extra_dilog_rows(cfg)
    rows.sort(key=lambda r: (r.case, r.check))
    return rows


def suite_passed(rows):
    return all(r.status == "pass" for r in rows)
