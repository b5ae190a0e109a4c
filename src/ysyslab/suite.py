"""The wired verification suite: runs every check over a case list and
emits machine-readable report rows (one JSON object per case and check)."""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field

from .builders import FamilySpec, build, cartan_data
from .dilog import check_functional_DI, constant_DI
from .mutclass import DEPTH_CAP, NODE_CAP, search_equivalence
from .numeric import NumericRun, tropical_shadow_mismatches, worst_errors
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
    "extra_dilog_levels": [5],
}

# the bounds of the acceptance criteria: relative for the recursion
# residuals and periodicity, absolute for the dilogarithm identities
RESIDUAL_TOL = 1e-9
PERIODICITY_TOL = 1e-8
DILOG_TOL = 1e-8
FUNCTIONAL_TOL = 1e-6


# the errors that fail a report row: a schedule that fails its checks, a
# tropical exponent past the int8 range, a failed seed comparison, a numeric
# value off the float range, or coefficients off the positive reals
FAILURES = (ScheduleError, ArithmeticError)


def strict_json(data, **kwargs):
    """data as JSON (RFC 8259), which has no NaN or infinity: a non-finite
    float is written as the string "nan", "inf" or "-inf"."""

    def finite(v):
        if isinstance(v, dict):
            return {k: finite(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [finite(x) for x in v]
        return str(v) if isinstance(v, float) and not math.isfinite(v) else v

    return json.dumps(finite(data), allow_nan=False, **kwargs)


@dataclass
class VerificationReport:
    case: str
    check: str
    status: str  # pass / fail / inconclusive
    statement: str
    metrics: dict = field(default_factory=dict)

    def to_json(self):
        return strict_json(asdict(self), sort_keys=True)


def _case_id(family, rank, level):
    return f"{family}:{rank}:{level}"


def _row(case, check, ok, statement, **metrics):
    """A report row that passes when ok holds and fails otherwise."""
    return VerificationReport(case, check, "pass" if ok else "fail", statement, metrics)


def _attempt(fn, *args):
    """fn(*args), or the FAILURES error that it raises."""
    try:
        return fn(*args)
    except FAILURES as err:
        return err


def _read_rows(cid, value, reads):
    """The rows of case cid, one per (check, statement, read) of reads, where
    read(value) is an (ok, metrics) pair.  When value is the FAILURES error
    that building it raised, every row fails carrying it; such an error
    raised by one read fails that row alone."""
    rows = []
    for check, statement, read in reads:
        got = value if isinstance(value, FAILURES) else _attempt(read, value)
        ok, metrics = (False, {"error": str(got)}) if isinstance(got, FAILURES) else got
        rows.append(_row(cid, check, ok, statement, **metrics))
    return rows


def _tropical_rows(sched, case, seed):
    """The rows read off the case's TropicalRun, which raises for an exponent
    past the int8 range; the reads through its relabelled record raise when
    its seed comparison fails (tropical.PeriodicityError)."""
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

    reads = [
        ("tropical-counts", "sign-count-closed-form", counts),
        ("tropical-periodicity", "tropical-half-full-periodicity", periodicity),
        ("tropical-signs", "region-sign-classification", signs),
        ("tropical-shadow", "small-parameter-slopes", shadow),
    ] + [("tvectors", "level2-root-identities", tvectors)] * (level == 2)
    return _read_rows(_case_id(*case), _attempt(TropicalRun, sched), reads)


def _numeric_rows(sched, case, seeds):
    """The rows read off the case's NumericRun and its worst_errors, which
    raise when a value leaves the float range; check_functional_DI raises
    for labelled coefficients off the positive reals."""

    def run_and_errors():
        run = NumericRun(sched, seeds)
        return (run, *worst_errors(run))

    def functional(value):
        rep = check_functional_DI(value[0])
        metrics = {key: rep[key] for key in ("max_deviation", "seed_spread")}
        return all(v < FUNCTIONAL_TOL for v in metrics.values()), {**metrics, "targets": list(rep["targets"])}

    reads = [
        ("numeric-residuals", "recursion-residuals",
         lambda v: (v[1] < RESIDUAL_TOL, {"max_residual": v[1], "tol": RESIDUAL_TOL})),
        ("numeric-periodicity", "labelled-periodicity",
         lambda v: (v[2] < PERIODICITY_TOL, {"max_error": v[2], "tol": PERIODICITY_TOL})),
        ("dilog-functional", "functional-dilog-identity", functional),
    ]
    return _read_rows(_case_id(*case), _attempt(run_and_errors), reads)


def _constant_dilog_rows(case, sched=None):
    """The dilog-constant row of a case on its verified Schedule, which is
    built here when not given."""

    def identity(sched):
        lhs, rhs, err = constant_DI(sched)
        return err < DILOG_TOL, {"lhs": lhs, "rhs": rhs, "abs_error": err}

    value = sched or _attempt(Schedule, build(FamilySpec(*case)))
    return _read_rows(_case_id(*case), value, [("dilog-constant", "constant-dilog-identity", identity)])


def _case_rows(case, cfg):
    """The rows of a case.  Its Schedule (the quiver transforms asserted over
    one period) is verified once here and drives every run of the case; a
    case whose Schedule fails has its schedule row alone."""
    sched = _attempt(Schedule, build(FamilySpec(*case)))
    reads = [("schedule", "scheduled-quiver-cycle", lambda s: (True, {"vertices": s.model.n}))]
    rows = _read_rows(_case_id(*case), sched, reads)
    if not isinstance(sched, FAILURES):
        rows += _tropical_rows(sched, case, cfg["seeds"][0]) + _constant_dilog_rows(case, sched)
        rows += _numeric_rows(sched, case, tuple(cfg["seeds"]))
    return rows


def _pair_rows(pair):
    """The mutation-equivalence row of a pair: pass with a path, which the
    search has checked ends at an isomorph of the right quiver, or
    inconclusive."""
    left, right = pair
    cid = f"{_case_id(*left)}~{_case_id(*right)}"
    metrics = {"depth_cap": DEPTH_CAP, "node_cap": NODE_CAP}
    try:
        res = search_equivalence(build(FamilySpec(*left)).quiver, build(FamilySpec(*right)).quiver)
    except ValueError as err:  # sizes that differ, or past the search's size or entry bound
        res, metrics["error"] = None, str(err)
    if res is None:
        return [VerificationReport(cid, "mutation-equivalence", "inconclusive", "mutation-equivalence", metrics)]
    moves = list(res[0].moves)
    return [_row(cid, "mutation-equivalence", True, "mutation-equivalence", path_length=len(moves), moves=moves)]


def _extra_dilog_rows(cfg):
    """The dilog-constant rows at the extra levels, but for the cases' own."""
    extra = {(f, r, lev) for f, r, _ in cfg["cases"] for lev in cfg["extra_dilog_levels"]}
    return [row for case in sorted(extra - set(cfg["cases"])) for row in _constant_dilog_rows(case)]


def _lists(v, depth):
    """v is a list (or tuple) of lists, depth levels deep."""
    return isinstance(v, (list, tuple)) and (depth == 1 or all(_lists(x, depth - 1) for x in v))


_VALUE_TYPES = {  # key: (what its value must be, the test)
    "cases": ("a list of cases", lambda v: _lists(v, 2)),
    "pairs": ("a list of pairs of cases", lambda v: _lists(v, 3)),
    "seeds": (  # numbers-ABC ints, which numpy's are too; bools are not ints here
        "a list of non-negative ints",
        lambda v: _lists(v, 1)
        and all(isinstance(x, numbers.Integral) and not isinstance(x, bool) and x >= 0 for x in v),
    ),
    "extra_dilog_levels": ("a list", lambda v: _lists(v, 1)),
}


def _dumps(item):
    """item as JSON, numpy integers as ints and any other value JSON lacks as its str."""
    return json.dumps(item, default=lambda v: int(v) if isinstance(v, numbers.Integral) else str(v))


def resolve_config(config=None):
    """DEFAULT_CONFIG updated by config, with the cases and pairs as tuples.

    Raises ValueError on a config that is not a mapping, a key that
    DEFAULT_CONFIG does not have, a value of the wrong type, an empty seed
    list, a pair that is not two cases, a case, pair or seed listed twice,
    or a case or pair that cannot be run.
    """
    config = config or {}
    if not isinstance(config, dict):
        raise ValueError("the config must be a mapping of settings")
    unknown = sorted(set(config) - set(DEFAULT_CONFIG), key=str)
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
    for key in ("cases", "pairs", "seeds"):
        for i, item in enumerate(cfg[key]):
            if key == "pairs" and len(item) != 2:
                raise ValueError(f"pair {_dumps(item)} must be two cases, not {len(item)}")
            if item in cfg[key][:i]:
                raise ValueError(f"{key} lists {_dumps(item)} twice")
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
    rows += [row for pair in cfg["pairs"] for row in _pair_rows(pair)]
    rows += _extra_dilog_rows(cfg)
    rows.sort(key=lambda r: (r.case, r.check))
    return rows


def suite_passed(rows):
    return all(r.status == "pass" for r in rows)
