"""Command-line entry point: build, schedule, tropical, numeric, orbits,
dilog, mutclass, and suite subcommands, all emitting JSON."""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from fractions import Fraction

from .builders import FIXED_RANK, FamilySpec, build
from .dilog import check_functional_DI, constant_DI
from .mutclass import DEPTH_CAP, NODE_CAP, search_equivalence
from .numeric import NumericRun, worst_errors
from .roots import format_d_symbol, level2_core, pl_dynamics
from .schedule import TRANSFORMS, Schedule
from .suite import FAILURES, PERIODICITY_TOL, RESIDUAL_TOL, resolve_config, run_suite, strict_json, suite_passed
from .tropical import TropicalRun


class UsageError(Exception):
    """A command-line value that the parser cannot check alone; main reports
    it as a usage error."""


def _positive_int(text):
    """An argparse type: an int above 0."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive int, not {text!r}")
    return value


def _time(text):
    """An argparse type: a time u as an exact fraction."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as err:
        raise argparse.ArgumentTypeError(f"{text!r} is not a time ({err})") from err


def _parse_case(text):
    try:
        family, rank, level = text.split(":")
        return FamilySpec(family, int(rank), int(level))
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"{text!r} is not a case family:rank:level ({err})") from err


def _load_config(path):
    try:
        with open(path) as fh:
            return resolve_config(json.load(fh))
    except (OSError, ValueError) as err:
        raise argparse.ArgumentTypeError(f"{path}: {err}") from err


def _write(text, path=None):
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit(data, path=None):
    _write(strict_json(data, indent=2, default=str), path)


def _cmd_build(args):
    _write(build(args.spec).quiver.to_json(), args.out)


def _cmd_schedule(args):
    mdl = build(args.spec)
    t = mdl.cartan["t"]
    s_from, s_to = args.frm * t, args.to * t
    if s_from.denominator != 1 or s_to.denominator != 1:
        raise UsageError(f"--from and --to must be multiples of 1/{t} for type {args.family}")
    if s_from > s_to:
        raise UsageError(f"--from {args.frm} is after --to {args.to}")
    sched = Schedule(mdl)
    steps = []
    for s in range(int(s_from), int(s_to)):
        perm, opposite = TRANSFORMS[args.family][(s + 1) % (2 * t)]
        steps.append({
            "from": str(Fraction(s, t)),
            "to": str(Fraction(s + 1, t)),
            "mutate": [list(mdl.position(v)) for v in sched.sets[s % (2 * t)]],
            "expected_perm": perm,
            "expected_opposite": opposite,
        })
    _emit(steps, args.out)


def _cmd_tropical(args):
    run = TropicalRun(Schedule(build(args.spec)))
    counts = run.count_signs()
    s, v, classes = run.point_signs(0, run.full_s)
    points = [
        {"vertex": list(run.model.position(v)), "u": str(Fraction(s, run.t)), "exponents": e, "sign": sign}
        for s, v, e, sign in zip(s.tolist(), v.tolist(), run.monomial(v, s).tolist(), classes.tolist())
    ]
    _emit(
        {
            "case": f"{args.family}:{args.rank}:{args.level}",
            "positive": counts[0],
            "negative": counts[1],
            "periodicity_mismatches": len(run.periodicity_mismatches()),
            "points": points,
        },
        args.report,
    )


def _cmd_numeric(args):
    sched, seeds = Schedule(build(args.spec)), tuple(range(args.seeds))
    worst_res, worst_per = worst_errors(NumericRun(sched, seeds))
    ok = bool(worst_res < RESIDUAL_TOL and worst_per < PERIODICITY_TOL)
    _emit(
        {
            "case": f"{args.family}:{args.rank}:{args.level}",
            "seeds": args.seeds,
            "max_residual": worst_res,
            "max_periodicity_error": worst_per,
            "residual_tol": RESIDUAL_TOL,
            "periodicity_tol": PERIODICITY_TOL,
            "ok": ok,
        },
        args.out,
    )
    if not ok:
        raise SystemExit(1)


def _cmd_orbits(args):
    """The orbits of sigma on the level-2 core of C_{rank-1} (a D_rank
    diagram), F4 (E6) or G2 (D4)."""
    if args.sigma == "C":
        if args.rank is None or args.rank < 3:
            raise UsageError("--sigma C needs --rank, the rank of the D diagram, of at least 3")
        spec, fmt = FamilySpec("C", args.rank - 1, 2), lambda vec: format_d_symbol(args.rank - 1, vec)
    elif args.rank is not None:
        raise UsageError(f"--sigma {args.sigma} takes no --rank")
    else:
        spec, fmt = FamilySpec(args.sigma, FIXED_RANK[args.sigma], 2), str
    mdl = build(spec)
    sig, _ = pl_dynamics(Schedule(mdl), level2_core(mdl))
    for orbit in sig.orbit_decomposition():
        print(" -> ".join(fmt(v) for v in orbit) + " -> " + fmt(orbit[0]))


def _cmd_dilog(args):
    sched = Schedule(build(args.spec))
    lhs, rhs, err = constant_DI(sched)
    out = {"constant": {"lhs": lhs, "rhs": rhs, "abs_error": err}}
    if args.functional:
        out["functional"] = check_functional_DI(NumericRun(sched, tuple(range(5))))
    _emit(out, args.out)


def _cmd_mutclass(args):
    Q1 = build(args.left).quiver
    Q2 = build(args.right).quiver
    out = {"found": False, "depth_cap": DEPTH_CAP, "node_cap": args.nodes}
    try:
        res = search_equivalence(Q1, Q2, node_cap=args.nodes)
    except ValueError as err:  # sizes that differ, or past the search's size or entry bound
        res, out["error"] = None, str(err)
    if res is None:
        _emit(out)
        raise SystemExit(2)
    path, iso = res
    _emit({"found": True, "moves": list(path.moves), "isomorphism": list(iso)})


def _cmd_suite(args):
    # the report file is opened first, so an unwritable path fails before the run
    with open(args.out, "w") if args.out else contextlib.nullcontext() as fh:
        rows = run_suite(args.config)
        if fh:
            fh.write("\n".join(r.to_json() for r in rows) + "\n")
    for r in rows:
        print(f"{r.status:12s} {r.case:12s} {r.check}")
    n_fail = sum(r.status != "pass" for r in rows)
    print(f"{len(rows)} checks, {n_fail} not passing")
    if not suite_passed(rows):
        raise SystemExit(1)


def main(argv=None):
    ap = argparse.ArgumentParser(prog="ysyslab")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add_case_args(p, families=("C", "F4", "G2")):
        p.add_argument("--family", required=True, choices=families)
        p.add_argument("--rank", type=int, default=None)
        p.add_argument("--level", type=int, default=2)

    p = sub.add_parser("build", help="emit a quiver as JSON")
    add_case_args(p, ("C", "F4", "G2", "A", "D", "E6"))
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("schedule", help="list composite mutation steps")
    add_case_args(p)
    p.add_argument("--from", dest="frm", type=_time, default="0")
    p.add_argument("--to", dest="to", type=_time, default="2")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_schedule)

    p = sub.add_parser("tropical", help="tropical coefficient run and tallies")
    add_case_args(p)
    p.add_argument("--report")
    p.set_defaults(fn=_cmd_tropical)

    p = sub.add_parser("numeric", help="numeric residual and periodicity report")
    add_case_args(p)
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_numeric)

    p = sub.add_parser("orbits", help="print sigma orbits on almost positive roots")
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--sigma", choices=["C", "F4", "G2"], required=True)
    p.set_defaults(fn=_cmd_orbits)

    p = sub.add_parser("dilog", help="dilogarithm identity report")
    add_case_args(p)
    p.add_argument("--functional", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_dilog)

    p = sub.add_parser("mutclass", help="search a mutation equivalence")
    p.add_argument("--left", required=True, type=_parse_case, help="family:rank:level")
    p.add_argument("--right", required=True, type=_parse_case, help="family:rank:level")
    p.add_argument("--nodes", type=_positive_int, default=NODE_CAP)
    p.set_defaults(fn=_cmd_mutclass)

    p = sub.add_parser("suite", help="run the whole verification suite")
    p.add_argument("--config", type=_load_config)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_suite)

    args = ap.parse_args(argv)
    if getattr(args, "family", None):
        if args.rank is None:
            args.rank = FIXED_RANK.get(args.family, 3)
        try:
            args.spec = FamilySpec(args.family, args.rank, args.level)
        except ValueError as err:
            ap.error(str(err))
    if getattr(args, "seeds", 1) < 1:
        ap.error("--seeds must be at least 1")
    try:
        args.fn(args)
    except UsageError as err:
        ap.error(str(err))
    # the errors that fail a suite row, or an output path that cannot be written
    except (*FAILURES, OSError) as err:
        print(f"ysyslab {args.cmd}: error: {err}", file=sys.stderr)
        raise SystemExit(1) from None


if __name__ == "__main__":
    main()
