"""Run one round of a benchmark workload in this process; print its figures.

run.py starts one fresh interpreter per round, with ``src`` on PYTHONPATH
and YSYSLAB_THREADS cleared, so dispatch is serial, the peak resident memory
is the round's own, and nothing a round caches in the process can speed up
the next one.  The round makes every call of the workload once, timing each
call and checking its output with checks.py after the timer stops; the speed
probe of speed.py runs before the first call and after each call.  The
first line printed is the moment ysyslab became usable, for ``setup_s``;
the last line is one JSON object with the round's figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import Tally  # noqa: E402

#: run_suite's default case list, mutation-equivalence pairs and the
#: families of its level-5 constant checks, fixed here so that the workload
#: does not move when the program's defaults do.
SUITE_CASES = (
    [("C", r, lev) for r in (2, 3, 4) for lev in (2, 3, 4)]
    + [("F4", 4, 2), ("F4", 4, 3)]
    + [("G2", 2, lev) for lev in (2, 3, 4)]
)
SUITE_PAIRS = (
    (("C", 3, 2), ("D", 4, 3)),
    (("F4", 4, 2), ("D", 5, 3)),
    (("C", 2, 3), ("A", 3, 4)),
    (("G2", 2, 2), ("C", 3, 2)),
    (("G2", 2, 3), ("C", 3, 3)),
)
SUITE_EXTRA_LEVEL = 5
SUITE_EXTRA_FAMILIES = (("C", 2), ("C", 3), ("C", 4), ("F4", 4), ("G2", 2))
SCALE_CASES = (("C", 6, 6), ("F4", 4, 5), ("G2", 2, 6))

WORKLOADS = ("suite", "scale")
NUMERIC_SEEDS = 5


def numeric_seeds(seed):
    """The five numeric seeds of a run, drawn from the benchmark's seed."""
    rng = random.Random(seed)
    return [rng.randrange(2**32) for _ in range(NUMERIC_SEEDS)]


def case_id(case):
    return ":".join(map(str, case))


def expected_rows(case):
    """(case, check) keys that run_suite emits for one case."""
    checks = ["schedule", "tropical-counts", "tropical-periodicity", "tropical-signs"]
    if case[2] == 2:
        checks.append("tvectors")
    checks += [
        "numeric-residuals", "numeric-periodicity", "tropical-shadow",
        "dilog-constant", "dilog-functional",
    ]
    return {(case_id(case), c) for c in checks}


class Job:
    """One call into ysyslab, and how to check what it returns."""

    def __init__(self, label, call, check):
        self.label = label
        self.call = call
        self.check = check


def suite_job(label, config, expected, pair_matrices=None):
    from ysyslab import suite

    def check(rows, tally):
        keys = {(r.case, r.check) for r in rows}
        tally.check(keys == expected and len(rows) == len(expected), f"{label}: rows {sorted(keys)}")
        for r in rows:
            case = r.case if "~" in r.case else tuple(
                int(x) if x.isdigit() else x for x in r.case.split(":")
            )
            tally.row(case, r.check, r.status, r.metrics, pair_matrices)

    # looked up at call time, so that a traced run goes through the wrapper
    return Job(label, lambda: suite.run_suite(config), check)


def dilog_job(case):
    from ysyslab import dilog

    def check(result, tally):
        lhs, rhs, _ = result
        tally.constant_dilog(case, lhs, rhs)

    return Job(f"check_DI {case_id(case)}", lambda: dilog.check_DI(*case), check)


def case_job(case, seeds):
    config = {"cases": [case], "pairs": [], "extra_dilog_levels": [], "seeds": seeds}
    return suite_job(f"run_suite {case_id(case)}", config, expected_rows(case))


def pair_job(pair):
    from ysyslab.builders import FamilySpec, build

    left, right = pair
    cid = f"{case_id(left)}~{case_id(right)}"
    # the end quivers are fetched once, before timing or tracing starts
    matrices = tuple(build(FamilySpec(*side)).quiver.B.tolist() for side in pair)
    config = {"cases": [], "pairs": [pair], "extra_dilog_levels": []}
    return suite_job(f"run_suite {cid}", config, {(cid, "mutation-equivalence")}, matrices)


def make_jobs(workload, seed):
    """The calls of one round, in the order run_suite dispatches them: one
    case or pair at a time, with the numeric seeds taken from the benchmark's
    seed."""
    seeds = numeric_seeds(seed)
    if workload == "suite":
        return (
            [case_job(c, seeds) for c in SUITE_CASES]
            + [pair_job(p) for p in SUITE_PAIRS]
            + [dilog_job((f, r, SUITE_EXTRA_LEVEL)) for f, r in SUITE_EXTRA_FAMILIES]
        )
    if workload == "scale":
        return [case_job(c, seeds) for c in SCALE_CASES]
    raise ValueError(f"unknown workload {workload!r}")


def run_round(jobs, tally):
    """Time each call, then check its output outside the timed span.

    The speed probe runs before the first call and after each call, so every
    call has probe times on both sides.  Returns the call times and the
    probe times of each gap, one more gap than calls.
    """
    from speed import gap

    times = []
    gaps = [gap()]
    for job in jobs:
        start = perf_counter()
        try:
            out = job.call()
        except Exception as err:  # a raising call is a failed check, not a crash
            times.append(perf_counter() - start)
            tally.check(False, f"{job.label}: {type(err).__name__}: {err}")
        else:
            times.append(perf_counter() - start)
            job.check(out, tally)
        gaps.append(gap())
    return times, gaps


def machine():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="append the trace spans here as JSON Lines")
    ap.add_argument("--round", type=int, default=0, help="round number for the spans")
    args = ap.parse_args(argv)

    import ysyslab.cli  # noqa: F401  (imports every module, as the CLI does)

    print(json.dumps({"ready": perf_counter()}), flush=True)
    src = Path.cwd() / "src"
    if Path(ysyslab.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"ysyslab was imported from {ysyslab.__file__}, not from {src}")

    jobs = make_jobs(args.workload, args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
    tally = Tally()
    times, gaps = run_round(jobs, tally)

    layers = None
    if tracer is not None:
        layers = tracer.figures()
        if args.spans:
            with open(args.spans, "a") as fh:
                for name, t0, t1, parent in tracer.spans:
                    span = {"round": args.round, "name": name, "start": t0, "end": t1, "parent": parent}
                    fh.write(json.dumps(span) + "\n")

    print(json.dumps({
        "jobs": [j.label for j in jobs],
        "times": times,
        "gaps": gaps,
        "layers": layers,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "headroom_digits": tally.headroom,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine(),
    }))


if __name__ == "__main__":
    main()
