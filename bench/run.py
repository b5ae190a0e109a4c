"""ysyslab benchmark: one workload, timed end to end or traced per layer.

Run from the root of a source checkout:

    python3 bench/run.py --workload suite --seed 1 --seconds 60 --trace 0

Workloads: suite and scale (see README.md).  With ``--trace 0`` the
metrics are the end-to-end ones: setup_s, verdict_s, peak_rss_mb and
headroom_digits.  With ``--trace 1`` they are the per-layer counts and self
times of the traced run.  Each round of the workload runs in a fresh
interpreter.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  The whole result, with the
per-round times and the machine's nproc and versions, is also written to
bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from speed import REFERENCE_PROBE_S
from workload import WORKLOADS

HERE = Path(__file__).resolve().parent
#: a run ends within this many seconds, or fails
RUN_LIMIT_S = 170


def child_env(root):
    """The environment of every child: the checkout's src first on the path,
    YSYSLAB_THREADS cleared so dispatch is serial, bytecode caches allowed so
    that set-up is timed as an installed package pays it, and a fixed hash
    seed."""
    env = dict(os.environ)
    env.pop("YSYSLAB_THREADS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONHASHSEED"] = "0"
    path = [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


def verdict_s(rounds):
    """Wall time of one round at the reference machine speed.

    Each call's time in a round is divided by the probe time around it, the
    mean of the median probe time just before it and the median just after
    it, which takes out the speed of the shared machine at that moment.  It
    is then multiplied by the probe's median time on the reference machine.  The result for each call is the median
    over the rounds, and the verdict time is their sum: dispatch is serial,
    so a round's wall time is the sum of its calls' times.  The checks
    between calls are not counted.
    """
    per_call = []
    for c in range(len(rounds[0]["times"])):
        per_call.append(statistics.median(
            r["times"][c] / statistics.mean(map(statistics.median, r["gaps"][c:c + 2])) for r in rounds
        ))
    return REFERENCE_PROBE_S * sum(per_call)


def wall_verdict_s(rounds):
    """Sum over the calls of each call's median wall time, as measured."""
    return sum(statistics.median(times) for times in zip(*(r["times"] for r in rounds)))


class RoundFailed(Exception):
    pass


def run_round(cmd, env, timeout):
    """Run one round in a fresh interpreter; returns its figures and set-up time.

    The round leads its own process group, so that a timeout stops it whole.
    """
    spawned = perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RoundFailed(f"a round did not end within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RoundFailed(f"a round exited with code {proc.returncode}")
    lines = stdout.strip().splitlines()
    out = json.loads(lines[-1])
    # perf_counter is the system-wide monotonic clock, shared with the child
    out["setup_s"] = json.loads(lines[0])["ready"] - spawned
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    started = perf_counter()
    root = Path.cwd()
    if not (root / "src" / "ysyslab" / "__init__.py").is_file():
        print(f"error: no ysyslab sources under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    env = child_env(root)
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = results / f"{stem}-spans.jsonl"
    spans.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--trace", str(args.trace), "--spans", str(spans),
    ]

    # whole rounds until the next one would end after --seconds
    rounds = []
    try:
        while True:
            timeout = RUN_LIMIT_S - (perf_counter() - started)
            rounds.append(run_round(cmd + ["--round", str(len(rounds))], env, timeout))
            elapsed = perf_counter() - started
            if elapsed + elapsed / len(rounds) > args.seconds:
                break
    except RoundFailed as err:
        print(f"error: workload {args.workload}: {err}", file=sys.stderr)
        return 1

    if args.trace:
        layers = [r["layers"] for r in rounds]
        counts = [{k: v for k, v in layer.items() if not k.endswith(".s")} for layer in layers]
        if any(c != counts[0] for c in counts):
            print("error: per-layer counts differ between rounds", file=sys.stderr)
            return 1
        metrics = {k: {"value": v, "unit": "count"} for k, v in counts[0].items()}
        for name in layers[0]:
            if name.endswith(".s"):
                metrics[name] = {"value": statistics.median(layer[name] for layer in layers), "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(r["setup_s"] for r in rounds), "unit": "s"},
            "verdict_s": {"value": verdict_s(rounds), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in rounds), "unit": "MB"},
            "headroom_digits": {"value": min(r["headroom_digits"] for r in rounds), "unit": "digits"},
        }
    failures = [f for r in rounds for f in r["failures"]]
    result = {
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": len(failures),
        "metrics": metrics,
    }
    record = dict(
        result, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        verdict_s=verdict_s(rounds), wall_verdict_s=wall_verdict_s(rounds), jobs=rounds[0]["jobs"],
        rounds=[r["times"] for r in rounds], gaps=[r["gaps"] for r in rounds],
        setup_times=[r["setup_s"] for r in rounds],
        failures=failures, machine=rounds[0]["machine"],
    )
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps(rounds[0]["machine"]), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
