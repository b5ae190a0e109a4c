import ast
import importlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from tests import oracle
from tests.conftest import cached_dynamics
from ysyslab import builders, cli, mutclass, numeric, schedule, suite, tropical
from ysyslab.cli import main
from ysyslab.numeric import NumericRun
from ysyslab.quiver import Quiver
from ysyslab.roots import format_d_symbol, neg_simple
from ysyslab.suite import VerificationReport, run_suite, suite_passed
from ysyslab.tropical import TropicalRun

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"


def strict_loads(text):
    """text parsed as JSON (RFC 8259), which has no NaN or Infinity token."""

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_build_json(capsys, tmp_path):
    main(["build", "--family", "C", "--rank", "2", "--level", "2"])
    data = json.loads(capsys.readouterr().out)
    assert data["n"] == 5 and len(data["edges"]) == 6
    out = tmp_path / "q.json"
    main(["build", "--family", "G2", "--rank", "2", "--level", "2", "--out", str(out)])
    assert json.loads(out.read_text())["n"] == 8


def test_schedule_listing(capsys):
    main(["schedule", "--family", "G2", "--rank", "2", "--level", "3", "--from", "0", "--to", "2"])
    steps = json.loads(capsys.readouterr().out)
    assert len(steps) == 6
    assert steps[0]["from"] == "0" and steps[-1]["to"] == "2"


def test_schedule_empty_interval(capsys):
    main(["schedule", "--family", "C", "--rank", "2", "--level", "2", "--from", "1", "--to", "1"])
    assert json.loads(capsys.readouterr().out) == []


def test_schedule_listing_is_verified(monkeypatch, capsys):
    # the listing comes from a verified Schedule: a quiver with an arrow
    # inside the first slot fails the one-period check and is not listed;
    # the command ends with the check's error
    def with_arrow_in_slot(spec):
        m = builders.build(spec)
        i, j = schedule.slot_sets(m)[0][:2]
        B = m.quiver.B.copy()
        B[i, j], B[j, i] = 1, -1
        return type(m)(m.spec, Quiver(B, m.quiver.meta), dict(m.index))

    monkeypatch.setattr(cli, "build", with_arrow_in_slot)
    with pytest.raises(SystemExit) as err:
        main(["schedule", "--family", "C", "--rank", "3", "--level", "2"])
    assert err.value.code == 1
    out, stderr = capsys.readouterr()
    assert out == "" and stderr.startswith("ysyslab schedule: error: step from u=0: ") and "adjacent" in stderr


def test_tropical_report(capsys):
    main(["tropical", "--family", "C", "--rank", "2", "--level", "2"])
    rep = json.loads(capsys.readouterr().out)
    assert (rep["positive"], rep["negative"]) == (20, 20)
    assert rep["periodicity_mismatches"] == 0
    assert len(rep["points"]) == 40


def test_numeric_report(capsys):
    main(["numeric", "--family", "G2", "--rank", "2", "--level", "2", "--seeds", "2"])
    rep = json.loads(capsys.readouterr().out)
    assert rep["ok"] is True
    assert (rep["residual_tol"], rep["periodicity_tol"]) == (suite.RESIDUAL_TOL, suite.PERIODICITY_TOL) == (1e-9, 1e-8)


@pytest.mark.parametrize("case", [("C", 2, 2), ("G2", 2, 3)], ids=str)
def test_numeric_gives_the_suite_verdict(case, capsys):
    # the command's worst errors are those of the suite's numeric rows over
    # the same seeds, and its ok holds exactly when both rows pass
    seeds = [0, 1, 2, 3, 4]
    rows = run_suite({"cases": [case], "pairs": [], "seeds": seeds, "extra_dilog_levels": []})
    res, per = ({r.check: r for r in rows}[check] for check in ("numeric-residuals", "numeric-periodicity"))
    family, rank, level = map(str, case)
    main(["numeric", "--family", family, "--rank", rank, "--level", level, "--seeds", str(len(seeds))])
    rep = json.loads(capsys.readouterr().out)
    assert rep["max_residual"] == res.metrics["max_residual"]
    assert rep["max_periodicity_error"] == per.metrics["max_error"]
    assert rep["ok"] is (res.status == per.status == "pass")


def test_numeric_exits_1_when_its_verdict_fails(monkeypatch, capsys):
    # a NaN residual, as a float overflow leaves, fails the verdict; the
    # report is still printed, and the exit status says it failed
    monkeypatch.setattr(cli, "worst_errors", lambda run: (float("nan"), 0.0))
    with pytest.raises(SystemExit) as err:
        main(["numeric", "--family", "C", "--rank", "2", "--level", "2", "--seeds", "1"])
    assert err.value.code == 1
    rep = strict_loads(capsys.readouterr().out)
    assert rep["ok"] is False and rep["max_residual"] == "nan"


def test_strict_json_writes_non_finite_floats_as_strings():
    # a non-finite float, at any depth and as numpy's too, is its str; every
    # other value is written as json.dumps writes it
    data = {"a": [float("inf"), (np.float64("-inf"), 1.5)], "b": {"c": float("nan")}, "d": 2}
    text = suite.strict_json(data, sort_keys=True)
    assert strict_loads(text) == {"a": ["inf", ["-inf", 1.5]], "b": {"c": "nan"}, "d": 2}
    assert suite.strict_json({"x": [0.1, 3]}) == json.dumps({"x": [0.1, 3]})


def test_numeric_overflowed_residual_is_strict_json(capsys):
    # C:20:20's residual evaluation overflows to NaN: the report writes it
    # as the string "nan", and the command exits 1
    with pytest.raises(SystemExit) as err:
        main(["numeric", "--family", "C", "--rank", "20", "--level", "20", "--seeds", "2"])
    assert err.value.code == 1
    rep = strict_loads(capsys.readouterr().out)
    assert (rep["max_residual"], rep["ok"]) == ("nan", False)


@pytest.mark.parametrize(
    "argv,message",
    [
        (["numeric", "--family", "F4", "--rank", "3"], "type F4 has rank 4"),
        (["tropical", "--family", "C", "--rank", "1"], "type C needs rank >= 2"),
        (["numeric", "--family", "C", "--level", "1"], "level must be >= 2"),
        (["numeric", "--family", "C", "--seeds", "0"], "--seeds must be at least 1"),
        (["mutclass", "--left", "X:2:2", "--right", "C:3:2"], "unknown family 'X'"),
        (["mutclass", "--left", "C:3", "--right", "C:3:2"], "'C:3' is not a case"),
        (["suite", "--config", "no-such-config.json"], "No such file"),
        (["schedule", "--family", "C", "--from", "abc"], "'abc' is not a time"),
        (["schedule", "--family", "C", "--from", "1/3"], "multiples of 1/2 for type C"),
        (["schedule", "--family", "G2", "--to", "1/0"], "'1/0' is not a time"),
        (["orbits", "--sigma", "C", "--rank", "2"], "--sigma C needs --rank"),
        (["numeric", "--family", "C", "--tol", "1e-8"], "unrecognized arguments: --tol 1e-8"),
        (["mutclass", "--left", "C:2:2", "--right", "C:2:2", "--nodes", "x"], "must be a positive int, not 'x'"),
        (["mutclass", "--left", "C:2:2", "--right", "C:2:2", "--nodes", "1.5"], "must be a positive int, not '1.5'"),
        (["mutclass", "--left", "C:2:2", "--right", "C:2:2", "--nodes", "0"], "must be a positive int, not '0'"),
        (["mutclass", "--left", "C:2:2", "--right", "C:2:2", "--nodes", "-1"], "must be a positive int, not '-1'"),
        (["orbits", "--sigma", "F4", "--rank", "99"], "--sigma F4 takes no --rank"),
        (["build", "--family", "D", "--rank", "2", "--level", "3"], "type D needs rank >= 3"),
        (["build", "--family", "A", "--rank", "0", "--level", "3"], "type A needs rank >= 1"),
        (["build", "--family", "E6", "--rank", "5"], "type E6 has rank 6"),
        (["schedule", "--family", "C", "--rank", "2", "--level", "2", "--from", "1", "--to", "0"],
         "--from 1 is after --to 0"),
        (["mutclass", "--left", "G2:2:2", "--right", "C:3:2", "--depth", "6"], "unrecognized arguments: --depth 6"),
    ],
)
def test_case_commands_reject_bad_input(argv, message, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,message",
    [
        ('{"seeds": []}', "seeds must list at least one seed"),
        ("{bad", "Expecting property name"),
        ("5", "must be a mapping"),
        ('{"seeds": 5}', "seeds must be a list of non-negative ints"),
        ('{"cases": 5}', "cases must be a list of cases"),
        ('{"pairs": [5]}', "pairs must be a list of pairs of cases"),
        ('{"extra_dilog_levels": 5}', "extra_dilog_levels must be a list"),
        ('{"residual_tol": 1e-9}', "unknown config keys: 'residual_tol'"),
        ('{"depth_cap": 12}', "unknown config keys: 'depth_cap'"),
        ('{"pairs": [[["D", 2, 3], ["A", 2, 3]]]}', "case D:2:3: type D needs rank >= 3"),
        ('{"pairs": [[["C", 2, 2]]]}', 'pair [["C", 2, 2]] must be two cases, not 1'),
        ('{"pairs": [[["C", 2, 2], ["C", 2, 2], ["C", 2, 2]]]}', "must be two cases, not 3"),
        ('{"cases": [["C", 2, 2], ["C", 2, 2]]}', 'cases lists ["C", 2, 2] twice'),
        ('{"pairs": [[["C", 3, 2], ["D", 4, 3]], [["C", 3, 2], ["D", 4, 3]]]}',
         'pairs lists [["C", 3, 2], ["D", 4, 3]] twice'),
    ],
)
def test_suite_rejects_bad_config_file(text, message, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    with pytest.raises(SystemExit) as err:
        main(["suite", "--config", str(cfg)])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert message in stderr and "Traceback" not in stderr


def test_dilog_report(capsys):
    main(["dilog", "--family", "F4", "--rank", "4", "--level", "2"])
    rep = json.loads(capsys.readouterr().out)
    assert abs(rep["constant"]["lhs"] - 60 / 11) < 1e-8


@pytest.mark.parametrize("cmd", ["tropical", "numeric", "dilog", "schedule"])
def test_case_commands_refuse_families_without_schedule(cmd, capsys):
    # A, D and E6 have square-product quivers only: no Cartan data, no schedule
    with pytest.raises(SystemExit) as err:
        main([cmd, "--family", "A"])
    assert err.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_orbits_refuses_missing_rank():
    with pytest.raises(SystemExit):
        main(["orbits", "--sigma", "C"])


def test_orbits_output(capsys):
    # --rank 10 is the D10 diagram of the C9 core: every almost positive
    # root is printed once, and each line follows sigma from its seed and
    # closes on it
    main(["orbits", "--sigma", "C", "--rank", "10"])
    cycles = [line.split(" -> ") for line in capsys.readouterr().out.splitlines()]
    derived, _ = cached_dynamics("C", 9)
    sig = oracle.ScalarSigmaMap(derived.rs, derived.word)
    roots = {format_d_symbol(9, vec): vec for vec in sig.rs.positive_roots}
    roots.update((f"-a{i}", neg_simple(sig.rs, i)) for i in range(1, 11))
    printed = [symbol for cycle in cycles for symbol in cycle[:-1]]
    assert len(roots) == 100 and sorted(printed) == sorted(roots)
    for cycle in cycles:
        assert cycle[-1] == cycle[0]
        assert [sig(roots[symbol]) for symbol in cycle[:-1]] == [roots[symbol] for symbol in cycle[1:]]


def test_mutclass_found(capsys):
    main(["mutclass", "--left", "G2:2:2", "--right", "C:3:2"])
    rep = json.loads(capsys.readouterr().out)
    assert rep["found"] is True


def test_mutclass_past_key_bound_is_not_found(capsys):
    # C:6:6 has 65 vertices, past the search's size bound: the search
    # reports the bound as its error and exits 2, without a traceback
    with pytest.raises(SystemExit) as err:
        main(["mutclass", "--left", "C:6:6", "--right", "C:6:6"])
    assert err.value.code == 2
    rep = json.loads(capsys.readouterr().out)
    assert rep == {
        "found": False, "depth_cap": 12, "node_cap": 10**6,
        "error": f"the mutation search supports at most {mutclass.SIZE_CAP} vertices",
    }


def test_pair_of_different_sizes_names_the_reason(capsys):
    # no mutation joins quivers of 5 and 8 vertices: the error says so, and
    # the caps, which played no part, are not the only explanation given
    message = "the quivers have 5 and 8 vertices; mutation keeps the vertex count"
    with pytest.raises(SystemExit) as err:
        main(["mutclass", "--left", "C:2:2", "--right", "C:3:2"])
    assert err.value.code == 2
    assert json.loads(capsys.readouterr().out)["error"] == message
    (row,) = run_suite({"cases": [], "pairs": [[["C", 2, 2], ["C", 3, 2]]], "extra_dilog_levels": []})
    assert (row.status, row.metrics["error"]) == ("inconclusive", message)


def test_suite_empty_config(capsys):
    rows = run_suite({"cases": [], "pairs": [], "extra_dilog_levels": []})
    assert rows == [] and suite_passed(rows)


def test_suite_single_case(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "cases": [["C", 2, 2]],
        "pairs": [],
        "seeds": [0],
        "extra_dilog_levels": [],
    }))
    out = tmp_path / "rows.jsonl"
    main(["suite", "--config", str(cfg), "--out", str(out)])
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert all(r["status"] == "pass" for r in rows)
    checks = {r["check"] for r in rows}
    assert "tropical-counts" in checks and "dilog-functional" in checks
    assert all(r["statement"] for r in rows)


def test_report_row_shape():
    row = VerificationReport("C:2:2", "demo", "pass", "statement-id", {"k": 1})
    data = json.loads(row.to_json())
    assert data["case"] == "C:2:2" and data["metrics"] == {"k": 1}


def test_suite_rows_deterministic():
    cfg = {"cases": [["G2", 2, 2]], "pairs": [], "seeds": [0, 1], "extra_dilog_levels": []}
    first = [r.to_json() for r in run_suite(cfg)]
    second = [r.to_json() for r in run_suite(cfg)]
    assert first == second


def test_suite_rejects_unknown_config_key():
    with pytest.raises(ValueError, match="'casez'"):
        run_suite({"casez": []})


def test_suite_rejects_empty_seeds():
    with pytest.raises(ValueError, match="seeds"):
        run_suite({"cases": [["C", 2, 2]], "pairs": [], "seeds": []})


BAD_VALUES = [
    ("seeds", 5), ("seeds", "01"), ("seeds", [0, "1"]), ("seeds", [-1]), ("seeds", [True]),
    ("cases", 5), ("cases", "C:2:2"), ("cases", [5]),
    ("pairs", 5), ("pairs", [5]), ("pairs", [[["C", 3, 2], 5]]),
    ("extra_dilog_levels", 5), ("extra_dilog_levels", "5"),
]

# settings the config no longer has, each at its last default: the
# tolerances and caps are the suite's and mutclass's constants
REMOVED_KEYS = [
    ("residual_tol", 1e-9), ("periodicity_tol", 1e-8), ("dilog_tol", 1e-8), ("functional_tol", 1e-6),
    ("depth_cap", 12), ("node_cap", 10**6),
]


@pytest.mark.parametrize(
    "config,bad",
    [
        ({"cases": [["C", 2, 2], ["X", 2, 2]]}, "X:2:2"),
        ({"cases": [["C", 2, 2], ["A", 3, 2]]}, "A:3:2"),  # no schedule
        ({"cases": [["C", 2, 2]], "extra_dilog_levels": [1]}, "C:2:1"),
        ({"cases": [], "pairs": [[["C", 3, 2], ["D", 4, 1]]]}, "D:4:1"),
    ]
    + [({"cases": [["C", 2, 2]], key: value}, f"^{key} must be") for key, value in BAD_VALUES]
    + [({"cases": [["C", 2, 2]], key: value}, f"^unknown config keys: '{key}'$") for key, value in REMOVED_KEYS]
    + [  # numpy ints are written as ints in the message; a seed listed twice
        ({"cases": [("C", np.int64(2), 2)] * 2}, r'^cases lists \["C", 2, 2\] twice$'),
        ({"cases": [], "pairs": [[("C", np.int64(3), 2)]]}, r'^pair \[\["C", 3, 2\]\] must be two cases, not 1$'),
        ({"cases": [], "pairs": [[("C", 3, 2), ("D", np.int64(4), 3)]] * 2}, r"^pairs lists .* twice$"),
        ({"cases": [["C", 2, 2]], "seeds": [0, 0]}, "^seeds lists 0 twice$"),
        ({"cases": [["C", 2, 2]], "seeds": [np.int64(1), 2, np.int64(1)]}, "^seeds lists 1 twice$"),
    ]
    + [
        ({"cases": [], "pairs": [[["C", 2, 2]]]}, "not 1"),
        ({"cases": [], "pairs": [[["C", 2, 2]] * 3]}, "not 3"),
        ({"cases": [["C", 2, 2], ["G2", 2, 2], ["C", 2, 2]]}, "twice"),
        ({"cases": [], "pairs": [[["C", 3, 2], ["D", 4, 3]]] * 2}, "twice"),
        ({1: [], "casez": []}, "^unknown config keys: 1, 'casez'$"),  # keys of mixed types
    ],
)
def test_suite_validates_cases_before_work(config, bad, monkeypatch):
    def no_work(*args):
        raise AssertionError("a case or pair ran before validation")

    monkeypatch.setattr(suite, "_case_rows", no_work)
    monkeypatch.setattr(suite, "_pair_rows", no_work)
    monkeypatch.setattr(suite, "_extra_dilog_rows", no_work)
    with pytest.raises(ValueError, match=bad):
        run_suite(config)


NON_INTEGER_CONFIGS = [
    ({"cases": [["C", 2, 3.0]]}, "C:2:3.0: the level must be an integer"),
    ({"cases": [["C", 2, 2]], "extra_dilog_levels": [2.5]}, "C:2:2.5: the level must be an integer"),
    ({"cases": [], "pairs": [[["C", 3, 2.0], ["D", 4, 3]]]}, "C:3:2.0: the level must be an integer"),
]


@pytest.mark.parametrize("config,message", NON_INTEGER_CONFIGS)
def test_suite_rejects_non_integer_rank_or_level(config, message, tmp_path, capsys):
    # a float rank or level would reach the builders' range() calls; it is a
    # config error, and the command line reports it without a traceback
    with pytest.raises(ValueError, match=message):
        suite.resolve_config(config)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    with pytest.raises(SystemExit) as err:
        main(["suite", "--config", str(cfg)])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert message in stderr and "Traceback" not in stderr


def test_extra_level_schedule_error_is_a_fail_row(monkeypatch):
    # an extra-level constant row verifies its own schedule; a globally
    # opposite quiver passes the quiver cycle but not the T-relation shape,
    # and the row fails with the error instead of raising
    def opposite_at_level_3(spec):
        m = builders.build(spec)
        return type(m)(m.spec, m.quiver.opposite(), dict(m.index)) if spec.level == 3 else m

    monkeypatch.setattr(suite, "build", opposite_at_level_3)
    rows = run_suite({"cases": [["C", 2, 2]], "pairs": [], "seeds": [0], "extra_dilog_levels": [3]})
    (row,) = [r for r in rows if r.case == "C:2:3"]
    assert (row.check, row.status) == ("dilog-constant", "fail")
    assert list(row.metrics) == ["error"] and "arrows out of vertex" in row.metrics["error"]
    assert all(r.status == "pass" for r in rows if r.case == "C:2:2")


def test_tropical_exponent_past_exact_range_fails_rows(monkeypatch, capsys):
    # the tropical record is int8, and each step checks its float64 result
    # against that range before the cast back; a run whose exponents leave
    # it fails every row read off it, with the error, and the tropical
    # command says why instead of a traceback
    real = tropical.run_schedule

    def planted(schedule, s_lo, s_hi, L, oplus1):
        # every entry 100: the first step adds two rows of them
        return real(schedule, s_lo, s_hi, np.full_like(L, 100), oplus1)

    monkeypatch.setattr(tropical, "run_schedule", planted)
    rows = run_suite({"cases": [["C", 2, 2]], "pairs": [], "seeds": [0], "extra_dilog_levels": []})
    failed = {r.check: r.metrics for r in rows if r.status != "pass"}
    assert sorted(failed) == ["tropical-counts", "tropical-periodicity", "tropical-shadow", "tropical-signs", "tvectors"]
    message = "outside the int8 range [-128, 127]"
    assert all(list(m) == ["error"] and message in m["error"] for m in failed.values())
    with pytest.raises(SystemExit) as err:
        main(["tropical", "--family", "C", "--rank", "2", "--level", "2"])
    assert err.value.code == 1
    out, stderr = capsys.readouterr()
    assert message in stderr and "Traceback" not in stderr and "points" not in out


def plant_slot0_from_slot2(monkeypatch):
    """Make every Schedule, once it has checked its operators, apply slot 2's
    matrix at slot 0's set, which breaks the dynamics."""
    real = schedule.Schedule.__init__

    def planted(self, model):
        real(self, model)
        self.operators[0] = schedule.slot_operator(self.matrices[2], self.sets[0])

    monkeypatch.setattr(schedule.Schedule, "__init__", planted)


def test_periodicity_row_names_first_mismatch(monkeypatch):
    # slot 0's operator built from slot 2's matrix breaks the dynamics; the
    # failing periodicity row names the first mismatch of the seed
    # comparison that TropicalRun.periodicity_mismatches lists, and a
    # passing row has no such key
    cfg = {"cases": [["C", 2, 2]], "pairs": [], "seeds": [0], "extra_dilog_levels": []}
    clean = next(r for r in run_suite(cfg) if r.check == "tropical-periodicity")
    assert clean.status == "pass" and clean.metrics == {"mismatches": 0}
    plant_slot0_from_slot2(monkeypatch)
    row = next(r for r in run_suite(cfg) if r.check == "tropical-periodicity")
    per = TropicalRun(schedule.Schedule(builders.build(builders.FamilySpec("C", 2, 2)))).periodicity_mismatches()
    assert row.status == "fail" and row.metrics["mismatches"] == len(per) == 5
    assert json.loads(row.to_json())["metrics"]["first_mismatch"] == ["half", [1, 1], "0"]
    assert per[0] == ("half", (1, 1), 0) and {kind for kind, *_ in per} == {"half"}


def test_failed_seed_comparison_fails_dependent_rows(monkeypatch, capsys):
    # with the seed comparison failed, the rows read through the relabelled
    # half record fail with the error naming that comparison, and never
    # pass; the periodicity row reports the comparison itself, and the
    # tropical command exits 1 with the error instead of a traceback
    plant_slot0_from_slot2(monkeypatch)
    rows = run_suite({"cases": [["C", 2, 2]], "pairs": [], "seeds": [0], "extra_dilog_levels": []})
    tropical_rows = {r.check: r for r in rows if r.check.startswith("tropical-") or r.check == "tvectors"}
    message = "the seed comparison E(5)[v] = E(0)[omega(v)] fails at 5 of 5 vertices, first at (1, 1)"
    for check in ("tropical-counts", "tropical-signs", "tvectors", "tropical-shadow"):
        row = tropical_rows.pop(check)
        assert row.status == "fail" and list(row.metrics) == ["error"] and message in row.metrics["error"], check
    assert list(tropical_rows) == ["tropical-periodicity"] and tropical_rows["tropical-periodicity"].status == "fail"
    with pytest.raises(SystemExit) as err:
        main(["tropical", "--family", "C", "--rank", "2", "--level", "2"])
    assert err.value.code == 1
    out, stderr = capsys.readouterr()
    assert message in stderr and "Traceback" not in stderr and "points" not in out


NUMERIC_CHECKS = ["dilog-functional", "numeric-periodicity", "numeric-residuals"]


def test_numeric_overflow_fails_rows(monkeypatch, capsys):
    # a numeric run whose values leave the float range fails its rows, with
    # the error, and leaves the other rows of the case as they were; the
    # numeric command says why instead of a traceback
    real = numeric.run_schedule

    def planted(*args):
        Ls, xs = real(*args)
        if xs is not None:  # the cluster record; the shadow run has none
            xs[5, 0, 0] = 800.0
        return Ls, xs

    monkeypatch.setattr(numeric, "run_schedule", planted)
    rows = run_suite({"cases": [["C", 2, 2]], "pairs": [], "seeds": [0], "extra_dilog_levels": []})
    failed = {r.check: r.metrics for r in rows if r.status != "pass"}
    assert sorted(failed) == NUMERIC_CHECKS and len(rows) == 10
    assert all(m == {"error": "overflow encountered in exp"} for m in failed.values())
    with pytest.raises(SystemExit) as err:
        main(["numeric", "--family", "C", "--rank", "2", "--level", "2"])
    assert err.value.code == 1
    out, stderr = capsys.readouterr()
    assert "overflow encountered in exp" in stderr and "Traceback" not in stderr and out == ""


def plant_nan_coefficient(monkeypatch):
    """Make every NumericRun carry a NaN in one positive-real Y value that
    the functional identity sums."""
    real = NumericRun.__init__

    def planted(self, *args):
        real(self, *args)
        row = self.schedule.plan.coefficients()[3]
        self.y.reshape(-1, self.y.shape[-1])[row, self.real.start] = np.nan

    monkeypatch.setattr(NumericRun, "__init__", planted)


NAN_MESSAGE = "labelled coefficients off the positive reals: rogers_L is defined on [0, 1], not at nan"


def test_nan_coefficient_fails_functional_row(monkeypatch):
    # a NaN in one positive-real Y value that the functional identity sums
    # is the worst numeric error, and the functional row fails with the
    # error rather than raising out of rogers_L
    plant_nan_coefficient(monkeypatch)
    rows = run_suite({"cases": [["C", 2, 2]], "pairs": [], "seeds": [0], "extra_dilog_levels": []})
    failed = {r.check: r.metrics for r in rows if r.status != "pass"}
    assert sorted(failed) == NUMERIC_CHECKS and len(rows) == 10
    assert np.isnan(failed["numeric-residuals"]["max_residual"])
    assert np.isnan(failed["numeric-periodicity"]["max_error"])
    assert failed["dilog-functional"] == {"error": NAN_MESSAGE}
    # the NaN metrics are written as strings, so each row is strict JSON
    written = {r.check: strict_loads(r.to_json())["metrics"] for r in rows}
    assert written["numeric-residuals"]["max_residual"] == written["numeric-periodicity"]["max_error"] == "nan"


def test_nan_coefficient_ends_dilog_functional_with_error(monkeypatch, capsys):
    # the functional identity cannot be evaluated on a NaN coefficient: the
    # command exits 1 with one error line, and prints no report
    plant_nan_coefficient(monkeypatch)
    with pytest.raises(SystemExit) as err:
        main(["dilog", "--family", "C", "--rank", "2", "--level", "2", "--functional"])
    assert err.value.code == 1
    out, stderr = capsys.readouterr()
    assert out == "" and stderr == f"ysyslab dilog: error: {NAN_MESSAGE}\n"


def test_suite_accepts_numpy_and_tuple_values():
    cfg = suite.resolve_config({
        "cases": (("C", np.int64(2), 2),),
        "pairs": ((("C", 3, 2), ["D", np.int64(4), 3]),),
        "seeds": (np.int64(3), 1),
        "extra_dilog_levels": (np.int64(5),),
    })
    assert cfg["cases"] == [("C", 2, 2)] and cfg["pairs"] == [(("C", 3, 2), ("D", 4, 3))]
    assert list(cfg["seeds"]) == [3, 1] and list(cfg["extra_dilog_levels"]) == [5]


def test_suite_builds_each_run_once(monkeypatch):
    # one case builds its quiver once and verifies its schedule once; every
    # run of the case is driven by that one verified Schedule
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for cls in (NumericRun, TropicalRun):
        monkeypatch.setattr(cls, "__init__", counted(cls.__name__, cls.__init__))
    monkeypatch.setattr(schedule, "slot_matrices", counted("slot_matrices", schedule.slot_matrices))
    build = counted("build", builders.build)
    for module in (builders, suite):
        monkeypatch.setattr(module, "build", build)
    run_schedule = counted("run_schedule", schedule.run_schedule)
    for module in (schedule, numeric, tropical):
        monkeypatch.setattr(module, "run_schedule", run_schedule)
    # one numeric run carries all the seeds in both semifields; with the
    # tropical run and the tropical shadow, the case makes three sweeps
    run_suite({"cases": [["C", 2, 2]], "pairs": [], "seeds": [0, 1, 2], "extra_dilog_levels": []})
    assert counts == {"NumericRun": 1, "TropicalRun": 1, "run_schedule": 3, "slot_matrices": 1, "build": 1}


def test_suite_key_overflow_is_inconclusive(monkeypatch, tmp_path, capsys):
    # the search refuses an entry past ENTRY_CAP, here every arrow of the
    # roots; the suite reports the pair inconclusive with the error, and the
    # CLI ends without a traceback
    monkeypatch.setattr(mutclass, "ENTRY_CAP", 0)
    message = "the mutation search supports entries of at most 0 in absolute value"
    config = {"cases": [], "pairs": [[["G2", 2, 2], ["C", 3, 2]]], "extra_dilog_levels": []}
    (row,) = run_suite(config)
    assert (row.case, row.check, row.status) == ("G2:2:2~C:3:2", "mutation-equivalence", "inconclusive")
    assert row.metrics == {"depth_cap": 12, "node_cap": 10**6, "error": message}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    with pytest.raises(SystemExit) as err:
        main(["suite", "--config", str(cfg)])
    assert err.value.code == 1
    assert "inconclusive" in capsys.readouterr().out


def test_off_grid_relation_fails_schedule_row(monkeypatch, tmp_path, capsys):
    # a relation table that reads off the grid fails the case's schedule row
    # with the error, and the CLI ends without a traceback
    good = schedule.g_factors
    monkeypatch.setattr(schedule, "g_factors", lambda sched: {row: [(*row, 0)] for row in good(sched)})
    config = {"cases": [["C", 2, 2]], "pairs": [], "extra_dilog_levels": []}
    (row,) = run_suite(config)
    assert (row.case, row.check, row.status) == ("C:2:2", "schedule", "fail")
    assert row.metrics["error"].startswith("(1, 1, 0/2) is off the grid")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    with pytest.raises(SystemExit) as err:
        main(["suite", "--config", str(cfg)])
    assert err.value.code == 1
    out, errout = capsys.readouterr()
    assert "fail" in out and "Traceback" not in out + errout


CASE_COMMANDS = {
    "schedule": ["--family", "C", "--rank", "2", "--level", "2"],
    "tropical": ["--family", "C", "--rank", "2", "--level", "2"],
    "numeric": ["--family", "C", "--rank", "2", "--level", "2"],
    "dilog": ["--family", "C", "--rank", "2", "--level", "2"],
    "orbits": ["--sigma", "C", "--rank", "3"],  # the level-2 core of C_2
}


@pytest.mark.parametrize("cmd", sorted(CASE_COMMANDS))
def test_off_grid_relation_ends_case_command_with_error(cmd, monkeypatch, capsys):
    # the same planted table makes every command that verifies a schedule
    # exit 1 with one error line naming the command, not a traceback
    good = schedule.g_factors
    monkeypatch.setattr(schedule, "g_factors", lambda sched: {row: [(*row, 0)] for row in good(sched)})
    with pytest.raises(SystemExit) as err:
        main([cmd, *CASE_COMMANDS[cmd]])
    assert err.value.code == 1
    out, stderr = capsys.readouterr()
    assert stderr.startswith(f"ysyslab {cmd}: error: (1, 1, 0/2) is off the grid")
    assert stderr.count("\n") == 1 and "Traceback" not in out + stderr


OUT_COMMANDS = {
    "build": ["--family", "C", "--rank", "2", "--level", "2", "--out"],
    "schedule": ["--family", "C", "--rank", "2", "--level", "2", "--out"],
    "tropical": ["--family", "C", "--rank", "2", "--level", "2", "--report"],
    "numeric": ["--family", "C", "--rank", "2", "--level", "2", "--seeds", "1", "--out"],
    "dilog": ["--family", "C", "--rank", "2", "--level", "2", "--out"],
    "suite": ["--out"],
}


@pytest.mark.parametrize("cmd", sorted(OUT_COMMANDS))
def test_unwritable_output_path_ends_with_error(cmd, tmp_path, capsys):
    # an output path in a missing directory ends the command with one error
    # line naming it and exit 1, not a traceback
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cases": [], "pairs": [], "extra_dilog_levels": []}))
    target = tmp_path / "missing" / "out.json"
    argv = [cmd, *(["--config", str(cfg)] if cmd == "suite" else []), *OUT_COMMANDS[cmd], str(target)]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 1
    out, stderr = capsys.readouterr()
    assert stderr.startswith(f"ysyslab {cmd}: error: [Errno 2] No such file or directory: ")
    assert str(target) in stderr and stderr.count("\n") == 1 and "Traceback" not in out + stderr
    assert not target.parent.exists()


def test_suite_unwritable_out_fails_before_the_run(monkeypatch, capsys):
    # --out is opened first, so an unwritable path ends the command before
    # any case or search runs
    def no_run(config):
        raise AssertionError("run_suite ran before the report file was opened")

    monkeypatch.setattr(cli, "run_suite", no_run)
    target = "/nonexistent/r.jsonl"
    with pytest.raises(SystemExit) as err:
        main(["suite", "--out", target])
    assert err.value.code == 1
    out, stderr = capsys.readouterr()
    assert stderr == f"ysyslab suite: error: [Errno 2] No such file or directory: {target!r}\n"
    assert out == ""


@pytest.mark.parametrize(
    "config,rows",
    [
        (None, 141),
        ({"cases": [["C", 2, 5]], "pairs": []}, 9),
        ({"cases": [["C", 2, 5], ["C", 2, 2]], "pairs": [], "extra_dilog_levels": [5, 2, 5, 3]}, 20),
    ],
    ids=["default", "case-at-extra-level", "extra-levels-repeated-and-configured"],
)
def test_report_keys_are_unique(config, rows):
    # an extra dilog level that a configured case already runs, or that is
    # listed twice, adds no second dilog-constant row
    report = run_suite(config)
    keys = Counter((r.case, r.check) for r in report)
    assert len(report) == rows and max(keys.values()) == 1


def test_tracer_targets_resolve():
    # the benchmark's tracer wraps these names; a rename must fail here
    tree = ast.parse(TRACER.read_text())
    targets = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TARGETS"
    )
    assert targets
    for module, attr, *_ in targets:
        obj = importlib.import_module(f"ysyslab.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (module, attr)


def test_cli_import_leaves_scipy_out():
    # scipy is a test dependency only; every command line call would pay its
    # import at start-up, so no module of ysyslab may load it
    path = [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    code = "import sys, ysyslab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_suite_exit_status_on_failure(monkeypatch, tmp_path):
    plant_nan_coefficient(monkeypatch)  # fails the case's numeric rows
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cases": [["C", 2, 2]], "pairs": [], "seeds": [0], "extra_dilog_levels": []}))
    with pytest.raises(SystemExit) as err:
        main(["suite", "--config", str(cfg)])
    assert err.value.code == 1
