import dataclasses
import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import pytest

import fuzzyconf as fc
from fuzzyconf import cli
from fuzzyconf.cli import main, parse_ratio, parse_utility
from fuzzyconf.confidence import MAX_GRID_POINTS, PlugInGrid, load_confidence_set, sublevel_set


def run(args):
    return main([str(a) for a in args])


def test_parse_utility_forms():
    assert parse_utility("log") == fc.Log()
    assert parse_utility("power:0.5") == fc.Power(h=0.5)
    assert parse_utility("np:0.05") == fc.NeymanPearson(alpha=0.05)
    assert parse_utility("bounded-log:0.1") == fc.BoundedLog(alpha=0.1)
    assert parse_utility("clipped-log:0.2") == fc.ClippedLog(b=0.2)
    assert parse_utility("dampened:0.1:log") == fc.Dampened(b=0.1, inner=fc.Log())
    assert parse_utility("dampened:0.1:dampened:0.2:np:0.3") == \
        fc.Dampened(b=0.1, inner=fc.Dampened(b=0.2, inner=fc.NeymanPearson(alpha=0.3)))
    for bad in ("boom", "log:1", "dampened:0.1", "power:"):
        with pytest.raises(ValueError):
            parse_utility(bad)


def test_parse_ratio_forms():
    assert parse_ratio("gaussian-mean-shift:0:1").name.startswith("gaussian-mean-shift")
    assert parse_ratio("gaussian-scale:0:1:3.5").name.startswith("gaussian-scale")
    assert parse_ratio("ar1:0:0.5:2.0").name.startswith("ar1")
    assert parse_ratio("gaussian-composite:1:3.5").name.startswith("gaussian-composite")
    for bad in ("nope:1", "gaussian-scale:0:1", "ar1:0"):
        with pytest.raises(ValueError):
            parse_ratio(bad)


def test_fuzzy_gaussian_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["fuzzy", "--family", "gaussian-log", "--mu", 0, "--sigma", 1, "--tau", 3.5,
            "--grid", "-6:6:0.01"]
    assert run(args + ["--out", out1, "--json", j1]) == 0
    assert run(args + ["--out", out2, "--json", j2]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert j1.read_bytes() == j2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "z,evidence"
    assert len(lines) == 1202
    z, e = lines[601].split(",")
    assert float(z) == 0.0
    assert float(e) == pytest.approx(1 / 3.5, rel=1e-12)


def test_fuzzy_conformal_matches_library(tmp_path):
    calib = tmp_path / "calib.csv"
    calib.write_text("value\n1.2\n0.7\n2.1\n")
    out = tmp_path / "c.csv"
    assert run(["fuzzy", "--family", "conformal", "--calib", calib, "--utility", "log",
                "--ratio", "gaussian-scale:0:1:3.5", "--grid", "-2:4:1", "--out", out]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    grid = PlugInGrid.from_spec("-2:4:1")
    fset = fc.fuzzy_set((1.2, 0.7, 2.1), grid, fc.gaussian_scale_ratio(0, 1, 3.5), fc.Log())
    for (z, e), gz, ge in zip(rows, grid.points, fset.evidence):
        assert float(z) == gz and float(e) == pytest.approx(ge, rel=1e-15)


def test_interval_json(tmp_path, capsys):
    assert run(["interval", "--family", "simple", "--mu", 0, "--sigma", 1, "--alpha", 0.05]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["hi"] == pytest.approx(1.959963984540054, abs=1e-10)
    out = tmp_path / "iv.json"
    assert run(["interval", "--family", "composite", "--zbar", 1.44, "--sigma", 1,
                "--n", 3, "--alpha", 0.05, "--out", out]) == 0
    doc2 = json.loads(out.read_text())
    assert doc2["hi"] == pytest.approx(1.44 + 1.959963984540054 * math.sqrt(4 / 3), abs=1e-10)
    assert run(["interval", "--family", "ar1", "--mu", 0, "--rho", 0.5, "--z-last", 2,
                "--alpha", 0.05, "--out", tmp_path / "iv3.json"]) == 0
    doc3 = json.loads((tmp_path / "iv3.json").read_text())
    assert (doc3["lo"] + doc3["hi"]) / 2 == pytest.approx(1.0, abs=1e-12)


def _write_problem(path):
    doc = {
        "decisions": ["hold", "act"],
        "outcomes": [-2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0],
        "loss": [[1, 1, 1, 1, 1, 1, 1], [3, 2, 1, 0.5, 1, 2, 3]],
    }
    path.write_text(json.dumps(doc))


def test_decide_round_trip_deterministic(tmp_path):
    calib = tmp_path / "calib.csv"
    calib.write_text("1.2\n0.7\n2.1\n")
    fuzzy_json = tmp_path / "fuzzy.json"
    assert run(["fuzzy", "--family", "conformal", "--calib", calib,
                "--utility", "clipped-log:0.1", "--ratio", "gaussian-scale:0:1:3.5",
                "--grid", "-2:4:1", "--out", tmp_path / "f.csv", "--json", fuzzy_json]) == 0
    prob = tmp_path / "prob.json"
    _write_problem(prob)
    cert1, cert2 = tmp_path / "c1.json", tmp_path / "c2.json"
    assert run(["decide", "--problem", prob, "--set", fuzzy_json, "--mode", "weighted",
                "--out", cert1]) == 0
    assert run(["decide", "--problem", prob, "--set", fuzzy_json, "--mode", "weighted",
                "--out", cert2]) == 0
    assert cert1.read_bytes() == cert2.read_bytes()

    # the certificate agrees with calling the library directly
    fset = fc.FuzzyConfidenceSet.from_json_doc(json.loads(fuzzy_json.read_text()))
    problem = fc.DecisionProblem.from_json_doc(json.loads(prob.read_text()))
    wanted = fc.weighted_decision(problem, fset)
    got = json.loads(cert1.read_text())
    assert got["decision"] == wanted.decision
    assert got["risk_bound"] == pytest.approx(wanted.risk_bound, rel=1e-15)


def test_decide_as_if_and_post_hoc(tmp_path):
    calib = tmp_path / "calib.csv"
    calib.write_text("1.2\n0.7\n2.1\n")
    fuzzy_json = tmp_path / "fuzzy.json"
    run(["fuzzy", "--family", "conformal", "--calib", calib, "--utility", "log",
         "--ratio", "gaussian-scale:0:1:3.5", "--grid", "-2:4:1",
         "--out", tmp_path / "f.csv", "--json", fuzzy_json])
    prob = tmp_path / "prob.json"
    _write_problem(prob)
    out = tmp_path / "asif.json"
    assert run(["decide", "--problem", prob, "--set", fuzzy_json, "--mode", "as-if",
                "--alpha", 0.3, "--out", out]) == 0
    assert json.loads(out.read_text())["mode"] == "as-if"
    out2 = tmp_path / "ladder.json"
    assert run(["decide", "--problem", prob, "--set", fuzzy_json, "--mode", "post-hoc",
                "--levels", "0.05,0.2,0.5", "--out", out2]) == 0
    ladder = json.loads(out2.read_text())
    assert [entry["alpha"] for entry in ladder["levels"]] == [0.05, 0.2, 0.5]


def test_validate_command(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(["validate", "--check", "evalue", "--model", "iid-gaussian",
                "--model-args", "mu=0,sigma=1", "--utility", "log", "--n", 5,
                "--trials", 5000, "--seed", 3, "--out", out])
    assert code == 0
    assert "PASS" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["passed"] is True and doc["trials"] == 5000
    code2 = run(["validate", "--check", "coverage", "--model", "iid-uniform",
                 "--utility", "np:0.2", "--alpha", 0.2, "--n", 5,
                 "--trials", 2000, "--seed", 4])
    assert code2 == 0


def test_failed_check_exits_1(monkeypatch, capsys):
    from fuzzyconf import harness

    failing = harness.McReport(check="evalue-validity", estimate=1.5, se=0.01, bound=1.0,
                               passed=False, trials=1000, seed=3, model="iid-gaussian")
    monkeypatch.setattr(harness, "mc_validate_evalue", lambda *args, **kwargs: failing)
    assert run(["validate", "--model", "iid-gaussian", "--n", 5, "--trials", 1000]) == \
        cli.EXIT_CHECK_FAILED == 1
    assert capsys.readouterr().out.startswith("[FAIL] evalue-validity")


@pytest.mark.parametrize("args, message", [
    (["--model-args", "foo=1"], "model iid-gaussian takes no parameter foo"),
    (["--model-args", "sigma=nan"], "model parameter sigma must be finite, got nan"),
    (["--model-args", "sigma=-1"], "model parameter sigma is a scale and must be nonnegative"),
    (["--model", "iid-uniform", "--model-args", "lo=1,hi=0"],
     "model parameters need lo <= hi, got lo=1.0 and hi=0.0"),
    (["--model", "iid-categorical"],
     "model iid-categorical needs the parameters support and probs"),
])
def test_bad_model_args_exit_2(capsys, args, message):
    argv = ["validate", "--model", "iid-gaussian", "--n", 5, "--trials", 1000]
    assert run(argv + args) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {message}"), err


@pytest.mark.parametrize("ratio, message", [
    ("gaussian-mean-shift:0:1:inf", "sigma=inf is out of range"),
    ("gaussian-mean-shift:0:1e200", "mu=0.0 and delta=1e+200 are out of range"),
    ("gaussian-mean-shift:inf:1", "mu=inf and delta=1.0 are out of range"),
    ("gaussian-mean-shift:0:1:1e-200", "sigma=1e-200 is out of range"),
])
def test_mean_shift_out_of_float_range_exits_2(tmp_path, capsys, ratio, message):
    calib = tmp_path / "calib.csv"
    calib.write_text("0.12\n-0.4\n0.9\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["fuzzy", "--family", "conformal", "--calib", calib, "--utility", "log",
                    "--ratio", ratio, "--grid", "-3:3:0.25", "--out", tmp_path / "x.csv"]) == 2
    assert caught == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {message}: "), err


def test_validation_errors_exit_2(tmp_path, capsys):
    assert run(["fuzzy", "--family", "gaussian-log", "--grid", "0:1:0",
                "--tau", 3.5, "--out", tmp_path / "x.csv"]) == 2
    assert run(["fuzzy", "--family", "gaussian-log", "--grid", "0:1:0.1",
                "--out", tmp_path / "x.csv"]) == 2  # tau missing
    assert run(["fuzzy", "--family", "conformal", "--grid", "0:1:0.1",
                "--out", tmp_path / "x.csv"]) == 2  # calib/utility/ratio missing
    assert run(["decide", "--problem", tmp_path / "missing.json",
                "--set", tmp_path / "missing2.json"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("grid", ["0:inf:1", "-inf:0:1", "-1e308:1e308:1e300", "nan:1:0.1"])
def test_non_finite_grid_spec_exits_2(tmp_path, capsys, grid):
    # an infinite end or an overflowing span once ended in an OverflowError traceback
    assert run(["fuzzy", "--family", "gaussian-log", "--tau", 3.5, "--grid", grid,
                "--out", tmp_path / "x.csv"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: grid spec {grid!r} needs a finite min, max, step and span"]


@pytest.mark.parametrize("ratio", ["ar1:0:0.5:3.5", "gaussian-composite:1:3.5",
                                   "gaussian-scale:0:1:3.5"])
@pytest.mark.parametrize("n", [0, -1, -5])
def test_validate_n_below_one_exits_2(capsys, ratio, n):
    # these once ended in an IndexError or ZeroDivisionError traceback, or a
    # numpy message about negative dimensions
    assert run(["validate", "--model", "iid-gaussian", "--ratio", ratio, "--n", n,
                "--trials", 1000]) == 2
    assert capsys.readouterr().err == "error: n must be at least 1\n"


@pytest.mark.parametrize("ratio", ["gaussian-scale:0:1:1e200", "gaussian-scale:0:1e-200:1e-199",
                                   "ar1:0:0.5:1e200", "gaussian-composite:1e-200:1e-199"])
def test_scale_ratio_out_of_float_range_exits_2(tmp_path, capsys, ratio):
    # the scales are checked when the ratio is built, not blamed on its values
    calib = tmp_path / "calib.csv"
    calib.write_text("0.12\n-0.4\n0.9\n")
    calls = [["fuzzy", "--family", "conformal", "--calib", calib, "--utility", "log",
              "--ratio", ratio, "--grid", "-3:3:0.25", "--out", tmp_path / "x.csv"],
             ["validate", "--model", "iid-gaussian", "--ratio", ratio, "--n", 5,
              "--trials", 1000]]
    for args in calls:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(args) == 2
        assert caught == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: sigma=") and "tau=" in err[0], err


def _run_module(args, cwd, timeout=120):
    src = str(Path(fc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", "fuzzyconf", *map(str, args)], cwd=cwd,
                          capture_output=True, text=True, env=env, timeout=timeout)


def test_wide_grid_overflow_is_one_error_line(tmp_path):
    # the scale ratio overflows to +inf past |z - mu| of about 38; that is an
    # error naming the first such grid point, and nothing else reaches stderr
    (tmp_path / "calib.csv").write_text("0.12\n-0.4\n0.9\n1.3\n-1.1\n0.5\n")
    done = _run_module(["fuzzy", "--family", "conformal", "--calib", "calib.csv",
                        "--utility", "log", "--ratio", "gaussian-scale:0:1:3.5",
                        "--grid=-45:45:0.05", "--out", "x.csv"], tmp_path)
    assert done.returncode == 2
    assert done.stderr == (
        "error: ratio is infinite at z=-45.0; cap the ratio (infinite evidence is "
        "expressed through the utility, not the alternative)\n")


@pytest.mark.parametrize("grid", ["0:1:1e-300", "0:1:1e-7", "0:1e308:1e-308"])
def test_grid_point_count_is_capped(tmp_path, grid):
    # the point count is checked before any point is built; 0:1:1e-300 once
    # grew until the process was killed
    done = _run_module(["fuzzy", "--family", "gaussian-log", "--tau", 3.5, f"--grid={grid}",
                        "--out", "x.csv"], tmp_path, timeout=30)
    assert MAX_GRID_POINTS == 10**7
    assert done.returncode == 2
    assert done.stderr == f"error: grid spec {grid!r} has more than 10000000 points\n"


@pytest.mark.parametrize("flags, code, message", [
    (["--sigma", "1e-200", "--tau", "1e-199", "--alpha", "0.05"], 2, "out of range"),
    (["--tau", "1e200", "--alpha", "0.05"], 2, "out of range"),
    (["--tau", "3.5", "--alpha", "1e-320"], 3, "null mean nan"),
])
def test_gaussian_extreme_scales_exit_codes(tmp_path, capsys, flags, code, message):
    assert run(["fuzzy", "--family", "gaussian-bounded-log", *flags, "--grid", "-3:3:1",
                "--out", tmp_path / "x.csv"]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]


_PROBLEM = {"decisions": ["hold", "act"], "outcomes": [-1.0, 0.0, 1.0],
            "loss": [[1, 1, 1], [2, 0.5, 2]]}
_SET = fc.FuzzyConfidenceSet(PlugInGrid((-1.0, 0.0, 1.0)), (2.0, 0.5, 3.0), ()).to_json_doc()


@pytest.mark.parametrize("problem, conf, message", [
    ({**_PROBLEM, "loss": 5}, _SET, "loss must be a JSON list, got 5"),
    ([_PROBLEM], _SET, "a decision problem must be a JSON object, got a list"),
    ({**_PROBLEM, "loss": [[1, 1, 1], [2, None, 2]]}, _SET, "loss[1][1] must be a number, got null"),
    (_PROBLEM, {**_SET, "evidence": [2.0, None, 3.0]}, "evidence[1] must be a number, got null"),
    (_PROBLEM, [], "a confidence set document must be a JSON object, got a list"),
    ({**_PROBLEM, "decisions": "ab"}, _SET, "decisions must be a JSON list, got 'ab'"),
], ids=["loss-number", "problem-list", "loss-null", "evidence-null", "set-list", "decisions-string"])
def test_malformed_decide_documents_exit_2(tmp_path, capsys, problem, conf, message):
    # each once ended in a TypeError or AttributeError traceback (exit 1), or,
    # for a string of decisions, in a certificate for decisions "a" and "b"
    (tmp_path / "prob.json").write_text(json.dumps(problem))
    (tmp_path / "set.json").write_text(json.dumps(conf))
    assert run(["decide", "--problem", tmp_path / "prob.json", "--set", tmp_path / "set.json",
                "--out", tmp_path / "cert.json"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "cert.json").exists()


@pytest.mark.parametrize("args, message", [
    (["fuzzy", "--family", "gaussian-np", "--alpha", "0.05", "--mu", "inf"], "mu must be finite, got inf"),
    (["fuzzy", "--family", "gaussian-bounded-log", "--tau", "3.5", "--alpha", "0.05", "--mu", "inf"],
     "mu must be finite, got inf"),
    (["fuzzy", "--family", "gaussian-np-composite", "--alpha", "0.05", "--n", "5", "--zbar", "nan"],
     "zbar must be finite, got nan"),
    (["fuzzy", "--family", "gaussian-log", "--tau", "3.5", "--sigma", "nan"],
     "sigma must be positive and finite, got nan"),
    (["interval", "--family", "simple", "--alpha", "0.05", "--mu", "nan"], "mu must be finite, got nan"),
    (["interval", "--family", "simple", "--alpha", "0.05", "--sigma", "inf"],
     "sigma must be positive and finite, got inf"),
    (["interval", "--family", "composite", "--alpha", "0.05", "--n", "3", "--zbar=-inf"],
     "zbar must be finite, got -inf"),
    (["interval", "--family", "ar1", "--alpha", "0.05", "--rho", "0.5", "--z-last", "inf"],
     "z_last must be finite, got inf"),
])
def test_non_finite_gaussian_parameters_exit_2(tmp_path, capsys, args, message):
    # the fuzzy calls once wrote a constant curve and exited 0; the interval
    # calls blamed the output ("Out of range float values are not JSON compliant")
    out = ["--grid=-3:3:1", "--out", tmp_path / "x.csv"] if args[0] == "fuzzy" else []
    assert run(args + out) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (tmp_path / "x.csv").exists()


_CURVE_ARGS = {"mu": -0.2, "sigma": 1.3, "tau": 3.5, "alpha": 0.05, "n": 7, "zbar": 0.4}
_SCALAR_FAMILIES = {
    "gaussian-log": lambda z, a: fc.gaussian_log_fuzzy(z, a["mu"], a["sigma"], a["tau"]),
    "gaussian-log-composite": lambda z, a: fc.gaussian_composite_log_fuzzy(
        z, a["zbar"], a["sigma"], a["tau"], a["n"]),
    "gaussian-bounded-log": lambda z, a: fc.gaussian_bounded_log_fuzzy(
        z, a["mu"], a["sigma"], a["tau"], a["alpha"]),
    "gaussian-bounded-log-composite": lambda z, a: fc.gaussian_composite_bounded_log_fuzzy(
        z, a["zbar"], a["sigma"], a["tau"], a["n"], a["alpha"]),
    "gaussian-np": lambda z, a: fc.gaussian_np_evalue(z, a["mu"], a["sigma"], a["alpha"]),
    "gaussian-np-composite": lambda z, a: fc.gaussian_composite_np_evalue(
        z, a["zbar"], a["sigma"], a["n"], a["alpha"]),
}


@pytest.mark.parametrize("family", cli._GAUSSIAN_FAMILIES)
def test_closed_form_curve_checks_once_and_equals_the_scalar_functions(tmp_path, monkeypatch,
                                                                      family):
    # the curve checks its parameters once, not once or twice per grid point,
    # and evaluates every point with the public scalar function's arithmetic
    from fuzzyconf import gaussian

    checks = []
    check = gaussian._check
    monkeypatch.setattr(gaussian, "_check", lambda *a, **k: checks.append(1) or check(*a, **k))
    flags = [x for key, v in _CURVE_ARGS.items() for x in (f"--{key}", str(v))]
    assert run(["fuzzy", "--family", family, *flags, "--grid=-40:40:0.1",
                "--out", tmp_path / "x.csv", "--json", tmp_path / "x.json"]) == 0
    assert 1 <= len(checks) <= 4
    monkeypatch.undo()
    doc = json.loads((tmp_path / "x.json").read_text())
    want = [_SCALAR_FAMILIES[family](z, _CURVE_ARGS) for z in doc["grid"]]
    assert [float(e) for e in doc["evidence"]] == want


def test_numeric_failure_exit_3(tmp_path, capsys):
    # an np-utility fuzzy set has zero evidence inside; weighting an
    # everywhere-positive loss by it makes every decision's risk infinite
    calib = tmp_path / "calib.csv"
    calib.write_text("1.2\n0.7\n2.1\n")
    fuzzy_json = tmp_path / "fz.json"
    run(["fuzzy", "--family", "conformal", "--calib", calib, "--utility", "np:0.2",
         "--ratio", "gaussian-scale:0:1:3.5", "--grid", "-2:4:1",
         "--out", tmp_path / "f.csv", "--json", fuzzy_json])
    prob = tmp_path / "prob.json"
    _write_problem(prob)
    code = run(["decide", "--problem", prob, "--set", fuzzy_json, "--mode", "weighted",
                "--out", tmp_path / "cert.json"])
    assert code == 3
    assert "clip" in capsys.readouterr().err


def test_calibration_reader(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("z\n1.0\n\n2.0\n")
    from fuzzyconf.cli import _read_calibration

    assert _read_calibration(str(path)) == (1.0, 2.0)
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0\noops\n")
    with pytest.raises(ValueError):
        _read_calibration(str(bad))
    empty = tmp_path / "empty.csv"
    empty.write_text("header\n")
    with pytest.raises(ValueError):
        _read_calibration(str(empty))


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def test_infinite_evidence_is_strict_json(tmp_path):
    # the raw scale ratio overflows to +inf far out in the tails
    out, doc_path = tmp_path / "f.csv", tmp_path / "f.json"
    assert run(["fuzzy", "--family", "gaussian-log", "--mu", 0, "--sigma", 1, "--tau", 3.5,
                "--grid", "-45:45:1", "--out", out, "--json", doc_path]) == 0
    doc = json.loads(doc_path.read_text(), parse_constant=_reject_constant)
    assert doc["evidence"].count("inf") == 12
    fset = load_confidence_set(doc)
    assert fset.evidence_at(45.0) == math.inf and fset.evidence_at(0.0) == pytest.approx(1 / 3.5)
    csv_evidence = [line.split(",")[1] for line in out.read_text().splitlines()[1:]]
    assert [float(e) for e in doc["evidence"]] == [float(e) for e in csv_evidence]

    binary = sublevel_set(fset, 0.05)
    text = json.dumps(binary.to_json_doc(), allow_nan=False)
    again = load_confidence_set(json.loads(text, parse_constant=_reject_constant))
    assert again.evidence == binary.evidence and again.membership == binary.membership


_CLI_SCRIPT = textwrap.dedent("""
    import json, os, sys
    blocked, workdir, calls = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
    if blocked:
        sys.modules[blocked] = None  # any import of it now raises ImportError
    import fuzzyconf
    from fuzzyconf.cli import main

    os.chdir(workdir)
    codes = [main(argv) for argv in calls]
    loaded = sorted(m for m, mod in sys.modules.items() if mod is not None
                    and m.split(".")[0] in ("fuzzyconf", "numpy", "scipy"))
    print(json.dumps({"codes": codes, "modules": loaded}))
""")


def _run_cli_script(work, calls, blocked=""):
    """Run ``calls`` through ``cli.main`` in a fresh interpreter in ``work``,
    with ``blocked`` made unimportable; return its stdout and the exit codes
    and the fuzzyconf, numpy and scipy modules it loaded."""
    work.mkdir()
    (work / "calib.csv").write_text("1.2\n0.7\n2.1\n")
    (work / "prob.json").write_text(json.dumps(
        {"decisions": ["hold", "act"], "outcomes": [-1.0, 0.0, 1.0],
         "loss": [[1, 1, 1], [2, 0.5, 2]]}))
    src = str(Path(fc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", _CLI_SCRIPT, blocked, str(work), json.dumps(calls)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout, json.loads(done.stdout.splitlines()[-1])


_EVERY_SUBCOMMAND = [
    ["interval", "--family", "simple", "--alpha", "0.05", "--out", "iv.json"],
    ["fuzzy", "--family", "gaussian-bounded-log", "--tau", "3.5", "--alpha", "0.05",
     "--grid", "-3:3:0.5", "--out", "g.csv"],
    ["fuzzy", "--family", "conformal", "--calib", "calib.csv", "--utility",
     "clipped-log:0.1", "--ratio", "gaussian-scale:0:1:3.5", "--grid", "-1:1:1",
     "--out", "c.csv", "--json", "c.json"],
    ["decide", "--problem", "prob.json", "--set", "c.json", "--out", "cert.json"],
    ["validate", "--model", "iid-gaussian", "--n", "5", "--trials", "2000",
     "--seed", "3", "--out", "report.json"],
]

# interval and the six closed-form fuzzy families compute with math alone
_CLOSED_FORM = [
    ["interval", "--family", "simple", "--mu", "0.3", "--sigma", "2", "--alpha", "0.05",
     "--out", "simple.json"],
    ["interval", "--family", "composite", "--zbar", "1.44", "--n", "3", "--alpha", "0.1",
     "--out", "composite.json"],
    ["interval", "--family", "ar1", "--mu", "0.2", "--rho", "0.5", "--z-last", "1.5",
     "--alpha", "0.05", "--out", "ar1.json"],
] + [
    ["fuzzy", "--family", family, "--tau", "3.5", "--alpha", "0.05", "--n", "7", "--zbar", "0.4",
     "--mu", "-0.2", "--grid=-8:8:0.25", "--out", f"{family}.csv", "--json", f"{family}.json"]
    for family in cli._GAUSSIAN_FAMILIES
]


@pytest.mark.parametrize("blocked, calls", [("scipy", _EVERY_SUBCOMMAND),
                                            ("numpy", _CLOSED_FORM)], ids=["scipy", "numpy"])
def test_cli_runs_without(tmp_path, blocked, calls):
    # with the package unimportable every call still succeeds, loads none of
    # it, and writes exactly what an unblocked run writes
    stdout, result = _run_cli_script(tmp_path / "blocked", calls, blocked)
    assert result["codes"] == [0] * len(calls)
    assert [m for m in result["modules"] if m.split(".")[0] == blocked] == []
    reference, _ = _run_cli_script(tmp_path / "reference", calls)
    assert stdout.splitlines()[:-1] == reference.splitlines()[:-1]
    names = sorted(p.name for p in (tmp_path / "blocked").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "reference").iterdir())
    for name in names:
        assert (tmp_path / "blocked" / name).read_bytes() == \
            (tmp_path / "reference" / name).read_bytes(), name


def test_conformal_fuzzy_loads_only_its_engine(tmp_path):
    _, result = _run_cli_script(tmp_path / "work", [_EVERY_SUBCOMMAND[2]])
    assert result["codes"] == [0]
    modules = set(result["modules"])
    assert {"fuzzyconf.confidence", "fuzzyconf.alternatives", "fuzzyconf.evalues",
            "fuzzyconf.orbits", "fuzzyconf.sets"} <= modules
    assert not modules & {"fuzzyconf.harness", "fuzzyconf.decisions", "fuzzyconf.gaussian"}


def test_package_namespace_resolves_names_lazily():
    for name in fc.__all__:
        obj = getattr(fc, name)
        module = importlib.import_module(f"fuzzyconf.{fc._MODULE_OF[name]}")
        assert getattr(module, name) is obj, name
        defined_in = getattr(obj, "__module__", "")
        if defined_in.startswith("fuzzyconf."):
            assert defined_in == module.__name__, name  # the defining module, not a re-export
        assert name not in vars(fc), name  # resolved on access, never cached
    assert len(fc.__all__) == len(set(fc.__all__))
    assert set(fc.__all__) <= set(dir(fc))
    assert fc.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no_such_name"):
        fc.no_such_name
    star = {}
    exec("from fuzzyconf import *", star)
    assert all(star[name] is getattr(fc, name) for name in fc.__all__)
    from fuzzyconf import confidence, sets

    for name in ("PlugInGrid", "MAX_GRID_POINTS", "FuzzyConfidenceSet", "BinaryConfidenceSet",
                 "load_confidence_set", "sublevel_set", "smallest_exclusion_level",
                 "randomized_binary"):
        assert getattr(confidence, name) is getattr(sets, name), name


def _import_every_module():
    # the command line imports its modules on demand; import them all so
    # that patching every loaded module reaches each one
    for info in pkgutil.iter_modules(fc.__path__):
        if info.name != "__main__":
            importlib.import_module(f"fuzzyconf.{info.name}")


_SCALAR_PATH = ("evalue_at", "optimal_evalue", "normalization_lambda", "np_threshold",
                "profile_for", "conditional_lr_iid")


def test_cli_evidence_comes_only_from_the_row_engine(tmp_path, monkeypatch):
    # the per-orbit functions are the reference; every command takes its evidence
    # from the sorted-calibration core and none may fall back to them
    def scalar_path(*args, **kwargs):
        raise AssertionError("the scalar per-orbit path ran under the command line")

    _import_every_module()
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "fuzzyconf":
            for attr in _SCALAR_PATH:
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, scalar_path)
    calib = tmp_path / "calib.csv"
    calib.write_text("1.2\n0.7\n2.1\n-0.4\n0.3\n")
    fuzzy = ["fuzzy", "--family", "conformal", "--calib", calib, "--grid", "-4:4:0.5",
             "--out", tmp_path / "f.csv"]
    kernel = ["validate", "--check", "coverage", "--alpha", 0.1, "--model", "iid-gaussian",
              "--n", 5, "--trials", 1000, "--seed", 7]
    calls = [
        fuzzy + ["--utility", "bounded-log:0.05", "--ratio", "gaussian-scale:0:1:3.5"],
        fuzzy + ["--utility", "clipped-log:0.1", "--ratio", "gaussian-scale:0:1:3.5"],
        fuzzy + ["--utility", "np:0.1", "--ratio", "gaussian-scale:0:1:3.5"],
        fuzzy + ["--utility", "bounded-log:0.05", "--ratio", "gaussian-composite:1:3.5"],
        kernel + ["--ratio", "ar1:0:0.5:3.5", "--utility", "log"],
        kernel + ["--ratio", "gaussian-composite:1:3.5", "--utility", "bounded-log:0.05"],
    ]
    assert [run(args) for args in calls] == [0] * len(calls)


def test_cli_kernel_validators_evaluate_blocks(monkeypatch):
    # the built-in kernels' row form serves every trial: neither a builder
    # nor resolve_alternative may run under the validators
    def per_trial(*args, **kwargs):
        raise AssertionError("a kernel was resolved trial by trial")

    _import_every_module()
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "fuzzyconf" and hasattr(module, "resolve_alternative"):
            monkeypatch.setattr(module, "resolve_alternative", per_trial)
    monkeypatch.setattr(cli, "parse_ratio", lambda spec, parse=parse_ratio:
                        dataclasses.replace(parse(spec), builder=per_trial))
    kernel = ["validate", "--check", "coverage", "--alpha", 0.1, "--model", "iid-gaussian",
              "--n", 5, "--trials", 1000, "--seed", 7]
    calls = [kernel + ["--ratio", "ar1:0:0.5:3.5", "--utility", "log"],
             kernel + ["--ratio", "gaussian-composite:1:3.5", "--utility", "bounded-log:0.05"]]
    assert [run(args) for args in calls] == [0, 0]


def _numpy_blas_is_openblas():
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 reports no build dependencies
        return False
    return "openblas" in str(blas.get("name", "")).lower()


_THREADS_SCRIPT = textwrap.dedent("""
    import json, os, sys
    from fuzzyconf.cli import main

    os.chdir(sys.argv[1])
    threads = []
    for argv in json.loads(sys.argv[2]):
        code = main(argv)
        status = open("/proc/self/status").read().splitlines()
        threads.append([code, next(l.split()[1] for l in status if l.startswith("Threads:"))])
    print(json.dumps({"threads": threads, "openblas": os.environ.get("OPENBLAS_NUM_THREADS")}))
""")

_NUMPY_CALLS = [
    ["fuzzy", "--family", "conformal", "--calib", "calib.csv", "--utility", "bounded-log:0.05",
     "--ratio", "gaussian-scale:0:1:3.5", "--grid=-4:4:0.01", "--out", "c.csv", "--json", "c.json"],
    ["validate", "--check", "coverage", "--alpha", "0.1", "--model", "iid-gaussian", "--n", "5",
     "--trials", "2000", "--seed", "3", "--out", "report.json"],
]

_openblas_only = pytest.mark.skipif(
    not (os.path.exists("/proc/self/status") and _numpy_blas_is_openblas()),
    reason="needs /proc/self/status and a numpy built against OpenBLAS")


def _run_numpy_calls(work, openblas_threads=None):
    """Run the conformal and validate calls through ``cli.main`` in a fresh
    interpreter whose environment sets no BLAS thread count, or sets
    OPENBLAS_NUM_THREADS to ``openblas_threads``; return its report and the
    bytes of each file it wrote."""
    work.mkdir()
    (work / "calib.csv").write_text("0.12\n-0.4\n0.9\n1.3\n-1.1\n0.5\n")
    src = str(Path(fc.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    done = subprocess.run([sys.executable, "-c", _THREADS_SCRIPT, str(work),
                           json.dumps(_NUMPY_CALLS)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    return report, {p.name: p.read_bytes() for p in sorted(work.iterdir())}


@_openblas_only
def test_numpy_calls_start_no_blas_threads(tmp_path):
    # numpy's OpenBLAS would start a busy-waiting worker per extra CPU at
    # import; the command line does no BLAS work and asks it for none
    report, _ = _run_numpy_calls(tmp_path / "work")
    assert report == {"threads": [[0, "1"], [0, "1"]], "openblas": "1"}


@_openblas_only
def test_exported_blas_thread_count_is_kept(tmp_path):
    report, _ = _run_numpy_calls(tmp_path / "work", "2")
    assert report["openblas"] == "2"
    assert [code for code, _ in report["threads"]] == [0, 0]
    if len(os.sched_getaffinity(0)) >= 2:  # OpenBLAS starts no more threads than CPUs
        assert [threads for _, threads in report["threads"]] == ["2", "2"]


@_openblas_only
def test_blas_thread_count_leaves_outputs_unchanged(tmp_path):
    _, single = _run_numpy_calls(tmp_path / "single")
    _, exported = _run_numpy_calls(tmp_path / "exported", "2")
    assert sorted(single) == ["c.csv", "c.json", "calib.csv", "report.json"]
    assert single == exported
