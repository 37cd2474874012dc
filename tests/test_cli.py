import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import fuzzyconf as fc
from fuzzyconf.cli import main, parse_ratio, parse_utility
from fuzzyconf.confidence import PlugInGrid, load_confidence_set, sublevel_set


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


_NO_SCIPY_SCRIPT = textwrap.dedent("""
    import json, os, sys
    sys.modules["scipy"] = None  # any scipy import now raises ImportError
    import fuzzyconf
    from fuzzyconf.cli import main

    os.chdir(sys.argv[1])
    with open("calib.csv", "w") as fh:
        fh.write("1.2\\n0.7\\n2.1\\n")
    with open("prob.json", "w") as fh:
        json.dump({"decisions": ["hold", "act"], "outcomes": [-1.0, 0.0, 1.0],
                   "loss": [[1, 1, 1], [2, 0.5, 2]]}, fh)
    calls = [
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
    codes = [main(argv) for argv in calls]
    loaded = sorted(m for m, mod in sys.modules.items()
                    if m.split(".")[0] == "scipy" and mod is not None)
    print(json.dumps({"codes": codes, "scipy": loaded}))
""")


def test_cli_runs_without_scipy(tmp_path):
    src = str(Path(fc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result == {"codes": [0, 0, 0, 0, 0], "scipy": []}


_SCALAR_PATH = ("evalue_at", "optimal_evalue", "normalization_lambda", "np_threshold",
                "profile_for", "conditional_lr_iid")


def test_cli_evidence_comes_only_from_the_row_engine(tmp_path, monkeypatch):
    # the per-orbit functions are the reference; every command takes its evidence
    # from the sorted-calibration core and none may fall back to them
    def scalar_path(*args, **kwargs):
        raise AssertionError("the scalar per-orbit path ran under the command line")

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
