import ast
import gc
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import fuzzyconf as fc
from fuzzyconf import cli, errors
from fuzzyconf.cli import main, parse_ratio, parse_utility
from fuzzyconf.sets import MAX_GRID_POINTS, PlugInGrid, load_confidence_set, sublevel_set


def run(args):
    return main([str(a) for a in args])


def test_parse_utility_forms():
    assert parse_utility("log") == fc.Log()
    assert parse_utility("power:0.5") == fc.Power(h=0.5)
    assert parse_utility("np:0.05") == fc.NeymanPearson(alpha=0.05)
    assert parse_utility("bounded-log:0.1") == fc.BoundedLog(alpha=0.1)
    assert parse_utility("clipped-log:0.2") == fc.ClippedLog(b=0.2)
    assert parse_utility("dampened:0.1:log") == fc.Dampened(b=0.1, inner=fc.Log())
    # 1200 nested levels once raised RecursionError in parse_utility
    for bad in ("boom", "log:1", "dampened:0.1", "power:", "log:", "dampened:0.1:log:",
                "dampened:0.1:dampened:0.2:np:0.3", "dampened:0.5:" * 1200 + "log", "power:-inf"):
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


# each built-in ratio with the fewest parameters it takes
_MINIMAL_RATIOS = {"gaussian-mean-shift": "gaussian-mean-shift:0:1",
                   "gaussian-scale": "gaussian-scale:0:1:3.5", "ar1": "ar1:0:0.5:3.5",
                   "gaussian-composite": "gaussian-composite:1:3.5"}


@pytest.mark.parametrize("name", cli._RATIOS)
def test_each_ratio_row_checks_its_counts_and_is_listed(capsys, monkeypatch, name):
    _, counts, usage = cli._RATIOS[name]
    assert usage.startswith(f"{name}:")
    for size in (min(counts) - 1, max(counts) + 1):
        spec = ":".join([name] + ["1"] * size)
        assert run(["validate", "--model", "iid-gaussian", "--trials", 1000, "--ratio", spec]) == 2
        assert capsys.readouterr() == ("", f"error: {usage}\n")
    assert parse_ratio(_MINIMAL_RATIOS[name]).name.startswith(name)
    monkeypatch.setenv("COLUMNS", "1000")  # no wrapping inside a spec
    for command in ("fuzzy", "validate"):
        with pytest.raises(SystemExit):
            run([command, "-h"])
        assert usage in capsys.readouterr().out


def test_failed_check_exits_1(monkeypatch, capsys):
    from fuzzyconf import harness

    failing = harness.McReport(check="evalue-validity", estimate=1.5, se=0.01, bound=1.0,
                               passed=False, trials=1000, seed=3, model="iid-gaussian")
    monkeypatch.setattr(harness, "mc_validate_evalue", lambda *args, **kwargs: failing)
    assert run(["validate", "--model", "iid-gaussian", "--n", 5, "--trials", 1000]) == \
        cli.EXIT_CHECK_FAILED == 1
    assert capsys.readouterr().out.startswith("[FAIL] evalue-validity")


_CALIB = "0.12\n-0.4\n0.9\n1.3\n-1.1\n0.5\n"
_PROBLEM = {"decisions": ["hold", "act"], "outcomes": [-1.0, 0.0, 1.0],
            "loss": [[1, 1, 1], [2, 0.5, 2]]}
_SET = fc.FuzzyConfidenceSet(PlugInGrid((-1.0, 0.0, 1.0)), (2.0, 0.5, 3.0), ()).to_json_doc()
_BINARY_SET = fc.BinaryConfidenceSet(PlugInGrid((-1.0, 0.0, 1.0)), (False, True, True), 0.25,
                                     (5.0, 0.5, 3.0), ()).to_json_doc()
# the files each call of the tables below starts with; a row may add or replace some
_DOCUMENTS = {"prob.json": _PROBLEM, "set.json": _SET, "binary.json": _BINARY_SET,
              "calib.csv": _CALIB, "notes.txt": "not json\n"}

# every flag a closed-form family needs that has no default, in flag order
_MISSING_FLAGS = {
    ("fuzzy", "gaussian-log"): "--tau",
    ("fuzzy", "gaussian-log-composite"): "--zbar, --tau and --n",
    ("fuzzy", "gaussian-bounded-log"): "--tau and --alpha",
    ("fuzzy", "gaussian-bounded-log-composite"): "--zbar, --tau, --n and --alpha",
    ("fuzzy", "gaussian-np"): "--alpha",
    ("fuzzy", "gaussian-np-composite"): "--zbar, --n and --alpha",
    ("interval", "composite"): "--zbar and --n",
    ("interval", "ar1"): "--rho and --z-last",
}

_SCALES = "sigma^2, tau^2, sigma^2 tau^2 and 2 sigma^2 tau^2 must be positive finite floats"
_CURVE_SCALES = ("sigma^2, tau^2, tau^2 - sigma^2, sigma^2 tau^2 and 2 sigma^2 tau^2 must be "
                 "positive finite floats")
_SIGMA = "is out of range: sigma, sigma^2 and 2 sigma^2 must be positive finite floats"
_SHIFT = "are out of range: mu, delta and delta^2 must be finite floats"
_CENTRE = "is out of range: mu must be a finite float"
# a ratio is checked when it is built, not blamed on its values; a non-finite
# centre was once blamed on the values at z=0.1
_BAD_RATIOS = {
    "gaussian-mean-shift:0:1:inf": f"sigma=inf {_SIGMA}",
    "gaussian-mean-shift:0:1e200": f"mu=0.0 and delta=1e+200 {_SHIFT}",
    "gaussian-mean-shift:inf:1": f"mu=inf and delta=1.0 {_SHIFT}",
    "gaussian-mean-shift:0:1:1e-200": f"sigma=1e-200 {_SIGMA}",
    "gaussian-scale:nan:1:3.5": f"mu=nan {_CENTRE}",
    "gaussian-scale:inf:1:3.5": f"mu=inf {_CENTRE}",
    "ar1:nan:0.5:3.5": f"mu=nan {_CENTRE}",
    "gaussian-scale:0:1:1e200": f"sigma=1.0 and tau=1e+200 are out of range: {_SCALES}",
    "gaussian-scale:0:1e-200:1e-199": f"sigma=1e-200 and tau=1e-199 are out of range: {_SCALES}",
    "ar1:0:0.5:1e200": f"sigma=1.0 and tau=1e+200 are out of range: {_SCALES}",
    "gaussian-composite:1e-200:1e-199": f"sigma=1e-200 and tau=1e-199 are out of range: {_SCALES}",
}
_OVERFLOW = "the interval endpoints overflow, got lo=-inf and hi=inf"
_CAP = "cap the ratio (infinite evidence is expressed through the utility, not the alternative)"
_SEED = "seed must lie in [0, 2**128), the Philox key range, got"


def _decide(mode, problem, conf, message, code=2):
    return (f"decide {mode} --problem prob.json --set set.json --out cert.json", message, code,
            {"prob.json": problem, "set.json": conf})


def _row(argv, message, code=2, documents=None):
    return argv.split(), code, message, {**_DOCUMENTS, **(documents or {})}


_VALIDATE = "validate --model iid-gaussian --n 5 --trials 1000"
_CONFORMAL = "fuzzy --family conformal --calib calib.csv --grid=-1:1:1 --out out.csv"
_GAUSSIAN_LOG = "fuzzy --family gaussian-log --tau 3.5"
_DECIDE = "decide --problem prob.json --out cert.json --set"
# the documented failures, in this table and the five after it, each row
# id -> (argv, message[, exit code[, documents]]): argv, split on whitespace,
# exits with the code, 2 by default, and the message, in a directory of
# _DOCUMENTS updated by the documents
_FAILING_CALLS = {
    # validate; the categorical support once ended in a TypeError traceback
    "model-args-foo": (f"{_VALIDATE} --model-args foo=1",
                       "model iid-gaussian takes no parameter foo; its parameters are mu, sigma"),
    "model-args-nan": (f"{_VALIDATE} --model-args sigma=nan",
                       "model parameter sigma must be finite, got nan"),
    "model-args-negative-scale": (f"{_VALIDATE} --model-args sigma=-1", "model parameter sigma "
                                  "is a scale and must be nonnegative, got -1.0"),
    "model-args-lo-above-hi": (f"{_VALIDATE} --model iid-uniform --model-args lo=1,hi=0",
                               "model parameters need lo <= hi, got lo=1.0 and hi=0.0"),
    "model-args-missing": (f"{_VALIDATE} --model iid-categorical",
                           "model iid-categorical needs the parameters support and probs"),
    "model-args-support": (f"{_VALIDATE} --model iid-categorical --model-args support=1,probs=1",
        "model parameter support must be a nonempty 1-D sequence of numbers, got 1.0"),
    "model-args-not-key-value": (f"{_VALIDATE} --model-args mu",
                                 "model args must be key=value, got 'mu'"),
    "seed-negative": (f"{_VALIDATE} --seed -1", f"{_SEED} -1"),
    "seed-2**128": (f"{_VALIDATE} --seed {2**128}", f"{_SEED} {2**128}"),
    # each once ended in a numpy _ArrayMemoryError traceback, exit 1
    "trials-above-the-cap": ("validate --model iid-gaussian --n 5 --trials 10000000000000",
                             "use at most 10000000 trials, got 10000000000000"),
    "n-above-the-cap": ("validate --model iid-gaussian --n 1000000000000 --trials 1000",
                        "n must be at most 1000000, got 1000000000000"),
    # the [PASS] line was once printed before the report failed to write
    "validate-out-directory": (f"{_VALIDATE} --out .", "[Errno 21] Is a directory: '.'"),
    # the CSV written first was once left behind
    "fuzzy-json-directory": (f"{_GAUSSIAN_LOG} --grid=-1:1:1 --out x.csv --json .",
                             "[Errno 21] Is a directory: '.'"),
    "conformal-json-directory": (f"{_CONFORMAL} --utility log --ratio gaussian-scale:0:1:3.5 "
                                 "--json .", "[Errno 21] Is a directory: '.'"),
    # the JSON once overwrote the CSV, exit 0; "-" once sent the JSON to
    # stdout and wrote the CSV to a file named "-"
    "out-and-json-one-file": (f"{_GAUSSIAN_LOG} --grid=-1:1:1 --out y.csv --json ./y.csv",
                              "--out and --json name the same file 'y.csv'"),
    "out-and-json-dash": (f"{_GAUSSIAN_LOG} --grid=-1:1:1 --out - --json -",
                          "--out and --json name the same file '-'"),
    **{f"{command}-{ratio}": (argv.format(ratio), message)
       for ratio, message in _BAD_RATIOS.items() for command, argv in (
           ("fuzzy", "fuzzy --family conformal --calib calib.csv --utility log --ratio {} "
                     "--grid -3:3:0.25 --out x.csv"),
           ("validate", "validate --model iid-gaussian --ratio {} --n 5 --trials 1000"))},
    "missing-files": ("decide --problem missing.json --set missing2.json",
                      "[Errno 2] No such file or directory: 'missing.json'"),
    # fuzzy and interval; an infinite grid end or an overflowing span once
    # ended in an OverflowError traceback
    "grid-zero-step": ("fuzzy --family gaussian-log --grid 0:1:0 --tau 3.5 --out x.csv",
                       "grid step must be positive"),
    **{f"grid-{grid}": (f"{_GAUSSIAN_LOG} --grid {grid} --out x.csv",
                        f"grid spec {grid!r} needs a finite min, max, step and span")
       for grid in ("0:inf:1", "-inf:0:1", "-1e308:1e308:1e300", "nan:1:0.1")},
    # the point count is checked before any point is built; 0:1:1e-300 once
    # grew until the process was killed
    **{f"grid-{grid}": (f"{_GAUSSIAN_LOG} --grid={grid} --out x.csv",
                        f"grid spec {grid!r} has more than 10000000 points")
       for grid in ("0:1:1e-300", "0:1:1e-7", "0:1e308:1e-308")},
    "missing-tau": ("fuzzy --family gaussian-log --grid 0:1:0.1 --out x.csv",
                    "gaussian-log needs --tau"),
    "missing-conformal-flags": ("fuzzy --family conformal --grid 0:1:0.1 --out x.csv",
                                "conformal needs --calib, --utility and --ratio"),
    # every ratio is checked before the core runs: the calibration's ratios
    # underflow to 0, and the ratio overflows to +inf from z = 39
    "grid-ratio-before-core": ("fuzzy --family conformal --calib calib.csv --utility log --ratio "
        "gaussian-mean-shift:0:30 --grid=-20:40:1 --out x.csv",
        f"ratio is infinite at z=39.0; {_CAP}", 2, {"calib.csv": "-20\n-20\n-20\n"}),
    # the bench's known-defect probe: the scale ratio overflows to +inf past
    # |z - mu| of about 38; ROADMAP item 3's log-space ratios would make it exit 0
    "wide-grid-ratio-overflow": ("fuzzy --family conformal --calib calib.csv --utility log --ratio "
        "gaussian-scale:0:1:3.5 --grid=-45:45:0.05 --out x.csv",
        f"ratio is infinite at z=-45.0; {_CAP}"),
    # a non-finite parameter once wrote a constant curve and exited 0, or was
    # blamed on the output ("Out of range float values are not JSON compliant"),
    # as were finite inputs whose conditional mean or endpoints overflow
    "np-mu-inf": ("fuzzy --family gaussian-np --alpha 0.05 --mu inf --grid=-3:3:1 --out x.csv",
                  "mu must be finite, got inf"),
    "bounded-log-mu-inf": ("fuzzy --family gaussian-bounded-log --tau 3.5 --alpha 0.05 --mu inf "
                           "--grid=-3:3:1 --out x.csv", "mu must be finite, got inf"),
    "np-composite-zbar-nan": ("fuzzy --family gaussian-np-composite --alpha 0.05 --n 5 --zbar nan "
                              "--grid=-3:3:1 --out x.csv", "zbar must be finite, got nan"),
    "log-sigma-nan": (f"{_GAUSSIAN_LOG} --sigma nan --grid=-3:3:1 --out x.csv",
                      "sigma must be positive and finite, got nan"),
    "interval-mu-nan": ("interval --family simple --alpha 0.05 --mu nan",
                        "mu must be finite, got nan"),
    "interval-sigma-inf": ("interval --family simple --alpha 0.05 --sigma inf",
                           "sigma must be positive and finite, got inf"),
    "interval-zbar-inf": ("interval --family composite --alpha 0.05 --n 3 --zbar=-inf",
                          "zbar must be finite, got -inf"),
    "interval-z-last-inf": ("interval --family ar1 --alpha 0.05 --rho 0.5 --z-last inf",
                            "z_last must be finite, got inf"),
    "interval-ar1-centre-overflow": ("interval --family ar1 --alpha 0.05 --mu=-1e308 --rho 0.5 "
        "--z-last 1e308", "the conditional mean mu + rho*(z_last - mu) overflows, got inf"),
    "interval-scale-overflow": ("interval --family simple --sigma 1e308 --alpha 1e-10", _OVERFLOW),
    "interval-composite-scale-overflow": (
        "interval --family composite --zbar 0 --sigma 1e308 --n 3 --alpha 0.05", _OVERFLOW),
    "interval-centre-overflow": ("interval --family simple --mu 1.7e308 --sigma 1e307 --alpha "
        "0.05", "the interval endpoints overflow, got lo=1.5040036015459945e+308 and hi=inf"),
    # the NP step is its interval's complement: it once wrote evidence 0 everywhere
    "np-scale-overflow": ("fuzzy --family gaussian-np --sigma 1e308 --alpha 1e-10 --grid=-1:1:1 "
                          "--out x.csv", _OVERFLOW),
    "bounded-log-tiny-scales": ("fuzzy --family gaussian-bounded-log --sigma 1e-200 --tau 1e-199 "
        "--alpha 0.05 --grid -3:3:1 --out x.csv",
        f"sigma=1e-200 and tau=1e-199 are out of range: {_CURVE_SCALES}"),
    "bounded-log-huge-tau": ("fuzzy --family gaussian-bounded-log --tau 1e200 --alpha 0.05 --grid "
        "-3:3:1 --out x.csv", f"sigma=1.0 and tau=1e+200 are out of range: {_CURVE_SCALES}"),
    "bounded-log-tiny-alpha": ("fuzzy --family gaussian-bounded-log --tau 3.5 --alpha 1e-320 "
        "--grid -3:3:1 --out x.csv", "capped ratio has null mean nan at boost 1", 3),
    "conformal-bounded-log-tiny-alpha": (
        f"{_CONFORMAL} --utility bounded-log:1e-320 --ratio gaussian-scale:0:1:3.5",
        "orbit mean misses 1 by nan; the shaped e-value is infeasible", 3),
    # 2 sigma^2 tau^2 overflows although sigma^2 tau^2 does not: the curve was
    # NaN, and the call blamed the evidence ("evidence must be nonnegative")
    **{f"scale-product-{family}": (
        f"fuzzy --family {family} --sigma 1e77 --tau 1.1e77 {alpha} --grid=-1e200:1e200:1e199 "
        "--out x.csv", f"sigma=1e+77 and tau=1.1e+77 are out of range: {_CURVE_SCALES}")
       for family, alpha in (("gaussian-log", ""), ("gaussian-bounded-log", "--alpha 0.05"))},
    # decide
    # each but loss-rows once ended in a TypeError or AttributeError traceback,
    # or, for a string of decisions, in a certificate for decisions "a" and "b"
    **{name: _decide("", problem, conf, message) for name, problem, conf, message in (
        ("loss-number", {**_PROBLEM, "loss": 5}, _SET, "loss must be a JSON list, got 5"),
        ("problem-list", [_PROBLEM], _SET, "a decision problem must be a JSON object, got a list"),
        ("loss-null", {**_PROBLEM, "loss": [[1, 1, 1], [2, None, 2]]}, _SET,
         "loss[1][1] must be a number, got null"),
        ("evidence-null", _PROBLEM, {**_SET, "evidence": [2.0, None, 3.0]},
         "evidence[1] must be a number, got null"),
        ("set-list", _PROBLEM, [], "a confidence set document must be a JSON object, got a list"),
        ("decisions-string", {**_PROBLEM, "decisions": "ab"}, _SET,
         "decisions must be a JSON list, got 'ab'"),
        ("loss-rows", {**_PROBLEM, "loss": [[1, 1, 1]]}, _SET,
         "loss must have one row per decision"))},
    # each once decided, exit 0: JSON true read as the number 1, any truthy
    # value, even "no", as a member, str() named a decision "1" or "None",
    # and float() read any numeric string (the writers emit only "inf"); an
    # integer beyond the float range once ended in an OverflowError traceback
    **{name: _decide("--mode as-if", problem, conf, message) for name, problem, conf, message in (
        ("alpha-boolean", _PROBLEM, {**_BINARY_SET, "alpha": True},
         "alpha must be a number, got true"),
        ("loss-boolean", {**_PROBLEM, "loss": [[1, 1, 1], [True, 0.5, 2]]}, _BINARY_SET,
         "loss[1][0] must be a number, got true"),
        ("evidence-boolean", _PROBLEM, {**_BINARY_SET, "evidence": [5.0, False, 3.0]},
         "evidence[1] must be a number, got false"),
        ("membership-string", _PROBLEM, {**_BINARY_SET, "membership": ["no", "no", "no"]},
         "membership[0] must be true or false, got 'no'"),
        ("membership-number", _PROBLEM, {**_BINARY_SET, "membership": [0, 1, 1]},
         "membership[0] must be true or false, got 0"),
        ("decision-null", {**_PROBLEM, "decisions": ["hold", None]}, _BINARY_SET,
         "decisions[1] must be a string, got null"),
        ("decision-number", {**_PROBLEM, "decisions": [1, None]}, _BINARY_SET,
         "decisions[0] must be a string, got 1"),
        ("alpha-string", _PROBLEM, {**_BINARY_SET, "alpha": "0.25"},
         "alpha must be a number, got '0.25'"),
        ("loss-string", {**_PROBLEM, "loss": [[1, 1, 1], [2, "0.5", 2]]}, _BINARY_SET,
         "loss[1][1] must be a number, got '0.5'"),
        ("outcome-string", {**_PROBLEM, "outcomes": ["-1", 0.0, 1.0]}, _BINARY_SET,
         "outcomes[0] must be a number, got '-1'"),
        ("evidence-infinity", _PROBLEM, {**_BINARY_SET, "evidence": [5.0, "inf", "Infinity"]},
         "evidence[2] must be a number, got 'Infinity'"),
        ("loss-huge-integer", {**_PROBLEM, "loss": [[1, 1, 1], [2, 10**400, 2]]}, _BINARY_SET,
         "loss[1][1] is an integer beyond the float range"),
        ("alpha-huge-integer", _PROBLEM, {**_BINARY_SET, "alpha": -10**400},
         "alpha is an integer beyond the float range"))},
    # outcome 0.0 has zero evidence and a positive loss under both decisions,
    # so every weighted risk is infinite; -0.0 evidence once certified "a"
    # with risk bound 1.0, its ratio 5/-0.0 read as -inf
    **{f"{name}-evidence": _decide(
        "--mode weighted",
        {"decisions": ["a", "b"], "outcomes": [0.0, 1.0], "loss": [[5.0, 1.0], [1.0, 2.0]]},
        fc.FuzzyConfidenceSet(PlugInGrid((0.0, 1.0)), (zero, 1.0), ()).to_json_doc(),
        "every decision has infinite weighted risk; clip the evidence away from zero (e.g. a "
        "clipped-log utility)", 3) for name, zero in (("zero", 0.0), ("negative-zero", -0.0))},
}

# n < 1 once ended in an IndexError or ZeroDivisionError traceback
_N_BELOW_ONE_CALLS = {
    f"{n}-{ratio}": (f"validate --model iid-gaussian --ratio {ratio} --n {n} --trials 1000",
                     "n must be at least 1")
    for ratio in ("ar1:0:0.5:3.5", "gaussian-composite:1:3.5", "gaussian-scale:0:1:3.5")
    for n in (0, -1, -5)}

_MODE_AND_PARAMETER_CALLS = {
    # validate
    "scale-sigma": (f"{_VALIDATE} --ratio gaussian-scale:0:-1:3.5",
                    "sigma and tau must be positive"),
    "ar1-rho": (f"{_VALIDATE} --ratio ar1:0:2:3.5", "rho must lie in (-1, 1)"),
    "ar1-tau": (f"{_VALIDATE} --ratio ar1:0:0.5:0.5", "tau must exceed the unit marginal scale"),
    "composite-order": (f"{_VALIDATE} --ratio gaussian-composite:2:1", "need 0 < sigma < tau"),
    "coverage-alpha": (f"{_VALIDATE} --check coverage --alpha 1.5", "alpha must lie in (0, 1)"),
    # decide
    "as-if-alpha": (f"{_DECIDE} set.json --mode as-if", "as-if over a fuzzy set needs --alpha"),
    "weighted-binary": (f"{_DECIDE} binary.json", "weighted mode needs a fuzzy confidence set"),
    "post-hoc-binary": (f"{_DECIDE} binary.json --mode post-hoc --levels 0.5",
                        "post-hoc mode needs a fuzzy confidence set"),
    "post-hoc-levels": (f"{_DECIDE} set.json --mode post-hoc", "post-hoc mode needs --levels"),
}

_UNTAKEN_FLAG_CALLS = {
    # each once exited 0, ignoring the flags its family does not read; the
    # nested dampened utility ran, and power:-inf wrote evidence 3.0000000000000004
    "evalue-alpha": ("validate --check evalue --alpha 0.3 --model iid-gaussian --n 5 --trials 1000 "
                     "--out out.json", "evalue check does not take --alpha"),
    "gaussian-log-conformal-flags": ("fuzzy --family gaussian-log --tau 3.5 --utility np:0.1 "
        "--ratio bogus --calib missing.csv --grid=-1:1:1 --out out.csv",
        "gaussian-log does not take --calib, --utility and --ratio"),
    "conformal-alpha": (f"{_CONFORMAL} --utility log --ratio gaussian-scale:0:1:3.5 --alpha 0.05",
                        "conformal does not take --alpha"),
    "ar1-sigma": ("interval --family ar1 --rho 0.5 --z-last 1 --alpha 0.05 --sigma 7 "
                  "--out out.json", "ar1 does not take --sigma"),
    "dampened-dampened": (f"{_CONFORMAL} --utility dampened:0.1:dampened:0.2:np:0.3 --ratio "
        "gaussian-scale:0:1:3.5", "the inner utility must not be dampened: b over c is dampened "
        "with B = 1 - (1 - b)(1 - c)"),
    "power-minus-inf": (f"{_CONFORMAL} --utility power:-inf --ratio gaussian-mean-shift:0:1",
                        "h must satisfy -inf < h < 1 and h != 0"),
    # as-if over a binary set made at 0.5 once certified at 0.5 whatever --alpha said
    "as-if-binary-alpha": ("decide --problem prob.json --set binary.json --mode as-if --alpha 0.01 "
                           "--out out.json", "as-if over a binary set does not take --alpha"),
    "weighted-alpha-levels": ("decide --problem prob.json --set set.json --mode weighted --alpha "
        "0.01 --levels 0.5 --out out.json", "weighted mode does not take --alpha and --levels"),
}

_PARSE_ERROR_CALLS = {
    # each parse error once printed only the parser's message, such as "could
    # not convert string to float: ''", naming no flag or file
    "model-args": ("validate --model iid-gaussian --model-args mu=abc",
                   "model arg mu must be a number, got 'abc'"),
    "utility": ("validate --model iid-gaussian --utility power:abc",
                "--utility 'power:abc': 'abc' is not a number"),
    "dampened": ("validate --model iid-gaussian --utility dampened:x:log",
                 "--utility 'dampened:x:log': 'x' is not a number"),
    "utility-empty": ("fuzzy --family conformal --calib calib.csv --utility np: --ratio "
        "gaussian-scale:0:1:3.5 --grid=-1:1:1 --out x.csv", "--utility 'np:': '' is not a number"),
    "ratio": ("validate --model iid-gaussian --ratio gaussian-scale:a:1:2",
              "--ratio 'gaussian-scale:a:1:2': 'a' is not a number"),
    "ratio-empty": ("fuzzy --family conformal --calib calib.csv --utility log --ratio "
        "ar1:0:0.5: --grid=-1:1:1 --out x.csv", "--ratio 'ar1:0:0.5:': '' is not a number"),
    "ratio-unknown": ("validate --model iid-gaussian --ratio foo:1", "unknown ratio 'foo:1'"),
    # a part that is not a number is named before the ratio is looked up
    "ratio-unknown-not-a-number": ("validate --model iid-gaussian --ratio foo:x",
                                   "--ratio 'foo:x': 'x' is not a number"),
    "grid": (f"{_GAUSSIAN_LOG} --grid=1e16:1e16+8:1 --out x.csv",
             "grid spec '1e16:1e16+8:1' must be min:max:step numbers"),
    "levels": ("decide --problem prob.json --set set.json --mode post-hoc --levels 0.1,,0.2",
               "--levels must be comma-separated numbers, got '0.1,,0.2'"),
    "problem-file": ("decide --problem notes.txt --set set.json", "--problem notes.txt is "
                     "not JSON: Expecting value: line 1 column 1 (char 0)"),
    "set-file": ("decide --problem prob.json --set notes.txt", "--set notes.txt is not "
                 "JSON: Expecting value: line 1 column 1 (char 0)"),
}

_MISSING_FLAG_CALLS = {
    family: (f"{command} --family {family} " + (
        "--grid=-1:1:1 --out x.csv" if command == "fuzzy" else "--alpha 0.05"),
        f"{family} needs {flags}") for (command, family), flags in _MISSING_FLAGS.items()}


def _write_documents(work, documents):
    work.mkdir(parents=True, exist_ok=True)
    for name, doc in documents.items():
        (work / name).write_text(doc if isinstance(doc, str) else json.dumps(doc))


def _failing_calls_test(rows):
    # a test that runs each row of a table of documented failures; a failure
    # exits with its code and prints its one error line and nothing else: no
    # output, no file left behind, no warning
    @pytest.mark.parametrize("argv, code, message, documents",
                             [_row(*row) for row in rows.values()], ids=list(rows))
    def test(tmp_path, monkeypatch, capsys, argv, code, message, documents):
        _write_documents(tmp_path, documents)
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == code
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(documents)
        assert caught == []
    return test


test_failing_call = _failing_calls_test(_FAILING_CALLS)
test_validate_n_below_one_exits_2 = _failing_calls_test(_N_BELOW_ONE_CALLS)
test_mode_and_parameter_checks_exit_2 = _failing_calls_test(_MODE_AND_PARAMETER_CALLS)
test_flags_and_utilities_a_choice_does_not_take_exit_2 = _failing_calls_test(_UNTAKEN_FLAG_CALLS)
test_parse_errors_name_what_they_parse = _failing_calls_test(_PARSE_ERROR_CALLS)
test_closed_form_family_names_every_missing_flag = _failing_calls_test(_MISSING_FLAG_CALLS)


def test_missing_flag_rows_cover_every_closed_form_family():
    fuzzy = {family for command, family in _MISSING_FLAGS if command == "fuzzy"}
    assert fuzzy == set(cli._FUZZY_FAMILIES) - {"conformal"}


_CURVE_FAMILIES = [family for family in cli._FUZZY_FAMILIES if family != "conformal"]
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


def _ok(argv, want, documents=None, pins=None):
    return argv.split(), want, {**_DOCUMENTS, **(documents or {})}, pins or {}


def _curve(family, grid, name, pins=None, **args):
    """A closed-form fuzzy call given ``args`` as flags; its library set is
    the family's public scalar function at each grid point."""
    _, flags, utility = cli._FUZZY_FAMILIES[family]
    a = {**cli._DEFAULTS, **args}
    params = ",".join(f"{f}={a[f]}" if f == "n" else f"{f}={a[f]:g}" for f in flags)

    def want():
        points = PlugInGrid.from_spec(grid)
        evidence = tuple(_SCALAR_FAMILIES[family](z, a) for z in points.points)
        return fc.FuzzyConfidenceSet(points, evidence, (), f"{family}({params})", utility)
    return _ok(f"fuzzy --family {family} " + "".join(f"--{k} {v} " for k, v in args.items())
               + f"--grid={grid} --out {name}.csv --json {name}.json", want, pins=pins)


def _conformal(utility, grid, out, calib=_CALIB, header="", pins=None,
               ratio="gaussian-scale:0:1:3.5", alt=lambda: fc.gaussian_scale_ratio(0, 1, 3.5)):
    """A conformal fuzzy call; its library set is ``fuzzy_set`` of the
    calibration values under the alternative ``alt()``."""
    return _ok(f"fuzzy --family conformal --calib calib.csv --utility {utility} --ratio {ratio} "
               f"--grid={grid} {out}",
               lambda: fc.fuzzy_set(tuple(map(float, calib.split())), PlugInGrid.from_spec(grid),
                                    alt(), parse_utility(utility)),
               {"calib.csv": header + calib}, pins)


def _interval(family, *args):
    """The library document of an interval call: the family's function of
    ``args``, alpha last."""
    def want():
        lo, hi = getattr(fc, f"{family}_interval")(*args)
        return {"family": family, "lo": lo, "hi": hi, "alpha": args[-1]}
    return want


def _decided(mode, level=None, conf=_SET):
    """The library value of a decide call on prob.json and ``conf``: as-if
    at the level alpha, or the post-hoc ladder over the list of levels."""
    def want():
        problem, found = fc.DecisionProblem.from_json_doc(_PROBLEM), load_confidence_set(conf)
        if mode == "weighted":
            return fc.weighted_decision(problem, found)
        if mode == "as-if":  # over a fuzzy set, its sublevel set at alpha
            return fc.as_if_decision(problem, sublevel_set(found, level) if level else found)
        return {"mode": "post-hoc", "levels": [{"alpha": ld.alpha, **(
            ld.decision.to_json_doc() if ld.available else {"unavailable": True})}
            for ld in fc.post_hoc_decisions(problem, found, level)]}
    return want


def _mc(check, trials, seed, model, n, *alpha, params=None, utility="log",
        alt=lambda: fc.gaussian_scale_ratio(0, 1, 3.5)):
    """The library report of a validate call."""
    return lambda: getattr(fc, f"mc_validate_{check}")(
        fc.McConfig(trials, seed, model, params or {}), alt(), parse_utility(utility), n, *alpha)


_OVERFLOWING = "39.3\n" * 10  # ten calibration ratios whose sum overflows
_PASS = ("[PASS] evalue-validity: estimate=1.000000 bound=1.000000+3*SE(SE=0.000000) trials=2000 "
         "model=iid-gaussian n=5")
# the documented successes, each row id -> (argv, want, documents, pins):
# argv, split on whitespace, exits 0 in a directory of _DOCUMENTS updated by
# the documents; want() is the library value every output must equal, and
# pins maps an output ("stdout" or a file) to a pattern and the exact lines
# of that output that match it
_SUCCEEDING_CALLS = {
    # fuzzy: each closed-form family given every flag it reads
    **{f"curve-{family}": _curve(family, "-40:40:0.1", family, **{
        k: _CURVE_ARGS[k] for k in cli._FUZZY_FAMILIES[family][1]}) for family in _CURVE_FAMILIES},
    "gaussian-log-1201": _curve("gaussian-log", "-6:6:0.01", "g", tau=3.5,
                                pins={"g.csv": ("^0,", ["0,0.2857142857142857"])}),
    # the raw scale ratio overflows to +inf far out in the tails, written "inf"
    "gaussian-log-infinite-tails": _curve("gaussian-log", "-45:45:1", "f", tau=3.5, pins={
        "f.csv": (",inf$", [f"{z},inf" for z in (*range(-45, -39), *range(40, 46))])}),
    # {n:g} would print 1.23457e+06
    "np-composite-provenance": _curve(
        "gaussian-np-composite", "-1:1:1", "x", zbar=0.5, n=1234567, alpha=0.05, pins={
            "x.json": ("n=", ['    "alternative": '
                              '"gaussian-np-composite(zbar=0.5,sigma=1,n=1234567,alpha=0.05)",'])}),
    # lo + span * i / n overflowed at i = 3 on these finite points: exit 2
    "grid-near-the-float-range": _curve("gaussian-np", "1e308:1.7e308:1e307", "x", alpha=0.5),
    "conformal-log": _conformal("log", "-2:4:1", "--out c.csv", header="value\n"),
    "conformal-clipped-log": _conformal("clipped-log:0.1", "-1:1:1", "--out c.csv --json c.json"),
    "conformal-1201": _conformal("bounded-log:0.05", "-6:6:0.01", "--out c.csv --json c.json"),
    # a kernel: each grid point's bag, the calibration and the point, is one row
    "conformal-composite": _conformal(
        "bounded-log:0.05", "-6:6:0.01", "--out c.csv --json c.json",
        ratio="gaussian-composite:1:3.5", alt=lambda: fc.gaussian_composite_kernel(1, 3.5)),
    # ratios past the float range: the evidence read 0, 0, 0
    "ratio-sum-overflow": _conformal(
        "log", "39.1:39.3:0.1", "--out x.csv", _OVERFLOWING, pins={"x.csv": ("", [
            "z,evidence", "39.100000000000001,0.00082118308085107243",
            "39.200000000000003,0.029837245430473058", "39.299999999999997,1"])}),
    # r_z over the calibration maximum overflows: the curve was NaN (exit 2)
    "ratio-over-the-maximum": _conformal(
        "power:0.5", "37:38:1", "--out x.csv", "-5\n-5.1\n", ratio="gaussian-mean-shift:0:30",
        alt=lambda: fc.gaussian_mean_shift_ratio(0, 30), pins={"x.csv": ("", [
            "z,evidence", "37,3.0000000000000004", "38,3.0000000000000004"])}),
    # the first row's ratios under a cap and a floor: "orbit mean misses 1 by
    # nan" and "by inf" (exit 3); clipped-log is exact, bounded-log within 1 ulp
    "ratio-sum-overflow-bounded-log": _conformal(
        "bounded-log:0.1", "39.1:39.3:0.1", "--out x.csv", _OVERFLOWING, pins={"x.csv": ("", [
            "z,evidence", "39.100000000000001,0.00082118308085107233",
            "39.200000000000003,0.029837245430473058", "39.299999999999997,1"])}),
    "ratio-sum-overflow-clipped-log": _conformal(
        "clipped-log:0.1", "39.1:39.3:0.1", "--out x.csv", _OVERFLOWING, pins={"x.csv": ("", [
            "z,evidence", "39.100000000000001,0.10000000000000001",
            "39.200000000000003,0.10000000000000001", "39.299999999999997,1"])}),
    # interval
    "interval-simple": _ok("interval --family simple --alpha 0.05",
                           _interval("simple", 0.0, 1.0, 0.05),
                           pins={"stdout": ('"hi"', ['  "hi": 1.9599639845400545,'])}),
    "interval-composite": _ok(
        "interval --family composite --zbar 1.44 --n 3 --alpha 0.05 --out iv.json",
        _interval("composite", 1.44, 1.0, 3, 0.05),
        pins={"iv.json": ('"hi"', ['  "hi": 3.7031714681523438,'])}),
    # centred on the conditional mean mu + rho*(z_last - mu) = 1
    "interval-ar1": _ok(
        "interval --family ar1 --rho 0.5 --z-last 2 --alpha 0.05 --out iv.json",
        _interval("ar1", 0.0, 0.5, 2.0, 0.05), pins={"iv.json": (
            '"(lo|hi)"', ['  "hi": 2.9599639845400545,', '  "lo": -0.9599639845400545'])}),
    # decide
    "decide-weighted": _ok(f"{_DECIDE} set.json", _decided("weighted")),
    "decide-as-if": _ok(f"{_DECIDE} set.json --mode as-if --alpha 0.4", _decided("as-if", 0.4)),
    "decide-as-if-binary": _ok("decide --problem prob.json --set binary.json --mode as-if",
                               _decided("as-if", conf=_BINARY_SET)),
    "decide-post-hoc": _ok(f"{_DECIDE} set.json --mode post-hoc --levels 0.05,0.2,0.5",
                           _decided("post-hoc", [0.05, 0.2, 0.5])),
    # validate
    "validate-evalue": _ok(
        "validate --check evalue --model iid-gaussian --model-args mu=0,sigma=1 --utility log "
        "--n 5 --trials 5000 --seed 3 --out report.json",
        _mc("evalue", 5000, 3, "iid-gaussian", 5, params={"mu": 0.0, "sigma": 1.0})),
    "validate-coverage": _ok(
        "validate --check coverage --model iid-uniform --utility np:0.2 --alpha 0.2 --n 5 "
        "--trials 2000 --seed 4",
        _mc("coverage", 2000, 4, "iid-uniform", 5, 0.2, utility="np:0.2")),
    "validate-coverage-ar1": _ok(
        "validate --check coverage --alpha 0.1 --model iid-gaussian --n 5 --trials 1000 --seed 7 "
        "--ratio ar1:0:0.5:3.5 --out kernel.json",
        _mc("coverage", 1000, 7, "iid-gaussian", 5, 0.1, alt=lambda: fc.ar1_kernel(0, 0.5, 3.5))),
    # centred on the calibration mean alone, the kernel's evidence was no
    # e-value: this run printed [FAIL] with estimate 1.207 and exited 1
    "validate-evalue-composite": _ok(
        "validate --check evalue --ratio gaussian-composite:1:3.5 --model iid-gaussian --n 5 "
        "--trials 5000 --seed 3",
        _mc("evalue", 5000, 3, "iid-gaussian", 5,
            alt=lambda: fc.gaussian_composite_kernel(1, 3.5))),
    # the validators stream their trials in fixed blocks: this run once peaked
    # near 190 MiB, holding all 200k trials of 21 slots
    "validate-posthoc-200k": _ok(
        "validate --check posthoc --utility clipped-log:0.1 --model exchangeable-mixture --n 20 "
        "--trials 200000 --seed 7",
        _mc("posthoc", 200_000, 7, "exchangeable-mixture", 20, utility="clipped-log:0.1")),
    # sigma=0 makes every trial a tie: each e-value is exactly 1, SE is 0 and
    # the float mean lands one ulp above the bound
    "validate-tied-trials": _ok(
        "validate --model iid-gaussian --model-args mu=0,sigma=0 --n 5 --trials 2000 "
        "--out report.json",
        _mc("evalue", 2000, 20260801, "iid-gaussian", 5, params={"mu": 0.0, "sigma": 0.0}),
        pins={"stdout": ("", [_PASS]), "report.json": ('"(estimate|passed|se)"', [
            f'  "estimate": {math.nextafter(1.0, 2.0)!r},', '  "passed": true,', '  "se": 0.0,'])}),
}


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def _outputs(argv, value):
    """The text of each output of a succeeding call, its stdout and each file
    its --out or --json names, rendered from its library value."""
    named = {flag: argv[argv.index(flag) + 1] for flag in ("--out", "--json") if flag in argv}
    doc = json.dumps(value if isinstance(value, dict) else value.to_json_doc(), indent=2,
                     sort_keys=True, allow_nan=False) + "\n"
    if argv[0] == "fuzzy":
        csv = io.StringIO()
        value.to_csv(csv)
        stdout, texts = "", {"--out": csv.getvalue(), "--json": doc}
    else:  # the document goes to --out, or else to stdout; validate prints its summary line
        stdout = value.summary_line() + "\n" if argv[0] == "validate" else "" if named else doc
        texts = {"--out": doc}
    return {"stdout": stdout, **{name: texts[flag] for flag, name in named.items()}}


@pytest.mark.parametrize("argv, want, documents, pins", list(_SUCCEEDING_CALLS.values()),
                         ids=list(_SUCCEEDING_CALLS))
def test_succeeding_call(tmp_path, monkeypatch, capsys, argv, want, documents, pins):
    # a success exits 0 with nothing on stderr and no warning, writes exactly
    # the files it names, and writes the same bytes when rerun in a fresh
    # directory; every output equals its library value's rendering and holds
    # the row's pinned lines, every JSON output is strict, and a CSV equals
    # the JSON document written with it
    runs = []
    for work in (tmp_path / "first", tmp_path / "rerun"):
        _write_documents(work, documents)
        before = {p.name: p.read_bytes() for p in work.iterdir()}
        monkeypatch.chdir(work)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 0
        out, err = capsys.readouterr()
        assert (err, caught) == ("", [])
        runs.append({"stdout": out, **{p.name: p.read_bytes().decode() for p in work.iterdir()
                                       if p.read_bytes() != before.get(p.name)}})
    outputs = runs[0]
    assert runs[1] == outputs
    assert outputs == _outputs(argv, want())
    docs = {name: json.loads(text, parse_constant=_reject_constant)  # every JSON output
            for name, text in outputs.items() if text.startswith("{")}
    if "--json" in argv:
        doc = docs[argv[argv.index("--json") + 1]]
        rows = [line.split(",") for line in outputs[argv[argv.index("--out") + 1]].splitlines()[1:]]
        assert [(float(z), float(e)) for z, e in rows] == \
            [(z, float(e)) for z, e in zip(doc["grid"], doc["evidence"])]
        # its level-0.05 binary set round-trips through strict JSON too
        binary = sublevel_set(load_confidence_set(doc), 0.05)
        text = json.dumps(binary.to_json_doc(), allow_nan=False)
        assert load_confidence_set(json.loads(text, parse_constant=_reject_constant)) == binary
    for name, (pattern, lines) in pins.items():
        assert [line for line in outputs[name].splitlines() if re.search(pattern, line)] == lines


def _call(name):
    """The argv, exit code and documents of the row with this id in
    _SUCCEEDING_CALLS or _FAILING_CALLS."""
    if name in _SUCCEEDING_CALLS:
        argv, _, documents, _ = _SUCCEEDING_CALLS[name]
        return argv, 0, documents
    argv, code, _, documents = _row(*_FAILING_CALLS[name])
    return argv, code, documents


# the package's own source directory first on the path of a child process
_SRC_PATH = os.pathsep.join(p for p in (str(Path(fc.__file__).resolve().parents[1]),
                                        os.environ.get("PYTHONPATH")) if p)

# The one probe of process-level behaviour: a fresh interpreter runs each call
# through cli.main, or one call through the process entry as `python -m
# fuzzyconf` does, each in its own directory. At exit it writes a JSON report
# outside them, which leaves the calls' own streams and files untouched.
_PROBE = textwrap.dedent("""
    import sys
    report_path, blocked, entry, calls = sys.argv[1:]
    if blocked:
        sys.modules[blocked] = None  # any import of it now raises ImportError
    import atexit, gc, json, os, re, runpy

    def status(field):
        # VmHWM is this process's own peak RSS in KiB; ru_maxrss would count
        # the memory of the parent it forked from
        try:
            with open("/proc/self/status") as fh:
                return re.search(rf"^{field}:\\s+(\\d+)", fh.read(), re.M)[1]
        except OSError:
            return None

    report = {"codes": [], "threads": []}

    def finished(code):
        report["codes"].append(code)
        report["threads"].append(status("Threads"))

    @atexit.register
    def write_report():
        report.update(modules=sorted(m for m, mod in sys.modules.items() if mod is not None),
                      gc=[gc.isenabled(), gc.get_freeze_count()],
                      peak_kib=int(status("VmHWM") or 0),
                      openblas=os.environ.get("OPENBLAS_NUM_THREADS"))
        with open(report_path, "w") as fh:
            json.dump(report, fh)

    if entry:
        [[directory, argv]] = json.loads(calls)
        os.chdir(directory)
        sys.argv = ["fuzzyconf", *argv]
        try:
            runpy.run_module("fuzzyconf", run_name="__main__")
        except SystemExit as stop:
            finished(stop.code)
            raise
    else:
        from fuzzyconf.cli import main
        for directory, argv in json.loads(calls):
            os.chdir(directory)
            finished(main(argv))
""")


def _probe(work, names, blocked="", entry=False, timeout=120, **env):
    """Run the calls with these ids in _SUCCEEDING_CALLS or _FAILING_CALLS by
    the probe, each in a directory of ``work`` holding its documents, with
    ``blocked`` unimportable and ``env`` for any BLAS thread count. Check the
    exit codes, one ``error:`` line per failing call and nothing else on
    stderr, and that no test tool loads; return the report with the streams
    ``out`` and ``err`` and, by id, the bytes of the ``files`` each call's
    directory holds."""
    calls = {name: _call(name) for name in names}
    for name, (_, _, documents) in calls.items():
        _write_documents(work / name, documents)
    codes = [code for _, code, _ in calls.values()]
    env = {**{k: v for k, v in os.environ.items() if k not in
              ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")},
           "PYTHONPATH": _SRC_PATH, **env}
    report_path = work.parent / f"{work.name}-report.json"
    argv = [report_path, blocked, "entry" if entry else "",
            json.dumps([[str(work / name), argv] for name, (argv, _, _) in calls.items()])]
    done = subprocess.run([sys.executable, "-c", _PROBE, *argv], cwd=work, capture_output=True,
                          text=True, env=env, timeout=timeout)
    assert done.returncode == (codes[0] if entry else 0), done.stderr
    report = json.loads(report_path.read_text())
    report_path.unlink()
    assert report["codes"] == codes, done.stderr
    assert [line.startswith("error: ") for line in done.stderr.splitlines()] == \
        [True] * (len(codes) - codes.count(0)), done.stderr
    assert not {m.split(".")[0] for m in report["modules"]} & {"pytest", "_pytest", "hypothesis"}
    return {**report, "out": done.stdout, "err": done.stderr,
            "files": {name: {p.name: p.read_bytes() for p in sorted((work / name).iterdir())}
                      for name in names}}


@pytest.fixture(scope="module")
def probe(tmp_path_factory):
    """``_probe`` in a fresh directory, run once for each distinct set of
    arguments that this module's tests pass it."""
    runs = {}

    def run(*args, **options):
        key = json.dumps([args, options], sort_keys=True)
        if key not in runs:
            runs[key] = _probe(tmp_path_factory.mktemp("probe") / "work", *args, **options)
        return runs[key]
    return run


@pytest.mark.parametrize("grid", ["0:1:1e-300", "0:1:1e-7", "0:1e308:1e-308"])
def test_grid_point_count_is_capped(probe, grid):
    # a child with a timeout: the cap once failed by growing until killed
    report = probe([f"grid-{grid}"], entry=True, timeout=30)
    assert MAX_GRID_POINTS == 10**7
    assert report["err"] == f"error: {_FAILING_CALLS[f'grid-{grid}'][1]}\n"


@pytest.mark.parametrize("family, flags, edge", [
    ("simple", ["--mu=-0.4", "--sigma", "0.5", "--alpha", "0.05"], "lo"),
    ("simple", ["--mu=-0.4", "--sigma", "0.5", "--alpha", "0.05"], "hi"),
    ("composite", ["--zbar=-0.4", "--sigma", "1", "--n", "3", "--alpha", "0.1"], "lo"),
    ("composite", ["--zbar=-0.4", "--sigma", "1", "--n", "3", "--alpha", "0.1"], "hi"),
])
def test_np_curve_keeps_its_interval_endpoint(tmp_path, capsys, family, flags, edge):
    # the printed endpoint is a grid point of the NP family's curve, with
    # evidence 0; at lo the step once read 1/alpha (20 and 10)
    assert run(["interval", "--family", family, *flags]) == 0
    z = json.loads(capsys.readouterr().out)[edge]
    np_family = {"simple": "gaussian-np", "composite": "gaussian-np-composite"}[family]
    grid = f"--grid={z}:{z + 1}:0.5" if edge == "lo" else f"--grid={z - 1}:{z}:0.5"
    assert run(["fuzzy", "--family", np_family, *flags, grid, "--out", tmp_path / "x.csv"]) == 0
    rows = [line.split(",") for line in (tmp_path / "x.csv").read_text().splitlines()[1:]]
    assert {float(x): e for x, e in rows}[z] == "0"


@pytest.mark.parametrize("family", _CURVE_FAMILIES)
def test_closed_form_curve_checks_once_and_equals_the_scalar_functions(tmp_path, monkeypatch,
                                                                      family):
    # the curve checks its parameters once, not once or twice per grid point;
    # its row, test_succeeding_call[curve-<family>], holds every point to the
    # public scalar function's value
    from fuzzyconf import gaussian

    checks = []
    check = gaussian._check
    monkeypatch.setattr(gaussian, "_check", lambda *a, **k: checks.append(1) or check(*a, **k))
    monkeypatch.chdir(tmp_path)
    assert main(_SUCCEEDING_CALLS[f"curve-{family}"][0]) == 0
    assert 1 <= len(checks) <= 4


def test_exit_code_follows_the_error_class(monkeypatch, capsys):
    # a numeric failure exits 3 and any other package error exits 2, by
    # class; the documented numeric failures are the four below
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.FuzzyconfError)]
    numeric = {c.__name__ for c in classes if issubclass(c, errors.NumericFailure)}
    assert numeric == {"NumericFailure", "AllZeroRatioError", "NormalizationFailureError",
                       "EmptyConfidenceSetError", "AllInfiniteRiskError"}
    for cls in classes:
        def fail(args, cls=cls):
            raise cls("failed on purpose")

        monkeypatch.setattr(cli, "cmd_interval", fail)
        code = run(["interval", "--family", "simple", "--alpha", 0.05])
        assert code == (3 if issubclass(cls, errors.NumericFailure) else 2), cls.__name__
        assert capsys.readouterr().err == "error: failed on purpose\n"


def test_calibration_reader(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("z\n1.0\n\n2.0\n")
    from fuzzyconf.cli import _read_calibration

    assert _read_calibration(str(path)) == (1.0, 2.0)
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0\noops\n")
    with pytest.raises(ValueError):
        _read_calibration(str(bad))
    # a non-finite line was once read, then rejected without its file or line
    for text in ("nan", "inf"):
        bad.write_text(f"z\n1.0\n\n{text}\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(bad))}:4: not a finite number: '{text}'$"):
            _read_calibration(str(bad))
    empty = tmp_path / "empty.csv"
    empty.write_text("header\n")
    with pytest.raises(ValueError):
        _read_calibration(str(empty))


def test_calibration_reader_keeps_the_first_value_after_a_byte_order_mark(tmp_path):
    # float("\ufeff5.0") fails, and the first value was dropped as a header
    from fuzzyconf.cli import _read_calibration

    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf5.0\n0.1\n-0.3\n")
    assert _read_calibration(str(path)) == (5.0, 0.1, -0.3)
    path.write_bytes(b"\xef\xbb\xbfz\n0.1\n")
    assert _read_calibration(str(path)) == (0.1,)


def test_calibration_header_is_the_first_non_blank_line(tmp_path):
    from fuzzyconf.cli import _read_calibration

    path = tmp_path / "c.csv"
    path.write_text("\n  \nz\n1.0\n2.0\n")
    assert _read_calibration(str(path)) == (1.0, 2.0)
    path.write_text("\nz\n1.0\nw\n")
    with pytest.raises(ValueError, match=r":4: not a number: 'w'$"):
        _read_calibration(str(path))


_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1e308, -1e308, "inf", "-inf"]), st.text(),
)
_JSON_DOCS = st.recursive(
    _JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=6) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=5)
                   | st.dictionaries(st.integers(), inner, max_size=3)),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_DOCS)
@example({"evidence": ["inf", 0.5, -0.0], "grid": [-1.0, 5e-324, 1e308], "kind": "fuzzy",
          "provenance": {"alternative": "gaussian-log(\u03c3=1)", "utility": "log"},
          "levels": [{"alpha": 0.1, "unavailable": True}, {}, []], "calibration": []})
def test_json_writer_matches_the_indenting_encoder(doc):
    assert cli._json_text(doc) == json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


@pytest.mark.parametrize("doc", [{"a": [1.0, math.inf]}, {"a": [[-math.inf]]}, [math.nan],
                                 {"b": {"c": math.inf}}, {"d": {1: [math.nan]}}])
def test_json_writer_rejects_non_finite_floats(tmp_path, doc):
    with pytest.raises(ValueError, match="^Out of range float values are not JSON compliant"):
        cli._write_json(str(tmp_path / "doc.json"), doc)


def test_json_writer_writes_the_text_and_a_newline(tmp_path):
    doc = fc.FuzzyConfidenceSet(PlugInGrid.from_spec("-6:6:0.01"), (1.0,) * 1201, (0.5,),
                                "alt", "log").to_json_doc()
    cli._write_json(str(tmp_path / "doc.json"), doc)
    assert (tmp_path / "doc.json").read_bytes() == \
        (json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()


# the rows that the probe runs in fresh interpreters below, by id: every
# subcommand; interval and the closed-form fuzzy families, which compute with
# math alone, also on the way to their errors; and every decide mode on a set,
# with a malformed problem
_EVERY_SUBCOMMAND = ["interval-composite", "curve-gaussian-bounded-log", "conformal-clipped-log",
                     "decide-weighted", "decide-as-if", "decide-post-hoc", "validate-evalue",
                     "validate-coverage-ar1"]
_CLOSED_FORM = ["interval-simple", "interval-composite", "interval-ar1", "interval-mu-nan",
                *(f"curve-{family}" for family in _CURVE_FAMILIES), "scale-product-gaussian-log"]
_DECIDE_CALLS = ["decide-weighted", "decide-as-if", "decide-as-if-binary", "decide-post-hoc",
                 "loss-number"]


@pytest.mark.parametrize("blocked, names", [("scipy", _EVERY_SUBCOMMAND),
                                            ("numpy", _CLOSED_FORM),
                                            ("dataclasses", _CLOSED_FORM),
                                            ("inspect", _CLOSED_FORM),
                                            ("dataclasses", _DECIDE_CALLS),
                                            ("numpy", _DECIDE_CALLS),
                                            ("inspect", _DECIDE_CALLS),
                                            ("fuzzyconf.reference", _EVERY_SUBCOMMAND)],
                         ids=["scipy", "numpy", "dataclasses", "inspect", "dataclasses-decide",
                              "numpy-decide", "inspect-decide", "reference"])
def test_cli_runs_without(probe, blocked, names):
    # with the module unimportable every call still exits as it does
    # unblocked, loads none of it, and writes exactly what an unblocked run
    # writes, errors included; without the reference, every subcommand's
    # evidence comes from the production core
    done = probe(names, blocked=blocked)
    assert [m for m in done["modules"] if m == blocked or m.startswith(blocked + ".")] == []
    reference = probe(names)
    assert (done["out"], done["err"], done["files"]) == \
        (reference["out"], reference["err"], reference["files"])


def test_conformal_fuzzy_loads_only_its_engine(probe, module_entry):
    # an iid ratio's set and a kernel's bags alike run on the engine alone
    for name in ("conformal-clipped-log", "conformal-composite"):
        modules = set((module_entry.get(name) or probe([name], entry=True))["modules"])
        assert {"fuzzyconf.confidence", "fuzzyconf.alternatives", "fuzzyconf.evalues",
                "fuzzyconf.sets"} <= modules, name
        assert not modules & {"fuzzyconf.harness", "fuzzyconf.decisions", "fuzzyconf.gaussian",
                              "numpy.random"}, name


def test_validity_coverage_and_posthoc_checks_load_no_decisions(probe):
    # only the decision-risk validator decides, and it imports decisions itself
    report = probe(["validate-evalue", "validate-coverage", "validate-posthoc-200k"])
    modules = set(report["modules"])
    assert {"fuzzyconf.harness", "fuzzyconf.confidence"} <= modules
    assert "fuzzyconf.decisions" not in modules


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
    for name in ("normalization_lambda", "np_threshold", "DataTuple", "rank_of_last",
                 "kernel_alternative", "numerical_utility_oracle", "brute_force_conditional_lr"):
        assert not hasattr(fc, name), name


def test_no_module_imports_the_reference():
    # the per-orbit path and the oracles are compared against, never run by
    # a pipeline; only the package namespace resolves names from reference
    for path in sorted(Path(fc.__file__).parent.glob("*.py")):
        if path.name == "reference.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                names = [module] + [f"{module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            assert all(name.split(".")[-1] != "reference" for name in names), (path.name, names)


# The process entry: `python -m fuzzyconf` and the `fuzzyconf` command run
# `cli.run`, which turns the cyclic collector off and freezes the heap before
# exit; `cli.main` in process leaves the collector as it found it.

_ENTRY_CALLS = ["conformal-clipped-log", "validate-evalue", "interval-simple", "decide-post-hoc",
                "grid-0:1:1e-300", "bounded-log-tiny-alpha", "conformal-bounded-log-tiny-alpha"]


@pytest.fixture(scope="module")
def module_entry(tmp_path_factory):
    """The probe report of each of _ENTRY_CALLS run through the process entry."""
    return {name: _probe(tmp_path_factory.mktemp("entry"), [name], entry=True)
            for name in _ENTRY_CALLS}


# the bound on each call's own peak RSS, in MiB: the calls that load no numpy
# are mostly interpreter start, and a conformal set at the bench's G = 1201
# mostly numpy's import
@pytest.mark.parametrize("name, peak_mib", [
    ("conformal-clipped-log", 96), ("validate-evalue", 96), ("validate-posthoc-200k", 96),
    ("interval-simple", 20), ("decide-post-hoc", 20), ("gaussian-log-1201", 20),
    ("conformal-1201", 40),
], ids=["fuzzy", "validate", "validate-posthoc-200k", "interval", "decide-post-hoc",
        "gaussian-log", "conformal-1201"])
def test_module_entry_runs_without_the_collector(probe, module_entry, name, peak_mib):
    report = module_entry.get(name) or probe([name], entry=True)
    assert report["gc"][0] is False and report["gc"][1] > 0, report["gc"]
    assert report["peak_kib"] < peak_mib * 1024, f"peak RSS {report['peak_kib']} KiB"


def test_in_process_main_keeps_the_gc_state(tmp_path, monkeypatch):
    # only the process entry turns the collector off; main, whatever its exit
    # code, leaves it as it was
    state = gc.isenabled(), gc.get_freeze_count()
    for name in _ENTRY_CALLS:
        argv, code, documents = _call(name)
        _write_documents(tmp_path / name, documents)
        monkeypatch.chdir(tmp_path / name)
        assert main(argv) == code, name
    assert (gc.isenabled(), gc.get_freeze_count()) == state


def _cyclic_garbage(args) -> int:
    """Objects the collector frees after one in-process ``main`` call run
    with the collector off, as under ``cli.run``."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert run(args) == 0
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def _validate_trials(ratio):
    return lambda trials: ["validate", "--check", "coverage", "--alpha", 0.1, "--model",
                           "iid-gaussian", "--ratio", ratio, "--n", 20, "--trials", trials,
                           "--seed", 3]


@pytest.mark.parametrize("call, small, large", [
    (_validate_trials("gaussian-scale:0:1:3.5"), 2_000, 20_000),
    (_validate_trials("ar1:0:0.5:3.5"), 2_000, 20_000),
    (lambda step: ["fuzzy", "--family", "conformal", "--calib", "calib.csv", "--utility",
                   "bounded-log:0.05", "--ratio", "gaussian-scale:0:1:3.5",
                   f"--grid=-6:6:{step}", "--out", "c.csv", "--json", "c.json"], 0.1, 0.001),
    (lambda levels: ["decide", "--problem", "prob.json", "--set", "set.json", "--mode",
                     "post-hoc", "--levels", ",".join(f"{(i + 1) / levels:.6g}"
                                                      for i in range(levels)),
                     "--out", "cert.json"], 3, 30),
], ids=["validate-gaussian-scale", "validate-ar1", "fuzzy-conformal", "decide-post-hoc"])
def test_cyclic_garbage_does_not_grow_with_the_work(tmp_path, monkeypatch, call, small, large):
    # cli.run never collects, so the cyclic garbage of a call must stay O(1)
    # whatever its trial count, grid size or ladder length
    (tmp_path / "calib.csv").write_text(_CALIB)
    monkeypatch.chdir(tmp_path)
    grid = PlugInGrid.from_spec("-1:1:0.1").points
    (tmp_path / "prob.json").write_text(json.dumps(
        {"decisions": ["hold", "act"], "outcomes": grid,
         "loss": [[1.0] * len(grid), [min(z * z, 0.8) for z in grid]]}))
    assert run(["fuzzy", "--family", "conformal", "--calib", "calib.csv", "--utility", "log",
                "--ratio", "gaussian-scale:0:1:3.5", "--grid=-1:1:0.1", "--out", "s.csv",
                "--json", "set.json"]) == 0
    _cyclic_garbage(call(small))  # imports the handler's modules first
    few, many = _cyclic_garbage(call(small)), _cyclic_garbage(call(large))
    assert few < 1000 and many <= few + 16, (few, many)


def test_module_entry_matches_in_process_main(tmp_path, capsys, monkeypatch, module_entry):
    # the process entry changes only the collector: every file, stream and
    # exit code equals an in-process main call's (exit 1 is covered in process
    # by test_failed_check_exits_1)
    for name, report in module_entry.items():
        argv, _, documents = _call(name)
        _write_documents(tmp_path / name, documents)
        monkeypatch.chdir(tmp_path / name)
        code = main(argv)
        files = {p.name: p.read_bytes() for p in sorted((tmp_path / name).iterdir())}
        assert (report["codes"], report["out"], report["err"], report["files"][name]) == \
            ([code], *capsys.readouterr(), files), name


def test_console_script_is_the_process_entry():
    # read with a regex: Python 3.10 has no tomllib
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?:^\[|\Z)", text, re.M | re.S)
    assert scripts, "pyproject.toml has no [project.scripts] table"
    assert re.findall(r'^fuzzyconf\s*=\s*"([^"]*)"', scripts[1], re.M) == ["fuzzyconf.cli:run"]
    assert callable(cli.run)


def _numpy_blas_is_openblas():
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 reports no build dependencies
        return False
    return "openblas" in str(blas.get("name", "")).lower()


_NUMPY_CALLS = ["conformal-1201", "validate-evalue"]

_openblas_only = pytest.mark.skipif(
    not (os.path.exists("/proc/self/status") and _numpy_blas_is_openblas()),
    reason="needs /proc/self/status and a numpy built against OpenBLAS")


@_openblas_only
def test_numpy_calls_start_no_blas_threads(probe):
    # numpy's OpenBLAS would start a busy-waiting worker per extra CPU at
    # import; the command line does no BLAS work and asks it for none
    report = probe(_NUMPY_CALLS)
    assert (report["threads"], report["openblas"]) == (["1", "1"], "1")


@_openblas_only
def test_exported_blas_thread_count_is_kept(probe):
    report = probe(_NUMPY_CALLS, OPENBLAS_NUM_THREADS="2")
    assert report["openblas"] == "2"
    if len(os.sched_getaffinity(0)) >= 2:  # OpenBLAS starts no more threads than CPUs
        assert report["threads"] == ["2", "2"]


@_openblas_only
def test_blas_thread_count_leaves_outputs_unchanged(probe):
    single = probe(_NUMPY_CALLS)["files"]
    exported = probe(_NUMPY_CALLS, OPENBLAS_NUM_THREADS="2")["files"]
    assert "c.json" in single["conformal-1201"] and "report.json" in single["validate-evalue"]
    assert single == exported
