"""Output checks run on every call the benchmark makes.

``check(call, exit_code, seed)`` returns the list of problems found; an
empty list means the call passed. Every document is parsed strictly (no
NaN or Infinity), evidence must be nonnegative, and results are recomputed
in process with the library's scalar functions:

* conformal curves at a few seeded grid points with ``evalue_at`` (NP must
  match exactly, other utilities within 1e-9 relative);
* closed-form Gaussian curves at every grid point with ``gaussian.*``;
* intervals with ``gaussian.*_interval``;
* decision certificates with ``decisions.*``;
* ``validate`` must print ``[PASS]``.
"""

from __future__ import annotations

import json
import math
import zlib

import numpy as np

import fuzzyconf as fc
from fuzzyconf import gaussian

SPOT_POINTS = 8
REL_TOL = 1e-9


def _reject_constant(name: str):
    raise ValueError(f"non-strict JSON constant {name}")


def _strict_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.loads(fh.read(), parse_constant=_reject_constant)


def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _utility(spec: str):
    head, _, arg = spec.partition(":")
    if head == "log":
        return fc.Log()
    return {"np": fc.NeymanPearson, "bounded-log": fc.BoundedLog,
            "power": fc.Power, "clipped-log": fc.ClippedLog}[head](float(arg))


def _ratio(spec: str):
    head, *args = spec.split(":")
    build = {"gaussian-scale": fc.gaussian_scale_ratio,
             "gaussian-composite": fc.gaussian_composite_kernel}[head]
    return build(*(float(a) for a in args))


def _curve(c: dict, problems: list[str]) -> tuple[list[float], list[float]]:
    """Read a CSV/JSON curve pair; both must agree and cover the grid."""
    with open(c["csv"], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if lines[0] != "z,evidence":
        problems.append(f"CSV header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:]]
    z = [float(a) for a, _ in rows]
    e = [float(b) for _, b in rows]
    lo, hi, step = (float(p) for p in c["grid"].split(":"))
    if len(z) != round((hi - lo) / step) + 1:
        problems.append(f"CSV has {len(z)} rows for grid {c['grid']}")
    doc = _strict_json(c["json"])
    if doc["grid"] != z or doc["evidence"] != e:
        problems.append("CSV and JSON curves differ")
    if not all(x >= 0.0 for x in e):
        problems.append("negative or NaN evidence")
    if not all(math.isfinite(x) for x in e):
        problems.append("non-finite evidence")
    return z, e


def _conformal(c: dict, rng: np.random.Generator, problems: list[str]) -> None:
    z, e = _curve(c, problems)
    if "lr_bound" in c and max(e) > c["lr_bound"]:
        problems.append(f"log evidence {max(e)!r} exceeds the LR bound {c['lr_bound']}")
    exact = c["utility"].startswith("np")
    alt, util = _ratio(c["ratio"]), _utility(c["utility"])
    for i in rng.choice(len(z), size=min(SPOT_POINTS, len(z)), replace=False):
        want = fc.evalue_at(c["calib"] + (z[i],), alt, util)
        if not (e[i] == want if exact else _close(e[i], want)):
            problems.append(f"evidence at z={z[i]!r} is {e[i]!r}, evalue_at gives {want!r}")


def _closed_form(c: dict, problems: list[str]) -> None:
    z, e = _curve(c, problems)
    mu, zbar, s, tau, a, n = c["mu"], c["zbar"], c["sigma"], c["tau"], c["alpha"], c["n"]
    fn = {
        "gaussian-log": lambda x: gaussian.gaussian_log_fuzzy(x, mu, s, tau),
        "gaussian-log-composite": lambda x: gaussian.gaussian_composite_log_fuzzy(
            x, zbar, s, tau, n),
        "gaussian-bounded-log": lambda x: gaussian.gaussian_bounded_log_fuzzy(x, mu, s, tau, a),
        "gaussian-bounded-log-composite": lambda x: gaussian.gaussian_composite_bounded_log_fuzzy(
            x, zbar, s, tau, n, a),
        "gaussian-np": lambda x: gaussian.gaussian_np_evalue(x, mu, s, a),
        "gaussian-np-composite": lambda x: gaussian.gaussian_composite_np_evalue(x, zbar, s, n, a),
    }[c["family"]]
    exact = "np" in c["family"]
    bad = [x for x, got in zip(z, e) if not (got == fn(x) if exact else _close(got, fn(x)))]
    if bad:
        problems.append(f"{len(bad)} grid points differ from gaussian.*, first at z={bad[0]!r}")


def _interval(c: dict, problems: list[str]) -> None:
    doc = _strict_json(c["stdout"])
    fam, a = c["family"], c["alpha"]
    if fam == "simple":
        want = gaussian.simple_interval(c["mu"], c["sigma"], a)
    elif fam == "composite":
        want = gaussian.composite_interval(c["zbar"], c["sigma"], c["n"], a)
    else:
        want = gaussian.ar1_interval(c["mu"], c["rho"], c["z_last"], a)
    if not (_close(doc["lo"], want[0]) and _close(doc["hi"], want[1])):
        problems.append(f"interval {doc['lo']!r}..{doc['hi']!r}, gaussian.* gives {want!r}")


def _same_certificate(doc: dict, cert, problems: list[str]) -> None:
    if doc["decision_index"] != cert.decision_index or doc["decision"] != cert.decision:
        problems.append(f"decision {doc['decision']!r}, decisions.* gives {cert.decision!r}")
    if not (doc["risk_bound"] >= 0.0 and _close(doc["risk_bound"], cert.risk_bound)):
        problems.append(f"risk bound {doc['risk_bound']!r}, decisions.* gives {cert.risk_bound!r}")


def _decide(c: dict, problems: list[str]) -> None:
    doc = _strict_json(c["stdout"])
    problem = fc.DecisionProblem.from_json_doc(_strict_json(c["problem"]))
    fuzzy = fc.load_confidence_set(_strict_json(c["set"]))
    if c["mode"] == "as-if":
        _same_certificate(doc, fc.as_if_decision(problem, fc.sublevel_set(fuzzy, c["alpha"])),
                          problems)
    elif c["mode"] == "weighted":
        _same_certificate(doc, fc.weighted_decision(problem, fuzzy), problems)
    else:
        ladder = fc.post_hoc_decisions(problem, fuzzy, c["levels"])
        if len(doc["levels"]) != len(ladder):
            problems.append("post-hoc ladder length differs")
        for rung, want in zip(doc["levels"], ladder):
            if rung.get("unavailable", False) != (not want.available):
                problems.append(f"availability differs at alpha={want.alpha}")
            elif want.available:
                _same_certificate(rung, want.decision, problems)


def check(call, exit_code: int, seed: int) -> list[str]:
    """Problems with one finished call's outputs; empty when it passed."""
    c = call.check
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    problems: list[str] = []
    try:
        if c["kind"] == "conformal":
            key = zlib.crc32(call.name.encode())
            _conformal(c, np.random.default_rng([seed, key]), problems)
        elif c["kind"] == "closed-form":
            _closed_form(c, problems)
        elif c["kind"] == "interval":
            _interval(c, problems)
        elif c["kind"] == "decide":
            _decide(c, problems)
        else:
            with open(c["stdout"], encoding="utf-8") as fh:
                if not fh.read().startswith("[PASS]"):
                    problems.append("validate did not print [PASS]")
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return problems
