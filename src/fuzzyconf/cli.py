"""Command-line front end.

Subcommands:

* ``fuzzy`` evaluates a fuzzy confidence set over a grid (conformal from
  calibration data, or a closed-form Gaussian family) and writes curve data
  as CSV and optionally a JSON document;
* ``interval`` prints a closed-form Gaussian prediction interval;
* ``decide`` computes a certified minimax decision from a decision problem
  and a serialized confidence set;
* ``validate`` runs a seeded Monte-Carlo guarantee check.

Outputs are deterministic given the same flags and seed: floats render with
17 significant digits, JSON keys are sorted, newlines are fixed.

Each subcommand imports only the modules it computes with, so ``interval``
and the closed-form ``fuzzy`` families run without numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING, Optional

from .errors import FuzzyconfError

if TYPE_CHECKING:
    from . import alternatives, evalues, sets

EXIT_OK = 0
EXIT_CHECK_FAILED = 1  # a validate run printed [FAIL]
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

_GAUSSIAN_FAMILIES = (
    "gaussian-log",
    "gaussian-log-composite",
    "gaussian-bounded-log",
    "gaussian-bounded-log-composite",
    "gaussian-np",
    "gaussian-np-composite",
)


def parse_utility(spec: str) -> evalues.UtilitySpec:
    """Parse a utility spec: log | power:H | np:A | bounded-log:A |
    clipped-log:B | dampened:B:INNER."""
    from . import evalues

    head, _, rest = spec.partition(":")
    if head == "log":
        if rest:
            raise ValueError("log takes no parameters")
        return evalues.Log()
    if head == "power":
        return evalues.Power(h=float(rest))
    if head == "np":
        return evalues.NeymanPearson(alpha=float(rest))
    if head == "bounded-log":
        return evalues.BoundedLog(alpha=float(rest))
    if head == "clipped-log":
        return evalues.ClippedLog(b=float(rest))
    if head == "dampened":
        b, _, inner = rest.partition(":")
        if not inner:
            raise ValueError("dampened needs an inner utility, e.g. dampened:0.1:log")
        return evalues.Dampened(b=float(b), inner=parse_utility(inner))
    raise ValueError(f"unknown utility {spec!r}")


def parse_ratio(spec: str) -> alternatives.AlternativeSpec:
    """Parse a named built-in alternative with numeric parameters."""
    from . import alternatives

    parts = spec.split(":")
    name, args = parts[0], [float(x) for x in parts[1:]]
    if name == "gaussian-mean-shift":
        if len(args) not in (2, 3):
            raise ValueError("gaussian-mean-shift:MU:DELTA[:SIGMA]")
        return alternatives.gaussian_mean_shift_ratio(*args)
    if name == "gaussian-scale":
        if len(args) != 3:
            raise ValueError("gaussian-scale:MU:SIGMA:TAU")
        return alternatives.gaussian_scale_ratio(*args)
    if name == "ar1":
        if len(args) != 3:
            raise ValueError("ar1:MU:RHO:TAU")
        return alternatives.ar1_kernel(*args)
    if name == "gaussian-composite":
        if len(args) != 2:
            raise ValueError("gaussian-composite:SIGMA:TAU")
        return alternatives.gaussian_composite_kernel(*args)
    raise ValueError(f"unknown ratio {spec!r}")


def _read_calibration(path: str) -> tuple[float, ...]:
    """Single-column CSV of reals; a non-numeric first line is a header."""
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh):
            text = line.strip()
            if not text:
                continue
            try:
                values.append(float(text))
            except ValueError:
                if lineno == 0:
                    continue  # header
                raise ValueError(f"{path}:{lineno + 1}: not a number: {text!r}")
    if not values:
        raise ValueError(f"{path}: no calibration values")
    return tuple(values)


def _write_json(path: Optional[str], doc: dict) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _gaussian_curve(args, grid: sets.PlugInGrid) -> sets.FuzzyConfidenceSet:
    from . import gaussian, sets

    fam = args.family
    mu, sigma, tau, alpha, n, zbar = args.mu, args.sigma, args.tau, args.alpha, args.n, args.zbar
    # each family checks its parameters once and returns its per-point core
    if fam == "gaussian-log":
        fn = gaussian._log_curve(mu, sigma, tau)
        name = f"gaussian-log(mu={mu:g},sigma={sigma:g},tau={tau:g})"
    elif fam == "gaussian-log-composite":
        fn = gaussian._composite_log_curve(zbar, sigma, tau, n)
        name = f"gaussian-log-composite(zbar={zbar:g},sigma={sigma:g},tau={tau:g},n={n})"
    elif fam == "gaussian-bounded-log":
        fn = gaussian._bounded_log_curve(mu, sigma, tau, alpha)
        name = f"gaussian-bounded-log(mu={mu:g},sigma={sigma:g},tau={tau:g},alpha={alpha:g})"
    elif fam == "gaussian-bounded-log-composite":
        fn = gaussian._composite_bounded_log_curve(zbar, sigma, tau, n, alpha)
        name = (f"gaussian-bounded-log-composite(zbar={zbar:g},sigma={sigma:g},"
                f"tau={tau:g},n={n},alpha={alpha:g})")
    elif fam == "gaussian-np":
        fn = gaussian._np_curve(mu, sigma, alpha)
        name = f"gaussian-np(mu={mu:g},sigma={sigma:g},alpha={alpha:g})"
    elif fam == "gaussian-np-composite":
        fn = gaussian._composite_np_curve(zbar, sigma, n, alpha)
        name = f"gaussian-np-composite(zbar={zbar:g},sigma={sigma:g},n={n},alpha={alpha:g})"
    else:
        raise ValueError(f"unknown family {fam!r}")
    evidence = tuple(map(fn, grid.points))
    utility = "np" if "np" in fam else ("bounded-log" if "bounded" in fam else "log")
    return sets.FuzzyConfidenceSet(grid, evidence, (), name, utility)


def cmd_fuzzy(args) -> int:
    from .sets import PlugInGrid

    grid = PlugInGrid.from_spec(args.grid)
    if args.family == "conformal":
        if not args.calib or not args.utility or not args.ratio:
            raise ValueError("conformal needs --calib, --utility and --ratio")
        from .confidence import fuzzy_set

        calib = _read_calibration(args.calib)
        fset = fuzzy_set(calib, grid, parse_ratio(args.ratio), parse_utility(args.utility))
    else:
        _check_gaussian_args(args)
        fset = _gaussian_curve(args, grid)
    fset.to_csv(args.out)
    if args.json:
        _write_json(args.json, fset.to_json_doc())
    return EXIT_OK


def _check_gaussian_args(args) -> None:
    fam = args.family
    needs_tau = "log" in fam
    needs_alpha = "np" in fam or "bounded" in fam
    composite = "composite" in fam
    if needs_tau and args.tau is None:
        raise ValueError(f"{fam} needs --tau")
    if needs_alpha and args.alpha is None:
        raise ValueError(f"{fam} needs --alpha")
    if composite and (args.n is None or args.zbar is None):
        raise ValueError(f"{fam} needs --n and --zbar")


def cmd_interval(args) -> int:
    from . import gaussian

    if args.family == "simple":
        lo, hi = gaussian.simple_interval(args.mu, args.sigma, args.alpha)
    elif args.family == "composite":
        if args.n is None or args.zbar is None:
            raise ValueError("composite needs --n and --zbar")
        lo, hi = gaussian.composite_interval(args.zbar, args.sigma, args.n, args.alpha)
    elif args.family == "ar1":
        if args.rho is None or args.z_last is None:
            raise ValueError("ar1 needs --rho and --z-last")
        lo, hi = gaussian.ar1_interval(args.mu, args.rho, args.z_last, args.alpha)
    else:
        raise ValueError(f"unknown family {args.family!r}")
    _write_json(args.out, {"family": args.family, "lo": lo, "hi": hi, "alpha": args.alpha})
    return EXIT_OK


def cmd_decide(args) -> int:
    from . import decisions, sets

    with open(args.problem, "r", encoding="utf-8") as fh:
        problem = decisions.DecisionProblem.from_json_doc(json.load(fh))
    with open(args.set, "r", encoding="utf-8") as fh:
        conf = sets.load_confidence_set(json.load(fh))

    if args.mode == "as-if":
        if isinstance(conf, sets.FuzzyConfidenceSet):
            if args.alpha is None:
                raise ValueError("as-if over a fuzzy set needs --alpha")
            conf = sets.sublevel_set(conf, args.alpha)
        cert = decisions.as_if_decision(problem, conf)
        doc = cert.to_json_doc()
    elif args.mode == "weighted":
        if not isinstance(conf, sets.FuzzyConfidenceSet):
            raise ValueError("weighted mode needs a fuzzy confidence set")
        cert = decisions.weighted_decision(problem, conf)
        doc = cert.to_json_doc()
    elif args.mode == "post-hoc":
        if not isinstance(conf, sets.FuzzyConfidenceSet):
            raise ValueError("post-hoc mode needs a fuzzy confidence set")
        if not args.levels:
            raise ValueError("post-hoc mode needs --levels")
        levels = [float(x) for x in args.levels.split(",")]
        ladder = decisions.post_hoc_decisions(problem, conf, levels)
        doc = {
            "mode": "post-hoc",
            "levels": [
                {"alpha": ld.alpha, "unavailable": True} if not ld.available
                else {"alpha": ld.alpha, **ld.decision.to_json_doc()}
                for ld in ladder
            ],
        }
    else:
        raise ValueError(f"unknown mode {args.mode!r}")
    _write_json(args.out, doc)
    return EXIT_OK


def cmd_validate(args) -> int:
    from . import harness

    params = {}
    if args.model_args:
        for kv in args.model_args.split(","):
            key, _, val = kv.partition("=")
            if not val:
                raise ValueError(f"model args must be key=value, got {kv!r}")
            params[key.strip()] = float(val)
    config = harness.McConfig(trials=args.trials, seed=args.seed, model=args.model, params=params)
    alt = parse_ratio(args.ratio)
    utility = parse_utility(args.utility)
    if args.check == "evalue":
        report = harness.mc_validate_evalue(config, alt, utility, args.n)
    elif args.check == "coverage":
        if args.alpha is None:
            raise ValueError("coverage check needs --alpha")
        report = harness.mc_validate_coverage(config, alt, utility, args.n, args.alpha)
    elif args.check == "posthoc":
        report = harness.mc_validate_posthoc(config, alt, utility, args.n)
    else:
        raise ValueError(f"unknown check {args.check!r}")
    print(report.summary_line())
    if args.out:
        _write_json(args.out, report.to_json_doc())
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzyconf",
        description="Fuzzy (e-value) prediction confidence sets and certified decisions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fuzzy = sub.add_parser("fuzzy", help="evaluate a fuzzy confidence set over a grid")
    p_fuzzy.add_argument("--family", required=True, choices=("conformal",) + _GAUSSIAN_FAMILIES)
    p_fuzzy.add_argument("--grid", required=True, help="min:max:step (inclusive endpoints)")
    p_fuzzy.add_argument("--calib", help="single-column CSV of calibration values")
    p_fuzzy.add_argument("--utility", help="log | power:H | np:A | bounded-log:A | "
                                           "clipped-log:B | dampened:B:INNER")
    p_fuzzy.add_argument("--ratio", help="gaussian-mean-shift:MU:DELTA[:SIGMA] | "
                                         "gaussian-scale:MU:SIGMA:TAU | ar1:MU:RHO:TAU | "
                                         "gaussian-composite:SIGMA:TAU")
    p_fuzzy.add_argument("--mu", type=float, default=0.0)
    p_fuzzy.add_argument("--sigma", type=float, default=1.0)
    p_fuzzy.add_argument("--tau", type=float)
    p_fuzzy.add_argument("--alpha", type=float)
    p_fuzzy.add_argument("--n", type=int)
    p_fuzzy.add_argument("--zbar", type=float)
    p_fuzzy.add_argument("--out", required=True, help="output CSV path")
    p_fuzzy.add_argument("--json", help="also write a JSON document here")
    p_fuzzy.set_defaults(func=cmd_fuzzy)

    p_int = sub.add_parser("interval", help="closed-form Gaussian prediction interval")
    p_int.add_argument("--family", required=True, choices=("simple", "composite", "ar1"))
    p_int.add_argument("--mu", type=float, default=0.0)
    p_int.add_argument("--sigma", type=float, default=1.0)
    p_int.add_argument("--alpha", type=float, required=True)
    p_int.add_argument("--n", type=int)
    p_int.add_argument("--zbar", type=float)
    p_int.add_argument("--rho", type=float)
    p_int.add_argument("--z-last", type=float, dest="z_last")
    p_int.add_argument("--out", help="output JSON path (default stdout)")
    p_int.set_defaults(func=cmd_interval)

    p_dec = sub.add_parser("decide", help="certified minimax decision from a confidence set")
    p_dec.add_argument("--problem", required=True, help="decision problem JSON")
    p_dec.add_argument("--set", required=True, help="serialized confidence set JSON")
    p_dec.add_argument("--mode", default="weighted", choices=("as-if", "weighted", "post-hoc"))
    p_dec.add_argument("--alpha", type=float)
    p_dec.add_argument("--levels", help="comma-separated level ladder for post-hoc")
    p_dec.add_argument("--out", help="output JSON path (default stdout)")
    p_dec.set_defaults(func=cmd_decide)

    p_val = sub.add_parser("validate", help="seeded Monte-Carlo guarantee check")
    p_val.add_argument("--check", default="evalue", choices=("evalue", "coverage", "posthoc"))
    p_val.add_argument("--model", required=True)
    p_val.add_argument("--model-args", help="comma-separated key=value model parameters")
    p_val.add_argument("--ratio", default="gaussian-scale:0:1:3.5")
    p_val.add_argument("--utility", default="log")
    p_val.add_argument("--alpha", type=float)
    p_val.add_argument("--n", type=int, default=10)
    p_val.add_argument("--trials", type=int, default=100_000)
    p_val.add_argument("--seed", type=int, default=20260801)
    p_val.add_argument("--out", help="output JSON path")
    p_val.set_defaults(func=cmd_validate)

    return parser


_NUMERIC_ERRORS = (
    "AllZeroRatioError", "NormalizationFailureError", "EmptyConfidenceSetError",
    "AllInfiniteRiskError", "ZeroDensityError",
)


def _merge_grid_flag(argv: list[str]) -> list[str]:
    # argparse rejects values like "-6:6:0.5" after a separate "--grid" token
    out, i = [], 0
    while i < len(argv):
        if argv[i] == "--grid" and i + 1 < len(argv):
            out.append(f"--grid={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv: Optional[list[str]] = None) -> int:
    # no subcommand calls a BLAS routine, so the OpenBLAS that numpy loads
    # need not start its worker threads, which busy-wait for about 0.1 s
    # after import; this acts only before numpy loads, and a value the user
    # exported is kept
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    args = parser.parse_args(_merge_grid_flag(list(argv if argv is not None else sys.argv[1:])))
    try:
        return args.func(args)
    except FuzzyconfError as exc:
        kind = type(exc).__name__
        print(f"error: {exc}", file=sys.stderr)
        if kind in _NUMERIC_ERRORS:
            return EXIT_NUMERIC
        return EXIT_VALIDATION
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
