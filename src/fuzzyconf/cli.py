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

Each subcommand imports only the modules it computes with, so ``interval``,
the closed-form ``fuzzy`` families and ``decide``, whose minimax rule runs
on Python floats, run without numpy.

``main`` parses and runs one call and returns its exit code; library callers
and tests use it in process. ``run`` is the process entry of the
``fuzzyconf`` command and ``python -m fuzzyconf``: it runs ``main`` with the
cyclic garbage collector off and freezes the heap before the process exits.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from typing import TYPE_CHECKING, Optional

from .errors import FuzzyconfError, NumericFailure

if TYPE_CHECKING:
    from . import alternatives, evalues

EXIT_OK = 0
EXIT_CHECK_FAILED = 1  # a validate run printed [FAIL]
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

# fuzzy family -> (its ``gaussian`` curve builder, the flags it reads in
# argument and provenance order, the utility its e-value is optimal for)
_FUZZY_FAMILIES = {
    "conformal": (None, ("calib", "utility", "ratio"), None),
    "gaussian-log": ("_log_curve", ("mu", "sigma", "tau"), "log"),
    "gaussian-log-composite": ("_composite_log_curve", ("zbar", "sigma", "tau", "n"), "log"),
    "gaussian-bounded-log": ("_bounded_log_curve", ("mu", "sigma", "tau", "alpha"), "bounded-log"),
    "gaussian-bounded-log-composite": (
        "_composite_bounded_log_curve", ("zbar", "sigma", "tau", "n", "alpha"), "bounded-log"),
    "gaussian-np": ("_np_curve", ("mu", "sigma", "alpha"), "np"),
    "gaussian-np-composite": ("_composite_np_curve", ("zbar", "sigma", "n", "alpha"), "np"),
}

# interval family -> (its ``gaussian`` function, the flags it reads in order)
_INTERVAL_FAMILIES = {
    "simple": ("simple_interval", ("mu", "sigma", "alpha")),
    "composite": ("composite_interval", ("zbar", "sigma", "n", "alpha")),
    "ar1": ("ar1_interval", ("mu", "rho", "z_last", "alpha")),
}

# decide mode -> (the flags it reads over a fuzzy set, over a binary set);
# None: the mode needs a fuzzy set
_MODES = {"as-if": (("alpha",), ()), "weighted": ((), None), "post-hoc": (("levels",), None)}

# built-in ratio -> (its ``alternatives`` builder, its parameter counts, its usage spec)
_RATIOS = {
    "gaussian-mean-shift": (
        "gaussian_mean_shift_ratio", (2, 3), "gaussian-mean-shift:MU:DELTA[:SIGMA]"),
    "gaussian-scale": ("gaussian_scale_ratio", (3,), "gaussian-scale:MU:SIGMA:TAU"),
    "ar1": ("ar1_kernel", (3,), "ar1:MU:RHO:TAU"),
    "gaussian-composite": ("gaussian_composite_kernel", (2,), "gaussian-composite:SIGMA:TAU"),
}
_RATIO_SPECS = " | ".join(usage for _, _, usage in _RATIOS.values())

# utility -> (its ``evalues`` class, its usage spec)
_UTILITIES = {
    "log": ("Log", "log"),
    "power": ("Power", "power:H"),
    "np": ("NeymanPearson", "np:A"),
    "bounded-log": ("BoundedLog", "bounded-log:A"),
    "clipped-log": ("ClippedLog", "clipped-log:B"),
    "dampened": ("Dampened", "dampened:B:INNER"),
}
_UTILITY_SPECS = " | ".join(usage for _, usage in _UTILITIES.values())

# validate check -> (its ``harness`` validator, the flags it reads after n)
_CHECKS = {
    "evalue": ("mc_validate_evalue", ()),
    "coverage": ("mc_validate_coverage", ("alpha",)),
    "posthoc": ("mc_validate_posthoc", ()),
}

# how argparse reads a flag that rows read (a float unless named here); no
# flag has an argparse default, so _family_args tells given from absent
_FLAGS = {
    "calib": {"help": "single-column CSV of calibration values"},
    "utility": {"help": _UTILITY_SPECS},
    "ratio": {"help": _RATIO_SPECS},
    "levels": {"help": "comma-separated level ladder for post-hoc"},
    "n": {"type": int},
}
_DEFAULTS = {"mu": 0.0, "sigma": 1.0}


def _spec_number(flag: str, spec: str, part: str) -> float:
    try:
        return float(part)
    except ValueError:
        raise ValueError(f"{flag} {spec!r}: {part!r} is not a number") from None


def parse_utility(spec: str) -> evalues.UtilitySpec:
    """Parse a utility spec: log | power:H | np:A | bounded-log:A |
    clipped-log:B | dampened:B:INNER."""
    from . import evalues

    head, sep, rest = spec.partition(":")
    dampened = []  # a loop: any nesting reaches Dampened's check, not the recursion limit
    while head == "dampened":
        b, _, inner = rest.partition(":")
        if not inner:
            raise ValueError("dampened needs an inner utility, e.g. dampened:0.1:log")
        dampened.append(_spec_number("--utility", spec, b))
        head, sep, rest = inner.partition(":")
    if head not in _UTILITIES:
        raise ValueError(f"unknown utility {spec!r}")
    if head == "log" and sep:
        raise ValueError("log takes no parameters")
    family = getattr(evalues, _UTILITIES[head][0])
    utility = family() if head == "log" else family(_spec_number("--utility", spec, rest))
    for b in reversed(dampened):
        utility = evalues.Dampened(b, utility)
    return utility


def parse_ratio(spec: str) -> alternatives.AlternativeSpec:
    """Parse a named built-in alternative with numeric parameters."""
    from . import alternatives

    name, *parts = spec.split(":")
    args = [_spec_number("--ratio", spec, x) for x in parts]
    if name not in _RATIOS:
        raise ValueError(f"unknown ratio {spec!r}")
    builder, counts, usage = _RATIOS[name]
    if len(args) not in counts:
        raise ValueError(usage)
    return getattr(alternatives, builder)(*args)


def _read_calibration(path: str) -> tuple[float, ...]:
    """Single-column CSV of reals; a non-numeric first non-blank line is a
    header. A leading UTF-8 byte order mark is dropped."""
    values, first = [], True
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh):
            text = line.strip()
            if not text:
                continue
            try:
                value = float(text)
            except ValueError:
                if not first:
                    raise ValueError(f"{path}:{lineno + 1}: not a number: {text!r}")
            else:
                if not math.isfinite(value):
                    raise ValueError(f"{path}:{lineno + 1}: not a finite number: {text!r}")
                values.append(value)
            first = False
    if not values:
        raise ValueError(f"{path}: no calibration values")
    return tuple(values)


def _json_text(value, newline: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True, allow_nan=False)``, its
    nested lines starting at ``newline``.

    The indenting encoder is pure Python, and each of its calls leaves cyclic
    garbage; the C encoder writes every scalar, and every list of scalars
    whole, its item separator carrying the newline and indent. Non-finite
    floats raise ``ValueError`` on either path.
    """
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if any(issubclass(t, (dict, list, tuple)) for t in set(map(type, value))):
            return "[" + inner + ("," + inner).join(_json_text(v, inner) for v in value) \
                + newline + "]"
        flat = json.dumps(value, allow_nan=False, separators=("," + inner, ": "))
        return "[" + inner + flat[1:-1] + newline + "]"
    if not isinstance(value, dict):
        return json.dumps(value, allow_nan=False)  # a scalar spans one line
    if not value:
        return "{}"
    if all(isinstance(k, str) for k in value):
        items = (f"{json.dumps(k)}: {_json_text(v, inner)}" for k, v in sorted(value.items()))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    # keys that JSON turns into strings; a JSON string holds no raw newline,
    # so only the indent's newlines are replaced
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False).replace("\n", newline)


def _write_json(path: Optional[str], doc: dict) -> None:
    text = _json_text(doc) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _read_json(path: str, flag: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ValueError(f"{flag} {path} is not JSON: {exc}") from None


def _family_args(args, flags: tuple[str, ...], owner: str) -> list:
    """The values of ``flags``, the flags the chosen row reads, in order, or
    their ``_DEFAULTS``; raises naming every flag given that another row of
    the subcommand reads, or else every flag absent with no default."""
    unread = [f for f in args.choice_flags if f not in flags and getattr(args, f) is not None]
    values = [_DEFAULTS.get(f) if getattr(args, f) is None else getattr(args, f) for f in flags]
    missing = [f for f, v in zip(flags, values) if v is None]
    for verb, named in (("does not take", unread), ("needs", missing)):
        if named:
            names = [f"--{f.replace('_', '-')}" for f in named]
            listed = names[0] if len(names) == 1 else f"{', '.join(names[:-1])} and {names[-1]}"
            raise ValueError(f"{owner} {verb} {listed}")
    return values


def cmd_fuzzy(args) -> int:
    from . import sets

    if args.json and os.path.realpath(args.json) == os.path.realpath(args.out):
        raise ValueError(f"--out and --json name the same file {args.out!r}")
    grid = sets.PlugInGrid.from_spec(args.grid)
    builder, flags, utility = _FUZZY_FAMILIES[args.family]
    values = _family_args(args, flags, args.family)
    if builder is None:  # conformal
        from .confidence import fuzzy_set

        calib, spec, ratio = values
        fset = fuzzy_set(_read_calibration(calib), grid, parse_ratio(ratio), parse_utility(spec))
    else:
        from . import gaussian

        # the builder checks its parameters once and returns its per-point core
        fn = getattr(gaussian, builder)(*values)
        # n is an integer and prints in full, where {n:g} would round n >= 10**6
        params = ",".join(f"{f}={v}" if f == "n" else f"{f}={v:g}" for f, v in zip(flags, values))
        evidence = tuple(map(fn, grid.points))
        fset = sets.FuzzyConfidenceSet(grid, evidence, (), f"{args.family}({params})", utility)
    fset.to_csv(args.out)
    if args.json:
        try:
            _write_json(args.json, fset.to_json_doc())
        except BaseException:  # a failing call leaves no file behind
            os.remove(args.out)
            raise
    return EXIT_OK


def cmd_interval(args) -> int:
    from . import gaussian

    function, flags = _INTERVAL_FAMILIES[args.family]
    lo, hi = getattr(gaussian, function)(*_family_args(args, flags, args.family))
    _write_json(args.out, {"family": args.family, "lo": lo, "hi": hi, "alpha": args.alpha})
    return EXIT_OK


def cmd_decide(args) -> int:
    from . import decisions, sets

    problem = decisions.DecisionProblem.from_json_doc(_read_json(args.problem, "--problem"))
    conf = sets.load_confidence_set(_read_json(args.set, "--set"))
    fuzzy = isinstance(conf, sets.FuzzyConfidenceSet)
    over_fuzzy, over_binary = _MODES[args.mode]
    if over_binary is None and not fuzzy:
        raise ValueError(f"{args.mode} mode needs a fuzzy confidence set")
    kind = "mode" if over_binary is None else f"over a {'fuzzy' if fuzzy else 'binary'} set"
    _family_args(args, over_fuzzy if fuzzy else over_binary, f"{args.mode} {kind}")

    if args.mode == "as-if":
        if fuzzy:
            conf = sets.sublevel_set(conf, args.alpha)
        doc = decisions.as_if_decision(problem, conf).to_json_doc()
    elif args.mode == "weighted":
        doc = decisions.weighted_decision(problem, conf).to_json_doc()
    else:  # post-hoc
        try:
            levels = [float(x) for x in args.levels.split(",")]
        except ValueError:
            raise ValueError(f"--levels must be comma-separated numbers, "
                             f"got {args.levels!r}") from None
        ladder = decisions.post_hoc_decisions(problem, conf, levels)
        doc = {"mode": "post-hoc", "levels": [{"alpha": ld.alpha, **(
            ld.decision.to_json_doc() if ld.available else {"unavailable": True})}
            for ld in ladder]}
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
            key = key.strip()
            try:
                params[key] = float(val)
            except ValueError:
                raise ValueError(f"model arg {key} must be a number, got {val!r}") from None
    config = harness.McConfig(trials=args.trials, seed=args.seed, model=args.model, params=params)
    alt = parse_ratio(args.ratio)
    utility = parse_utility(args.utility)
    validator, flags = _CHECKS[args.check]
    values = _family_args(args, flags, f"{args.check} check")
    report = getattr(harness, validator)(config, alt, utility, args.n, *values)
    if args.out:  # first, so a call that cannot write its report prints no verdict
        _write_json(args.out, report.to_json_doc())
    print(report.summary_line())
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _choice_flags(parser: argparse.ArgumentParser, rows) -> None:
    """Declare every flag some row of a subcommand's table reads, as
    ``_FLAGS`` says, and record them for ``_family_args``."""
    flags = tuple(dict.fromkeys(flag for row in rows for flag in row))
    for flag in flags:
        parser.add_argument(f"--{flag.replace('_', '-')}", **_FLAGS.get(flag, {"type": float}))
    parser.set_defaults(choice_flags=flags)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzyconf",
        description="Fuzzy (e-value) prediction confidence sets and certified decisions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fuzzy = sub.add_parser("fuzzy", help="evaluate a fuzzy confidence set over a grid")
    p_fuzzy.add_argument("--family", required=True, choices=tuple(_FUZZY_FAMILIES))
    p_fuzzy.add_argument("--grid", required=True, help="min:max:step (inclusive endpoints)")
    _choice_flags(p_fuzzy, (flags for _, flags, _ in _FUZZY_FAMILIES.values()))
    p_fuzzy.add_argument("--out", required=True, help="output CSV path")
    p_fuzzy.add_argument("--json", help="also write a JSON document here")
    p_fuzzy.set_defaults(func=cmd_fuzzy)

    p_int = sub.add_parser("interval", help="closed-form Gaussian prediction interval")
    p_int.add_argument("--family", required=True, choices=tuple(_INTERVAL_FAMILIES))
    _choice_flags(p_int, (flags for _, flags in _INTERVAL_FAMILIES.values()))
    p_int.add_argument("--out", help="output JSON path (default stdout)")
    p_int.set_defaults(func=cmd_interval)

    p_dec = sub.add_parser("decide", help="certified minimax decision from a confidence set")
    p_dec.add_argument("--problem", required=True, help="decision problem JSON")
    p_dec.add_argument("--set", required=True, help="serialized confidence set JSON")
    p_dec.add_argument("--mode", default="weighted", choices=tuple(_MODES))
    _choice_flags(p_dec, (flags for row in _MODES.values() for flags in row if flags))
    p_dec.add_argument("--out", help="output JSON path (default stdout)")
    p_dec.set_defaults(func=cmd_decide)

    p_val = sub.add_parser("validate", help="seeded Monte-Carlo guarantee check")
    p_val.add_argument("--check", default="evalue", choices=tuple(_CHECKS))
    p_val.add_argument("--model", required=True)
    p_val.add_argument("--model-args", help="comma-separated key=value model parameters")
    p_val.add_argument("--ratio", default="gaussian-scale:0:1:3.5", help=_RATIO_SPECS)
    p_val.add_argument("--utility", default="log", help=_UTILITY_SPECS)
    _choice_flags(p_val, (flags for _, flags in _CHECKS.values()))
    p_val.add_argument("--n", type=int, default=10)
    p_val.add_argument("--trials", type=int, default=100_000)
    p_val.add_argument("--seed", type=int, default=20260801)
    p_val.add_argument("--out", help="output JSON path")
    p_val.set_defaults(func=cmd_validate)

    return parser


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
    except (FuzzyconfError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC if isinstance(exc, NumericFailure) else EXIT_VALIDATION


def run() -> None:
    """Run ``main`` on ``sys.argv`` as a whole process and exit with its code."""
    # A call leaves O(1) cyclic garbage, mostly the argparse parser, whatever
    # the grid size, calibration size or trial count; the arrays and tuples of
    # the work itself are freed by reference counting. The collector's passes
    # while numpy and the handlers import therefore free nothing worth their
    # cost. Freezing moves the heap out of the full collections interpreter
    # teardown runs; atexit handlers, stream flushes and file closes still run.
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
