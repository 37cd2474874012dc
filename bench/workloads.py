"""Seeded inputs and call lists for the three benchmark workloads.

Every input the program sees is a file written here or a flag in a call's
argument list, and all of it follows from the workload seed. ``build``
writes the files before any timing starts and returns the call list with
the sha256 of every input, so two runs can show they used the same inputs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

GRID = "-6:6:0.01"
WIDE_GRID = "-45:45:0.05"
SCALE_RATIO = "gaussian-scale:0:1:3.5"
UTILITIES = ("log", "np:0.1", "bounded-log:0.05", "power:0.5", "clipped-log:0.1")
GAUSSIAN_FAMILIES = (
    "gaussian-log", "gaussian-log-composite", "gaussian-bounded-log",
    "gaussian-bounded-log-composite", "gaussian-np", "gaussian-np-composite",
)
MC_TRIALS = 200_000
MC_N = 20


@dataclass
class Call:
    """One CLI invocation, ``python -m fuzzyconf <args>``, and how to check it.

    ``check`` names the output check and carries what it needs; ``outputs``
    are the files the call writes besides its stdout.
    """

    name: str
    args: list[str]
    check: dict
    outputs: list[str] = field(default_factory=list)
    grid_points: int = 0
    trials: int = 0


@dataclass
class Workload:
    name: str
    calls: list[Call]
    # Calls run once per run, untimed, that fail today through a known defect.
    # Their outcome is reported beside the metrics; see run.py.
    probes: list[Call]
    digests: dict[str, str]
    facts: dict


def grid_size(spec: str) -> int:
    lo, hi, step = (float(p) for p in spec.split(":"))
    return round((hi - lo) / step) + 1


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


def _mixture_csv(path: Path, rng: np.random.Generator, n: int) -> tuple[float, ...]:
    """Exchangeable mixture (latent mean, then noise) rounded to 2 decimals,
    so values tie with each other and with some grid points."""
    x = rng.normal(0.0, 0.5) + rng.normal(0.0, 1.0, size=n)
    text = "".join(f"{v:.2f}\n" for v in x)
    path.write_text(text, encoding="utf-8")
    return tuple(float(line) for line in text.split())


def _fuzzy_call(name: str, out: Path, args: list[str], check: dict, grid: str = GRID) -> Call:
    csv, js = str(out / f"{name}.csv"), str(out / f"{name}.json")
    return Call(
        name=name,
        args=["fuzzy", *args, "--grid", grid, "--out", csv, "--json", js],
        check={**check, "csv": csv, "json": js, "grid": grid},
        outputs=[csv, js],
        grid_points=grid_size(grid),
    )


def _conformal(seed: int, inp: Path, out: Path) -> tuple[list[Call], list[Call], dict]:
    rng = _rng(seed, 1)
    calls, facts, calib = [], {}, {}
    grid_points = {-6.0 + 12.0 * i / 1200 for i in range(1201)}  # PlugInGrid.from_spec(GRID)
    for n in (30, 300):
        path = inp / f"calib{n}.csv"
        calib[n] = (str(path), _mixture_csv(path, rng, n))
        values = calib[n][1]
        facts[f"calib{n}_tied_values"] = n - len(set(values))
        facts[f"calib{n}_values_on_grid"] = sum(v in grid_points for v in values)

    def conformal(name, n, utility, ratio, grid=GRID):
        path, values = calib[n]
        return _fuzzy_call(
            name, out,
            ["--family", "conformal", "--calib", path, "--utility", utility, "--ratio", ratio],
            {"kind": "conformal", "calib": values, "utility": utility, "ratio": ratio},
            grid,
        )

    for n in (30, 300):
        for u in UTILITIES:
            calls.append(conformal(f"conformal-n{n}-{u.replace(':', '')}", n, u, SCALE_RATIO))
    calls.append(conformal("conformal-n300-kernel", 300, "bounded-log:0.05",
                           "gaussian-composite:1:3.5"))
    # Fails today with exit 2: the gaussian-scale ratio overflows at |z - mu| >~ 38
    # although every likelihood ratio is at most n + 1. It runs as a probe, outside
    # the timed loop, so that the timed calls are ones that succeed.
    probe = conformal("conformal-n300-widegrid", 300, "log", SCALE_RATIO, WIDE_GRID)
    probe.check["lr_bound"] = 301.0
    return calls, [probe], facts


def _oneshot(seed: int, inp: Path, out: Path, run_cli) -> list[Call]:
    rng = _rng(seed, 2)
    mu, zbar, z_last = (round(float(v), 2) for v in rng.uniform(-1.0, 1.0, 3))
    p = {"mu": mu, "zbar": zbar, "z_last": z_last, "sigma": 1.0, "tau": 3.5,
         "alpha": 0.05, "n": 3, "rho": 0.5}
    calls = []
    interval_flags = {
        "simple": ["--mu", str(mu), "--sigma", "1", "--alpha", "0.05"],
        "composite": ["--zbar", str(zbar), "--sigma", "1", "--n", "3", "--alpha", "0.05"],
        "ar1": ["--mu", str(mu), "--rho", "0.5", "--z-last", str(z_last), "--alpha", "0.05"],
    }
    for fam, flags in interval_flags.items():
        calls.append(Call(f"interval-{fam}", ["interval", "--family", fam, *flags],
                          {"kind": "interval", "family": fam, **p}))
    for fam in GAUSSIAN_FAMILIES:
        flags = ["--sigma", "1"]
        flags += ["--zbar", str(zbar), "--n", "3"] if "composite" in fam else ["--mu", str(mu)]
        if "log" in fam:
            flags += ["--tau", "3.5"]
        if "np" in fam or "bounded" in fam:
            flags += ["--alpha", "0.05"]
        calls.append(_fuzzy_call(fam, out, ["--family", fam, *flags],
                                 {"kind": "closed-form", "family": fam, **p}))

    # The decision problem is scored against a clipped-log conformal set that
    # the program itself builds here, before timing.
    calib_path = inp / "decide_calib.csv"
    _mixture_csv(calib_path, rng, 30)
    set_json, set_csv = inp / "set.json", inp / "set.csv"
    run_cli(["fuzzy", "--family", "conformal", "--calib", str(calib_path),
             "--utility", "clipped-log:0.1", "--ratio", SCALE_RATIO, "--grid", GRID,
             "--out", str(set_csv), "--json", str(set_json)])
    outcomes = json.loads(set_json.read_text(encoding="utf-8"))["grid"]
    centers = rng.uniform(-2.0, 2.0, 4)
    scales = rng.uniform(0.5, 2.0, 4)
    z = np.asarray(outcomes)
    loss = [(s * np.minimum((z - c) ** 2, 16.0)).tolist() for c, s in zip(centers, scales)]
    problem = inp / "problem.json"
    problem.write_text(json.dumps({"decisions": [f"d{i}" for i in range(4)],
                                   "outcomes": outcomes, "loss": loss}), encoding="utf-8")
    decide_flags = {
        "as-if": ["--alpha", "0.1"],
        "weighted": [],
        "post-hoc": ["--levels", "0.01,0.02,0.05,0.1,0.2,0.5"],
    }
    for mode, flags in decide_flags.items():
        calls.append(Call(
            f"decide-{mode}",
            ["decide", "--problem", str(problem), "--set", str(set_json), "--mode", mode, *flags],
            {"kind": "decide", "mode": mode, "problem": str(problem), "set": str(set_json),
             "alpha": 0.1, "levels": [0.01, 0.02, 0.05, 0.1, 0.2, 0.5]},
        ))
    return calls


def _mc(seed: int) -> list[Call]:
    seeds = iter(int(s) for s in _rng(seed, 3).integers(1, 2**31 - 1, size=7))
    mixture = ["--model", "exchangeable-mixture", "--ratio", SCALE_RATIO,
               "--n", str(MC_N), "--trials", str(MC_TRIALS)]
    specs = [(f"evalue-{u.replace(':', '')}", ["--check", "evalue", "--utility", u, *mixture],
              MC_TRIALS) for u in ("log", "bounded-log:0.05", "power:0.5")]
    specs += [
        ("coverage-np0.1", ["--check", "coverage", "--alpha", "0.1", "--utility", "np:0.1",
                            *mixture], MC_TRIALS),
        ("posthoc-clipped-log0.1", ["--check", "posthoc", "--utility", "clipped-log:0.1",
                                    *mixture], MC_TRIALS),
        # Kernels use the coverage check: a kernel recentred on z^n is exact only
        # under its matching AR model, which the validators reject as
        # non-exchangeable, so the evalue check would be seed noise under iid data.
        ("kernel-ar1-log", ["--check", "coverage", "--alpha", "0.1", "--model", "iid-gaussian",
                            "--ratio", "ar1:0:0.5:3.5", "--utility", "log", "--n", str(MC_N),
                            "--trials", "10000"], 10_000),
        ("kernel-composite-bounded-log",
         ["--check", "coverage", "--alpha", "0.1", "--model", "iid-gaussian",
          "--ratio", "gaussian-composite:1:3.5", "--utility", "bounded-log:0.05",
          "--n", str(MC_N), "--trials", "5000"], 5_000),
    ]
    return [Call(f"validate-{name}", ["validate", *args, "--seed", str(next(seeds))],
                 {"kind": "validate"}, trials=trials)
            for name, args, trials in specs]


def build(name: str, seed: int, work: Path, run_cli) -> Workload:
    """Write the inputs of workload ``name`` under ``work`` and list its calls.

    ``run_cli(args)`` runs the program to completion or raises; the oneshot
    workload uses it to build its confidence set.
    """
    inp, out = work / "inputs", work / "outputs"
    inp.mkdir(parents=True, exist_ok=True)
    out.mkdir(parents=True, exist_ok=True)
    probes, facts = [], {}
    if name == "conformal-cli":
        calls, probes, facts = _conformal(seed, inp, out)
    elif name == "oneshot-cli":
        calls = _oneshot(seed, inp, out, run_cli)
    elif name == "mc-validate":
        calls = _mc(seed)
    else:
        raise ValueError(f"unknown workload {name!r}")
    for call in calls + probes:
        call.check.setdefault("stdout", str(out / f"{call.name}.stdout"))
    digests = {p.name: _sha256(p) for p in sorted(inp.iterdir())}
    # paths relative to the work directory, so digests agree across checkouts
    argv_text = json.dumps([c.args for c in calls + probes]).replace(str(work), "")
    digests["call-list"] = hashlib.sha256(argv_text.encode()).hexdigest()
    return Workload(name, calls, probes, digests, facts)
