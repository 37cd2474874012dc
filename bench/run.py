"""Benchmark of the fuzzyconf command line, end to end and layer by layer.

    python3 bench/run.py --workload conformal-cli --seed 1 --seconds 25 --trace 0

Workloads are ``conformal-cli``, ``oneshot-cli`` and ``mc-validate`` (or
``all``); ``bench/workloads.py`` builds their inputs from the seed. One
client drives a closed loop: it runs one ``python -m fuzzyconf ...``
subprocess at a time at default settings, cycling through the workload's
call list until ``--seconds`` have passed and every call has run at least
once, and checks every call's outputs (``bench/checks.py``).

With ``--trace 0`` the run reports the end-to-end metrics of
BENCHMARK.json:

* ``setup_s``: median wall time of a fresh ``python -c "import fuzzyconf"``,
  the set-up every CLI call pays, sampled before the loop and before every
  pass;
* ``session_s``: wall time of one pass over the call list, as the sum of
  each call's median wall time;
* ``call_p50_s``: median over the call list of each call's median wall
  time, a failed call counting as +inf;
* ``peak_rss_mb``: largest max-RSS of any single call, per child from
  ``os.wait4``.

It also prints, and keeps in the results file, ``error_rate`` and the
throughputs ``grid_points_per_s`` and ``trials_per_s`` where they apply.

A workload may also list known-defect probes: calls that fail today through
a known program defect (the wide-grid conformal call). A probe runs once
per run, outside the timed loop and outside ``attempted``/``failed``; its
outcome is printed and counts in ``error_rate`` and ``cli.failed_calls``.
Output that a probe does write must pass its checks, or the run is not
``correct``.

With ``--trace 1`` the run executes the same call list in this interpreter
through ``fuzzyconf.cli.main``, once untraced and once under the span
tracer (``bench/tracer.py``), adds the ``-X importtime`` probe, and reports
the per-layer metrics of BENCHMARK.json.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Results and the trace file go to
``.bench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import signal
import statistics
import sys
import threading
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PYTHON = sys.executable
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
CALL_TIMEOUT_S = 60.0  # keeps a hung call from holding the run past its limit
# Reported beside the end-to-end metrics but not gated: error_rate is 0 and
# each throughput is absent on some workloads.
EXTRA_UNITS = {"error_rate": "ratio", "grid_points_per_s": "points/s", "trials_per_s": "trials/s"}

sys.path.insert(0, str(Path(__file__).resolve().parent))


def spawn(argv: list[str], stdout: str, env: dict) -> tuple[float, float, int]:
    """Run ``argv`` to completion; return wall seconds, max RSS in MiB and exit code.

    The child's stdout goes to ``stdout`` and its stderr beside it. The RSS is
    the child's own, read from ``os.wait4``.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, stdout, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, stdout + ".stderr", flags, 0o644)]
    t0 = perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    watchdog = threading.Timer(CALL_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
    watchdog.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        watchdog.cancel()
    wall = perf_counter() - t0
    return wall, usage.ru_maxrss / 1024.0, os.waitstatus_to_exitcode(status)


def _cli(args: list[str]) -> list[str]:
    return [PYTHON, "-m", "fuzzyconf", *args]


def end_to_end(wl, seed: int, seconds: float, env: dict) -> dict:
    from checks import check

    probes = []
    for call in wl.probes:
        wall, rss, code = spawn(_cli(call.args), call.check["stdout"], env)
        probes.append({"name": call.name, "args": call.args, "exit": code, "wall_s": wall,
                       "problems": check(call, code, seed)})

    def setup_sample() -> float:
        return spawn([PYTHON, "-c", "import fuzzyconf"], str(OUT / "setup.stdout"), env)[0]

    # Set-up is sampled before the loop and again before every pass, so that
    # setup_s sees the same machine conditions as the calls.
    setup = [setup_sample() for _ in range(SETUP_REPEATS - 1)]
    samples = [[] for _ in wl.calls]  # per call: (wall s, rss MiB, problems)
    start, k = perf_counter(), 0
    while k < len(wl.calls) or perf_counter() - start < seconds:
        i = k % len(wl.calls)
        if i == 0:
            setup.append(setup_sample())
        call = wl.calls[i]
        wall, rss, code = spawn(_cli(call.args), call.check["stdout"], env)
        samples[i].append((wall, rss, check(call, code, seed)))
        k += 1

    flat = [(call, w, rss, p) for call, s in zip(wl.calls, samples) for w, rss, p in s]
    ok = [(call, w) for call, w, _, p in flat if not p]
    failed = len(flat) - len(ok)
    metrics = {
        "setup_s": (statistics.median(setup), len(setup)),
        "session_s": (sum(statistics.median(w for w, _, _ in s) for s in samples),
                      min(len(s) for s in samples)),
        "call_p50_s": (statistics.median(
            statistics.median(math.inf if p else w for w, _, p in s) for s in samples),
            len(flat)),
        "peak_rss_mb": (max(rss for _, _, rss, _ in flat), len(flat)),
        "error_rate": ((failed + sum(1 for p in probes if p["problems"]))
                       / (len(flat) + len(probes)), len(flat) + len(probes)),
    }
    for key, attr in (("grid_points_per_s", "grid_points"), ("trials_per_s", "trials")):
        done = [(getattr(c, attr), w) for c, w in ok if getattr(c, attr)]
        if done:
            metrics[key] = (sum(x for x, _ in done) / sum(w for _, w in done), len(done))
    calls = [{"name": c.name, "args": c.args,
              "wall_s": [w for w, _, _ in s], "rss_mb": [r for _, r, _ in s],
              "problems": sorted({m for *_, p in s for m in p})}
             for c, s in zip(wl.calls, samples)]
    return {"metrics": metrics, "attempted": len(flat), "failed": failed,
            "calls": calls, "probes": probes}


def _in_process(cli, call) -> tuple[int, int, float]:
    """Run one call through ``cli.main``; return exit code, stdout bytes and
    the seconds spent inside ``cli.main``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = cli.main(list(call.args))
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed call, as it would be in a subprocess
            traceback.print_exc()
            code = 1
        inner = perf_counter() - t0
    stdout = out.getvalue()
    Path(call.check["stdout"]).write_text(stdout, encoding="utf-8")
    Path(call.check["stdout"] + ".stderr").write_text(err.getvalue(), encoding="utf-8")
    return code, len(stdout.encode()), inner


def per_layer(wl, seed: int, env: dict, trace_path: Path) -> dict:
    import fuzzyconf.cli as cli
    import fuzzyconf.gaussian as gaussian
    from checks import check
    from tracer import Tracer, import_times

    metrics = import_times(PYTHON, env, IMPORT_REPEATS)
    boost = gaussian.bounded_log_boost  # cleared per call, as in a fresh process

    start = perf_counter()
    for call in wl.calls:
        boost.cache_clear()
        _in_process(cli, call)
    metrics["trace.untraced_wall_s"] = perf_counter() - start

    tracer = Tracer()
    tracer.install()
    codes, bench_s = [], 0.0
    try:
        start = perf_counter()
        for i, call in enumerate(wl.calls):
            t0 = perf_counter()
            tracer.call = i
            boost.cache_clear()
            code, stdout_bytes, inner = _in_process(cli, call)
            tracer.count("gaussian.boost_solves", boost.cache_info().misses)
            tracer.count("cli.bytes_written",
                         stdout_bytes + sum(os.path.getsize(p) for p in call.outputs
                                            if os.path.exists(p)))
            codes.append(code)
            bench_s += perf_counter() - t0 - inner
        wall = perf_counter() - start
    finally:
        tracer.uninstall()
    tracer.write(str(trace_path), start)

    # Probes run untraced: how much of a failing grid the thread pool evaluates
    # before the error surfaces varies, and the counts must repeat exactly.
    probe_codes = [_in_process(cli, call)[0] for call in wl.probes]
    problems = [check(call, code, seed) for call, code in zip(wl.calls, codes)]
    probe_problems = [check(call, code, seed) for call, code in zip(wl.probes, probe_codes)]
    metrics.update(tracer.metrics())
    metrics.update({
        "cli.failed_calls": sum(1 for code in codes + probe_codes if code != 0),
        "trace.wall_s": wall,
        "trace.overhead_ratio": wall / metrics["trace.untraced_wall_s"],
        "bench.self_s": bench_s,
        "trace.main_accounted_ratio": (metrics["trace.main_self_s"] + bench_s) / wall,
    })
    return {"metrics": {k: (v, 1) for k, v in metrics.items()},
            "attempted": len(wl.calls), "failed": sum(1 for p in problems if p),
            "calls": [{"name": c.name, "args": c.args, "exit": code, "problems": p}
                      for c, code, p in zip(wl.calls, codes, problems)],
            "probes": [{"name": c.name, "args": c.args, "exit": code, "problems": p}
                       for c, code, p in zip(wl.probes, probe_codes, probe_problems)]}


def run(name: str, seed: int, seconds: float, trace: bool, spec: dict, env: dict) -> dict:
    import numpy
    import scipy
    import workloads

    tag = f"{name}-seed{seed}-trace{int(trace)}"
    work = OUT / tag

    def prebuild(args):
        stdout = str(work / "prebuild.stdout")
        code = spawn(_cli(args), stdout, env)[2]
        if code != 0:
            raise RuntimeError(f"building an input failed with exit {code}: {args}")

    wl = workloads.build(name, seed, work, prebuild)
    if trace:
        res = per_layer(wl, seed, env, OUT / f"{tag}.trace.json")
    else:
        res = end_to_end(wl, seed, seconds, env)
    wanted = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(EXTRA_UNITS)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == name),
        "platform": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "cpus": os.cpu_count()},
        "input_sha256": wl.digests, "input_facts": wl.facts,
        "metrics": {k: {"value": v, "unit": units.get(k, "s" if k.endswith("_s") else "count"),
                        "n": n} for k, (v, n) in res["metrics"].items()},
        "attempted": res["attempted"], "failed": res["failed"],
        "calls": res["calls"], "probes": res["probes"],
    }
    # A probe may fail through its known defect, but output it does write must
    # still pass its checks.
    record["correct"] = res["failed"] == 0 and not any(
        p["exit"] == 0 and p["problems"] for p in res["probes"])
    print(f"{name}  seed={seed}  trace={int(trace)}  calls={res['attempted']}  "
          f"failed={res['failed']}")
    shown = [m["name"] for m in wanted] + [k for k in EXTRA_UNITS if k in res["metrics"]]
    for key in shown:
        m = record["metrics"][key]
        print(f"  {key:34s} {m['value']:>14.6g} {m['unit']:9s} n={m['n']}")
    for call in res["calls"]:
        if call["problems"]:
            print(f"  FAILED {call['name']}: {'; '.join(call['problems'])}")
    for probe in res["probes"]:
        state = "; ".join(probe["problems"]) or "passes now"
        print(f"  known-defect probe {probe['name']}: {state}")
    record["result"] = {
        "correct": record["correct"], "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {m["name"]: {"value": record["metrics"][m["name"]]["value"],
                                "unit": m["unit"]} for m in wanted},
    }
    (OUT / f"{tag}.results.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "fuzzyconf" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no fuzzyconf sources under {SRC} or no {spec_path.name}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        print(f"error: unknown workload {args.workload!r}; choose from {names} or all",
              file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("FUZZYCONF_THREADS", None)  # measure the CLI's default thread pool
    OUT.mkdir(exist_ok=True)
    chosen = names if args.workload == "all" else [args.workload]
    records = [run(n, args.seed, args.seconds, bool(args.trace), spec, env) for n in chosen]
    if len(records) == 1:
        result = records[0]["result"]
    else:
        result = {
            "correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": {f"{r['workload']}.{k}": v
                        for r in records for k, v in r["result"]["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
