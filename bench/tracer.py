"""Span tracer for the package's layers, installed from outside the package.

``Tracer.install`` replaces every public function and public class method
of each layer module with a timing wrapper, in every module namespace that
holds a reference to it, and ``uninstall`` puts the originals back. Each
span records its name, layer, start, end, parent span, thread and the index
of the CLI call it belongs to. Spans and counters are kept per thread in
memory and written out by ``write``.

A span's self time is its duration minus the time its child spans cover on
the same thread; summed over threads it is busy time, which can exceed wall
time under the thread pool.

Counters are taken at the same boundaries as the spans:

* ``alternatives.ratio_calls`` / ``ratio_values``: calls of, and values
  passed to, the ratio callable of every ``IidRatio`` an alternatives
  function builds;
* ``evalues.lambda_bisections``: ``normalization_lambda`` calls, and
  ``harness.lambda_fallback_rows`` those whose parent span is in harness;
* ``confidence.grid_points``: grid points handed to ``fuzzy_set``;
* ``harness.trials``: trials of every ``mc_validate_*`` call.

The caller adds counts it takes at the ``cli.main`` boundary with ``count``.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import itertools
import json
import statistics
import subprocess
import threading
from collections import Counter
from time import perf_counter

PACKAGE = "fuzzyconf"
LAYERS = ("cli", "confidence", "alternatives", "orbits", "evalues", "harness",
          "decisions", "gaussian")
SAMPLERS = ("harness.sample_matrix", "harness.sample_finite_matrix")


class _ThreadState:
    def __init__(self, index: int, name: str, main: bool):
        self.index = index
        self.name = name
        self.main = main
        self.stack: list[list] = []  # open spans: [id, child seconds, layer]
        self.spans: list[tuple] = []  # (id, parent id, name, layer, call, start, end, self)
        self.counts: Counter = Counter()


class Tracer:
    def __init__(self):
        self.call = -1  # index of the CLI call in progress, set by the caller
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._patches: list[tuple[object, str, object]] = []
        self._main = threading.main_thread().ident

    # -- recording ---------------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            thread = threading.current_thread()
            with self._lock:
                st = _ThreadState(len(self._threads), thread.name, thread.ident == self._main)
                self._threads.append(st)
            self._local.state = st
            return st

    def count(self, name: str, n: int = 1) -> None:
        self._state().counts[name] += n

    def _wrap(self, fn, name: str, layer: str, after=None):
        tracer = self

        def traced(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            parent = stack[-1] if stack else None
            frame = [next(tracer._ids), 0.0, layer]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    result = after(st, args, result, parent)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                if parent is not None:
                    parent[1] += t1 - t0
                st.spans.append((frame[0], -1 if parent is None else parent[0], name, layer,
                                 tracer.call, t0, t1, t1 - t0 - frame[1]))

        functools.update_wrapper(traced, fn)
        return traced

    # -- counters hooked to span boundaries ---------------------------------

    def _count_ratio(self, st, args, result, parent):
        if isinstance(result, self._iid_ratio) and not hasattr(result.ratio, "bench_counted"):
            ratio, tracer = result.ratio, self

            def counted(z):
                counts = tracer._state().counts
                counts["alternatives.ratio_calls"] += 1
                counts["alternatives.ratio_values"] += getattr(z, "size", 1)
                return ratio(z)

            counted.bench_counted = True
            result = dataclasses.replace(result, ratio=counted)
        return result

    def _hook(self, name: str):
        if name.startswith("alternatives."):
            return self._count_ratio
        if name == "evalues.normalization_lambda":
            def lam(st, args, result, parent):
                st.counts["evalues.lambda_bisections"] += 1
                if parent is not None and parent[2] == "harness":
                    st.counts["harness.lambda_fallback_rows"] += 1
                return result
            return lam
        if name == "confidence.fuzzy_set":
            def grid(st, args, result, parent):
                st.counts["confidence.grid_points"] += len(args[1])
                return result
            return grid
        if name.startswith("harness.mc_validate_"):
            def trials(st, args, result, parent):
                st.counts["harness.trials"] += args[0].trials
                return result
            return trials
        return None

    # -- installing --------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        self._iid_ratio = modules["alternatives"].IidRatio
        namespaces = [importlib.import_module(PACKAGE), *modules.values()]
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._install_methods(obj, layer)
                elif callable(obj):
                    name = f"{layer}.{attr}"
                    wrapper = self._wrap(obj, name, layer, self._hook(name))
                    for ns in namespaces:
                        for key, value in list(vars(ns).items()):
                            if value is obj:
                                self._patch(ns, key, wrapper)

    def _install_methods(self, cls, layer: str) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(member):
                self._patch(cls, attr, self._wrap(member, name, layer))
            elif isinstance(member, (classmethod, staticmethod)):
                wrapped = self._wrap(member.__func__, name, layer)
                self._patch(cls, attr, type(member)(wrapped))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reporting ---------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer self time and call counts, counters, and main-thread sums."""
        out = {f"{layer}.{kind}": zero for layer in LAYERS
               for kind, zero in (("self_s", 0.0), ("calls", 0))}
        out.update({"confidence.pool_wait_s": 0.0, "harness.sample_s": 0.0,
                    "trace.main_self_s": 0.0, "trace.spans": 0})
        for st in self._threads:
            for _, _, name, layer, _, _, _, self_s in st.spans:
                out[f"{layer}.self_s"] += self_s
                out[f"{layer}.calls"] += 1
                if st.main:
                    out["trace.main_self_s"] += self_s
                    if name == "confidence.fuzzy_set":
                        out["confidence.pool_wait_s"] += self_s
                if name in SAMPLERS:
                    out["harness.sample_s"] += self_s
            out["trace.spans"] += len(st.spans)
        counts = sum((st.counts for st in self._threads), Counter())
        for name in ("alternatives.ratio_calls", "alternatives.ratio_values",
                     "evalues.lambda_bisections", "harness.lambda_fallback_rows",
                     "confidence.grid_points", "harness.trials", "cli.bytes_written",
                     "gaussian.boost_solves"):
            out[name] = counts[name]
        return out

    def write(self, path: str, origin: float) -> None:
        """Write every span, times in seconds from ``origin``."""
        columns = ["id", "parent", "name", "layer", "thread", "call", "start", "end", "self"]
        rows = [[sid, parent, name, layer, st.index, call,
                 round(t0 - origin, 7), round(t1 - origin, 7), round(self_s, 7)]
                for st in self._threads
                for sid, parent, name, layer, call, t0, t1, self_s in st.spans]
        rows.sort(key=lambda r: r[6])
        doc = {"threads": [{"index": st.index, "name": st.name, "main": st.main}
                           for st in self._threads],
               "columns": columns, "spans": rows}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Import probe
# ---------------------------------------------------------------------------


def _importtime_cumulative(stderr: str) -> dict[str, float]:
    """Cumulative seconds of the outermost numpy, scipy and fuzzyconf imports.

    ``-X importtime`` prints children before their parent, indented two
    spaces per level after one separating space; read in reverse, a stack of
    names gives each entry's ancestors.
    """
    totals = {"numpy": 0.0, "scipy": 0.0, "fuzzyconf": 0.0}
    stack: list[str] = []
    for line in reversed(stderr.splitlines()):
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        name = name.strip()
        del stack[depth:]
        top = name.split(".")[0]
        if top in totals and not any(a.split(".")[0] == top for a in stack):
            totals[top] += int(cumulative) / 1e6
        stack.append(name)
    return totals


def import_times(python: str, env: dict, repeats: int) -> dict[str, float]:
    """Median import costs over ``repeats`` fresh interpreters.

    ``import.interpreter_s`` is the wall time of ``python -c pass``; the
    others are cumulative times from ``-X importtime -c "import fuzzyconf"``.
    """
    walls, runs = [], []
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run([python, "-c", "pass"], env=env, check=True, timeout=60)
        walls.append(perf_counter() - t0)
        done = subprocess.run([python, "-X", "importtime", "-c", "import fuzzyconf"],
                              env=env, check=True, capture_output=True, text=True, timeout=60)
        runs.append(_importtime_cumulative(done.stderr))
    out = {"import.interpreter_s": statistics.median(walls)}
    for key in runs[0]:
        out[f"import.{key}_s"] = statistics.median(r[key] for r in runs)
    return out
