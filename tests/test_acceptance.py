"""Acceptance gate: one test per stated guarantee, at its stated tolerance.

Each test prints a single [PASS]/[FAIL] line (run with -s to see them all).
Monte-Carlo checks use fixed seeds; every run is bit-reproducible.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

import fuzzyconf as fc
from fuzzyconf.alternatives import IidRatio
from fuzzyconf.cli import main as cli_main
from fuzzyconf.harness import (
    McConfig,
    mc_validate_coverage,
    mc_validate_decision_risk,
    mc_validate_evalue,
    mc_validate_posthoc,
)
from fuzzyconf.reference import (
    LikelihoodRatioProfile,
    brute_force_conditional_lr,
    classical_conformal_membership,
    conditional_lr_iid,
    expected_utility,
    numerical_utility_oracle,
)

SEED = 20260810

UTILITIES = (
    fc.Log(),
    fc.Power(h=-1.0),
    fc.Power(h=0.5),
    fc.NeymanPearson(alpha=0.05),
    fc.BoundedLog(alpha=0.05),
    fc.ClippedLog(b=0.1),
    fc.Dampened(b=0.1, inner=fc.Log()),
)
MODELS = (
    ("iid-gaussian", {"mu": 0.0, "sigma": 1.0}),
    ("iid-uniform", {"lo": 0.0, "hi": 1.0}),
    ("exchangeable-mixture", {"mu": 0.0, "between": 1.0, "within": 1.0}),
)
N_VALUES = (5, 20)
MC_ALT = fc.gaussian_scale_ratio(0.0, 1.0, 3.5)


def _announce(num, text, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")
    assert ok, f"criterion {num} failed: {text}"


def test_criterion_01_conditional_lr_oracle_equivalence():
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(3, 9))
        vals = rng.normal(0.0, 2.0, size=m)
        if rng.random() < 0.3:
            vals = np.round(vals, 1)  # force ties
        w = rng.uniform(0.1, 2.0, size=3)

        def ratio(z, w=w):
            return w[0] + w[1] * z * z + w[2] * math.exp(0.3 * z)

        scale = float(rng.uniform(0.5, 2.0))

        def q_base(z, scale=scale):
            return math.exp(-abs(z) / scale) / (2 * scale)

        def q_last(z):
            return ratio(z) * q_base(z)

        got = conditional_lr_iid(vals, ratio).lr_at(float(vals[-1]))
        want = brute_force_conditional_lr(vals, q_last, q_base)
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - t0
    _announce(1, f"shortcut vs permutation-average oracle, 1000 tuples: "
                 f"max |diff| = {worst:.2e} (tol 1e-9), {elapsed:.1f}s (< 10s)",
              worst <= 1e-9 and elapsed < 10.0)


def _random_profiles(count, max_m=5, seed=SEED + 1):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        m = int(rng.integers(2, max_m + 1))
        d = int(rng.integers(2, m + 1)) if m > 1 else 1
        counts = np.ones(d, dtype=int)
        for _ in range(m - d):
            counts[int(rng.integers(0, d))] += 1
        raw = rng.uniform(0.05, 3.0, size=d)
        mean = float(np.average(raw, weights=counts))
        out.append(LikelihoodRatioProfile(
            tuple(np.arange(d, dtype=float)), tuple(int(c) for c in counts),
            tuple(raw / mean)))
    return out


ORACLE_UTILITIES = (
    fc.Log(),
    fc.Power(h=-1.0),
    fc.Power(h=0.5),
    fc.NeymanPearson(alpha=0.05),
    fc.NeymanPearson(alpha=0.25),
    fc.BoundedLog(alpha=0.05),
    fc.ClippedLog(b=0.1),
    fc.Dampened(b=0.1, inner=fc.Log()),
)

_PROFILES = _random_profiles(200)


def test_criterion_02_utility_oracle_equivalence():
    t0 = time.perf_counter()
    pytest.importorskip("scipy.optimize")  # the oracle's maximizer, a test extra
    worst_eu = 0.0
    worst_power = 0.0
    for prof in _PROFILES:
        lr = np.asarray(prof.lr)
        w = np.asarray(prof.counts, dtype=float)
        w /= w.sum()
        for utility in ORACLE_UTILITIES:
            closed = fc.optimal_evalue(prof, utility)
            oracle = numerical_utility_oracle(prof, utility)
            gap = abs(expected_utility(closed.evidence, prof, utility)
                      - expected_utility(oracle.evidence, prof, utility))
            worst_eu = max(worst_eu, gap)
        assert fc.optimal_evalue(prof, fc.Log()).evidence == prof.lr  # identical floats
        for h in (-1.0, 0.5):
            s = 1.0 / (1.0 - h)
            direct = lr**s / float(w @ lr**s)
            got = np.asarray(fc.optimal_evalue(prof, fc.Power(h=h)).evidence)
            worst_power = max(worst_power, float(np.abs(got - direct).max()))
    elapsed = time.perf_counter() - t0
    _announce(2, f"closed forms vs numerical maximizer, 200 profiles x "
                 f"{len(ORACLE_UTILITIES)} utilities: max EU gap = {worst_eu:.2e} "
                 f"(tol 1e-6), power-form max |diff| = {worst_power:.2e} (tol 1e-9), "
                 f"{elapsed:.1f}s (< 60s)",
              worst_eu <= 1e-6 and worst_power <= 1e-9 and elapsed < 60.0)


def test_criterion_03_exactness_everywhere():
    worst = 0.0
    for prof in _PROFILES:
        for utility in ORACLE_UTILITIES:
            ev = fc.optimal_evalue(prof, utility)
            worst = max(worst, abs(ev.orbit_mean() - 1.0))
    rng = np.random.default_rng(SEED + 2)
    for _ in range(300):
        m = int(rng.integers(2, 9))
        vals = np.round(rng.normal(0, 1.5, size=m), 1)
        prof = conditional_lr_iid(vals, lambda z: math.exp(0.6 * z))
        for utility in UTILITIES:
            ev = fc.optimal_evalue(prof, utility)
            worst = max(worst, abs(ev.orbit_mean() - 1.0))
    _announce(3, f"every constructed e-value profile is exact: "
                 f"max |orbit mean - 1| = {worst:.2e} (tol 1e-9)", worst <= 1e-9)


def test_criterion_04_classical_conformal_equivalence():
    values = (0.0, 1.0, 2.0)
    ratio = lambda z: z + 0.5
    mismatches = 0
    checked = 0
    for m in (3, 4, 5, 6):
        for alpha in (0.05, 0.2, 1 / 3, 0.5, 0.8):
            utility = fc.NeymanPearson(alpha=alpha)
            for calib in itertools.product(values, repeat=m - 1):
                classical = classical_conformal_membership(calib, values, ratio, alpha)
                for z, want in zip(values, classical):
                    e = fc.evalue_at(calib + (z,), IidRatio(ratio), utility)
                    checked += 1
                    mismatches += (e < 1 / alpha) != want
    _announce(4, f"most-powerful e-value sublevel set == classical conformal set "
                 f"on {checked} exhaustive cases (m <= 6): {mismatches} mismatches",
              mismatches == 0)


def _passed(report):
    # McReport forgives an estimate above its bound by float rounding alone;
    # that slack decides no run here, each verdict is the plain 3-SE rule's
    assert report.passed == (report.estimate <= report.bound + 3.0 * report.se), report
    return report.passed


def _mc_grid():
    idx = 0
    for utility in UTILITIES:
        for model, params in MODELS:
            for n in N_VALUES:
                idx += 1
                yield idx, utility, model, params, n


def test_criterion_05_validity_mc():
    t0 = time.perf_counter()
    failures = []
    for idx, utility, model, params, n in _mc_grid():
        cfg = McConfig(trials=100_000, seed=SEED + 100 + idx, model=model, params=params)
        report = mc_validate_evalue(cfg, MC_ALT, utility, n)
        if not _passed(report):
            failures.append((fc.utility_id(utility), model, n, report.estimate, report.se))
    elapsed = time.perf_counter() - t0
    _announce(5, f"validity (mean e-value <= 1 + 3SE) over 7 utilities x 3 models x "
                 f"n in (5, 20), 100k trials each: {len(failures)} failures, "
                 f"{elapsed:.0f}s (< 300s)", not failures and elapsed < 300.0)


def test_criterion_06_coverage_mc():
    failures = []
    for idx, utility, model, params, n in _mc_grid():
        for j, alpha in enumerate((0.05, 0.2)):
            cfg = McConfig(trials=100_000, seed=SEED + 500 + 2 * idx + j,
                           model=model, params=params)
            report = mc_validate_coverage(cfg, MC_ALT, utility, n, alpha)
            if not _passed(report):
                failures.append((fc.utility_id(utility), model, n, alpha, report.estimate))
    _announce(6, "coverage (exclusion frequency <= alpha + 3SE) at alpha in "
                 f"(0.05, 0.2) over the same grid: {len(failures)} failures",
              not failures)


def test_criterion_07_posthoc_mc():
    failures = []
    for idx, utility, model, params, n in _mc_grid():
        cfg = McConfig(trials=100_000, seed=SEED + 900 + idx, model=model, params=params)
        report = mc_validate_posthoc(cfg, MC_ALT, utility, n)
        if not _passed(report):
            failures.append((fc.utility_id(utility), model, n, report.estimate))
    _announce(7, "post-hoc validity under the adversarial level rule over the same "
                 f"grid: {len(failures)} failures", not failures)


def test_criterion_08_gaussian_closed_forms():
    ok = True
    notes = []

    c = fc.std_normal_quantile(0.975)
    lo, hi = fc.simple_interval(0.0, 1.0, 0.05)
    eq = abs(hi - c) <= 1e-10 and abs(lo + c) <= 1e-10
    ok &= eq
    notes.append(f"interval endpoints == quantile to 1e-10: {eq}")

    rng = np.random.default_rng(SEED + 40)
    trials = 100_000
    z = rng.normal(0, 1, trials)
    freq = float(np.mean((z >= lo) & (z <= hi)))
    se = math.sqrt(0.05 * 0.95 / trials)
    cov_ok = abs(freq - 0.95) <= 3 * se
    n = 3
    data = rng.normal(0.0, 1.0, (trials, n + 1))
    zbar = data[:, :n].mean(axis=1)
    half = c * math.sqrt(1 + 1 / n)
    freq_c = float(np.mean(np.abs(data[:, n] - zbar) <= half))
    cov_ok &= abs(freq_c - 0.95) <= 3 * se
    rho = 0.5
    eps = rng.normal(0.0, 1.0, (trials, 2))
    z_next = rho * eps[:, 0] + eps[:, 1]
    freq_a = float(np.mean(np.abs(z_next - rho * eps[:, 0]) <= c))
    cov_ok &= abs(freq_a - 0.95) <= 3 * se
    ok &= cov_ok
    notes.append(f"simple/composite/ar1 MC coverage within 3SE of 0.95: {cov_ok}")

    quad = pytest.importorskip("scipy.integrate").quad

    def Phi(x):
        return 0.5 * math.erfc(-x / math.sqrt(2))

    def null_mean(fn, mu, sd, tail):
        core, _ = quad(lambda v: fn(v) * math.exp(-0.5 * ((v - mu) / sd) ** 2)
                       / (sd * math.sqrt(2 * math.pi)),
                       mu - 12 * sd, mu + 12 * sd, limit=400)
        return core + tail

    from fuzzyconf.reference import composite_bounded_log_boost

    m1 = null_mean(lambda v: fc.gaussian_log_fuzzy(v, 0.0, 1.0, 3.5), 0.0, 1.0,
                   tail=2 * (1 - Phi(12 / 3.5)))
    s = math.sqrt(4 / 3)
    m2 = null_mean(lambda v: fc.gaussian_composite_log_fuzzy(v, 1.44, 1.0, 3.5, 3), 1.44, s,
                   tail=2 * (1 - Phi(12 / 3.5)))
    m3 = null_mean(lambda v: fc.gaussian_bounded_log_fuzzy(v, 0.0, 1.0, 3.5, 0.05),
                   0.0, 1.0, tail=2 * 20 * (1 - Phi(12.0)))
    quad_ok = all(abs(m - 1) <= 1e-6 for m in (m1, m2, m3))
    ok &= quad_ok
    notes.append(f"null means of the three fuzzy families == 1 +- 1e-6: {quad_ok} "
                 f"({m1 - 1:+.1e}, {m2 - 1:+.1e}, {m3 - 1:+.1e})")

    # curve regeneration with n = 3, tau = 3.5, sample mean 1.44, cap 20
    grid = np.arange(-6.0, 8.0 + 1e-9, 0.01)
    cb = composite_bounded_log_boost(1.0, 3.5, 3, 0.05)
    raw = np.array([fc.gaussian_composite_log_fuzzy(v, 1.44, 1.0, 3.5, 3) for v in grid])
    bounded = np.array([
        fc.gaussian_composite_bounded_log_fuzzy(v, 1.44, 1.0, 3.5, 3, 0.05)
        for v in grid])
    cap_region = cb * raw >= 20.0
    curve_ok = bool(np.all(bounded[cap_region] == 20.0)
                    and np.all(bounded[~cap_region] < 20.0)
                    and np.allclose(bounded[~cap_region], cb * raw[~cap_region], rtol=1e-12))
    np_curve = np.array([fc.gaussian_composite_np_evalue(v, 1.44, 1.0, 3, 0.05) for v in grid])
    lo_c, hi_c = fc.composite_interval(1.44, 1.0, 3, 0.05)
    step_want = np.where((grid < lo_c) | (grid > hi_c), 20.0, 0.0)
    curve_ok &= bool(np.array_equal(np_curve, step_want))
    ok &= curve_ok
    notes.append(f"figure curves: bounded curve capped exactly where boost*LR >= 20, "
                 f"two-level step == estimated-center interval: {curve_ok}")

    _announce(8, "; ".join(notes), ok)


def test_criterion_09_decision_guarantees():
    rng = np.random.default_rng(SEED + 60)
    problems = []
    for _ in range(2):
        k = int(rng.integers(4, 6))
        d = int(rng.integers(2, 4))
        problems.append(fc.DecisionProblem(
            tuple(f"d{i}" for i in range(d)),
            tuple(float(i) for i in range(k)),
            tuple(tuple(rng.uniform(0.2, 3.0, size=k)) for _ in range(d)),
        ))
    failures = []
    alt = IidRatio(lambda z: np.exp(0.5 * z), name="tilt")
    utility = fc.ClippedLog(b=0.1)
    for pi, problem in enumerate(problems):
        support = problem.outcomes
        k = len(support)
        base = np.linspace(1.0, 2.0, k)
        models = (
            ("iid-categorical", {"support": support, "probs": tuple(base / base.sum())}),
            ("categorical-mixture", {
                "support": support,
                "component_probs": [tuple(base / base.sum()),
                                    tuple(base[::-1] / base.sum())],
                "weights": (0.5, 0.5)}),
        )
        for mi, (model, params) in enumerate(models):
            cfg = McConfig(trials=20_000, seed=SEED + 70 + 10 * pi + mi,
                           model=model, params=params)
            for mode, kwargs in (("as-if", {"alpha": 0.2}), ("weighted", {}), ("post-hoc", {})):
                report = mc_validate_decision_risk(cfg, problem, mode, alt, utility, 6, **kwargs)
                if not _passed(report):
                    failures.append((pi, model, mode, report.estimate))
    _announce(9, "decision risk bounds (fixed-level exceedance, weighted mean ratio, "
                 f"post-hoc exceedance) on 2 problems x 2 finite models: "
                 f"{len(failures)} failures", not failures)


def test_criterion_10_gamma_mixture_bridge():
    rng = np.random.default_rng(SEED + 80)
    gammas = (0.9, 0.99, 0.999, 0.9999)
    bad = 0
    for _ in range(50):
        k = int(rng.integers(3, 7))
        d = int(rng.integers(2, 5))
        problem = fc.DecisionProblem(
            tuple(f"d{i}" for i in range(d)),
            tuple(float(i) for i in range(k)),
            tuple(tuple(rng.uniform(0.1, 5.0, size=k)) for _ in range(d)),
        )
        membership = rng.random(k) < 0.6
        if not membership.any():
            membership[int(rng.integers(0, k))] = True
        grid = fc.PlugInGrid.from_points(problem.outcomes)
        binary = fc.BinaryConfidenceSet(grid, tuple(bool(b) for b in membership), 0.1,
                                        (1.0,) * k)
        want = fc.as_if_decision(problem, binary).decision_index
        got = [fc.weighted_decision(problem, fc.gamma_mixture_fuzzy(binary, 0.1, g)).decision_index
               for g in gammas]
        agree_from = next((i for i, gi in enumerate(got) if gi == want), None)
        if agree_from is None or any(gi != want for gi in got[agree_from:]):
            bad += 1
    _announce(10, "weighted decision over the two-valued mixture matches the as-if "
                  f"decision for gamma close to 1, 50 random instances: {bad} failures",
              bad == 0)


def test_criterion_11_cli_determinism(tmp_path):
    calib = tmp_path / "calib.csv"
    calib.write_text("1.2\n0.7\n2.1\n")
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps({
        "decisions": ["hold", "act"],
        "outcomes": [-1.0, 0.0, 1.0, 2.0],
        "loss": [[1, 1, 1, 1], [2.5, 1.5, 0.5, 2.0]],
    }))
    commands = {
        "gauss": ["fuzzy", "--family", "gaussian-bounded-log", "--mu", "0", "--sigma", "1",
                  "--tau", "3.5", "--alpha", "0.05", "--grid", "-6:6:0.05"],
        "conf": ["fuzzy", "--family", "conformal", "--calib", str(calib),
                 "--utility", "dampened:0.1:log", "--ratio", "gaussian-scale:0:1:3.5",
                 "--grid", "-1:2:1"],
        "val": ["validate", "--check", "evalue", "--model", "exchangeable-mixture",
                "--utility", "power:-1", "--n", "5", "--trials", "20000", "--seed", "17"],
    }
    ok = True
    for name, argv in commands.items():
        outs = []
        for rep in range(2):
            out = tmp_path / f"{name}{rep}.out"
            extra = (["--out", str(out)] if name != "conf"
                     else ["--out", str(out), "--json", str(tmp_path / f"{name}{rep}.json")])
            assert cli_main(argv + extra) == 0
            outs.append(out.read_bytes())
        ok &= outs[0] == outs[1]
        if name == "conf":
            j0 = (tmp_path / "conf0.json").read_bytes()
            j1 = (tmp_path / "conf1.json").read_bytes()
            ok &= j0 == j1

    # decide consumes the serialized set and must certify identically every run
    set_json = tmp_path / "conf0.json"
    certs = []
    for rep in range(2):
        cert = tmp_path / f"cert{rep}.json"
        assert cli_main(["decide", "--problem", str(prob), "--set", str(set_json),
                         "--mode", "weighted", "--out", str(cert)]) == 0
        certs.append(cert.read_bytes())
    ok &= certs[0] == certs[1]
    _announce(11, f"repeated CLI runs are byte-identical (fuzzy gaussian, fuzzy "
                  f"conformal, validate, decide): {ok}", ok)
