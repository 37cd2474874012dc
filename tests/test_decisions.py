import math

import numpy as np
import pytest

from fuzzyconf.sets import (
    BinaryConfidenceSet, FuzzyConfidenceSet, PlugInGrid, _excludes, sublevel_set,
)
from fuzzyconf.decisions import (
    CertifiedDecision,
    DecisionProblem,
    LevelDecision,
    _indicator,
    _minimax,
    as_if_decision,
    gamma_mixture_fuzzy,
    post_hoc_decisions,
    weighted_decision,
)
from fuzzyconf.errors import AllInfiniteRiskError, EmptyConfidenceSetError


def _grid(k):
    return PlugInGrid.from_points(tuple(float(i) for i in range(k)))


def _fuzzy(evidence):
    return FuzzyConfidenceSet(_grid(len(evidence)), tuple(float(e) for e in evidence), ())


def _binary(membership, alpha=0.1, evidence=None):
    k = len(membership)
    ev = tuple(float(e) for e in evidence) if evidence else (1.0,) * k
    return BinaryConfidenceSet(_grid(k), tuple(membership), alpha, ev)


def _member_scan(loss, members):
    # the as-if rule as a loop: worst member loss, lowest index on ties
    best = None
    for d, row in enumerate(loss):
        risk = max(x for x, m in zip(row, members) if m)
        if best is None or risk < best[1]:
            best = (d, risk)
    return best


def _weighted_scan(loss, evidence):
    # the weighted rule as a loop over the division conventions
    best = None
    for d, row in enumerate(loss):
        risk = 0.0
        for x, e in zip(row, evidence):
            if x == 0.0 or e == math.inf:
                ratio = 0.0
            elif e == 0.0:
                ratio = math.inf
            else:
                ratio = x / e
            risk = max(risk, ratio)
        if best is None or risk < best[1]:
            best = (d, risk)
    return best


def test_minimax_matches_the_per_row_scans():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        d, b, g = int(rng.integers(1, 6)), int(rng.integers(1, 6)), int(rng.integers(2, 7))
        # small integers make ties and zero losses; the evidence takes 0, -0.0 and inf
        loss = rng.integers(0, 4, size=(d, g)).astype(float)
        if rng.random() < 0.5:
            loss = loss * rng.uniform(0.1, 3.0, size=(d, g))
        evidence = rng.choice((0.0, -0.0, 0.5, 1.0, 2.0, 3.0, math.inf), size=(b, g))
        members = rng.random((b, g)) < rng.uniform(0.1, 0.9)
        members[np.arange(b), rng.integers(0, g, size=b)] = True  # nonempty
        members[0] = False
        members[0, rng.integers(0, g)] = True  # a single-member set
        got_d, got_r = _minimax(loss, evidence)
        ind_d, ind_r = _minimax(loss, _indicator(members))
        for row in range(b):
            assert (got_d[row], got_r[row]) == _weighted_scan(loss, evidence[row])
            assert (ind_d[row], ind_r[row]) == _member_scan(loss, members[row])


def test_as_if_singleton_is_oracle_decision():
    problem = DecisionProblem(("a", "b"), (0.0, 1.0, 2.0), ((5.0, 1.0, 4.0), (2.0, 3.0, 0.0)))
    cert = as_if_decision(problem, _binary((False, True, False)))
    assert cert.decision == "a" and cert.risk_bound == 1.0


def test_as_if_constant_loss_tie_breaks_low():
    problem = DecisionProblem(("a", "b", "c"), (0.0, 1.0), ((7.0, 7.0),) * 3)
    cert = as_if_decision(problem, _binary((True, True)))
    assert cert.decision_index == 0 and cert.risk_bound == 7.0


def test_as_if_worked_minimax():
    problem = DecisionProblem(("d1", "d2"), (0.0, 1.0, 2.0), ((1.0, 2.0, 3.0), (2.0, 2.0, 2.0)))
    cert = as_if_decision(problem, _binary((True, True, True)))
    assert cert.decision_index == 1 and cert.risk_bound == 2.0
    # shrinking the set flips the minimax toward the spiky decision
    cert2 = as_if_decision(problem, _binary((True, False, False)))
    assert cert2.decision_index == 0 and cert2.risk_bound == 1.0


def test_as_if_empty_raises():
    problem = DecisionProblem(("a",), (0.0, 1.0), ((1.0, 2.0),))
    with pytest.raises(EmptyConfidenceSetError):
        as_if_decision(problem, _binary((False, False)))


def test_as_if_grid_mismatch():
    problem = DecisionProblem(("a",), (0.0, 2.0), ((1.0, 2.0),))
    with pytest.raises(ValueError):
        as_if_decision(problem, _binary((True, True)))


def test_problem_validation():
    with pytest.raises(ValueError):
        DecisionProblem((), (0.0, 1.0), ())
    with pytest.raises(ValueError):
        DecisionProblem(("a",), (0.0,), ((1.0,),))
    with pytest.raises(ValueError):
        DecisionProblem(("a",), (0.0, 1.0), ((1.0,),))
    with pytest.raises(ValueError):
        DecisionProblem(("a",), (0.0, 1.0), ((1.0, -2.0),))
    with pytest.raises(ValueError):
        DecisionProblem(("a",), (0.0, 1.0), ((1.0, math.inf),))


def test_problem_json_round_trip():
    problem = DecisionProblem(("a", "b"), (0.0, 1.0), ((1.0, 2.0), (3.0, 0.5)))
    assert DecisionProblem.from_json_doc(problem.to_json_doc()) == problem


def test_post_hoc_full_grid_level():
    problem = DecisionProblem(("d1", "d2"), (0.0, 1.0, 2.0), ((1.0, 2.0, 3.0), (2.0, 2.0, 2.0)))
    fset = _fuzzy((1.0, 1.0, 1.0))
    ladder = post_hoc_decisions(problem, fset, (0.05, 0.2, 0.5))
    assert all(ld.available for ld in ladder)
    # evidence is flat so every level sees the full grid and the same decision
    assert len({ld.decision.decision_index for ld in ladder}) == 1
    assert ladder[0].decision.risk_bound == 2.0
    assert ladder[0].decision.mode == "post-hoc"


def test_post_hoc_marks_empty_levels_unavailable():
    problem = DecisionProblem(("a",), (0.0, 1.0), ((1.0, 2.0),))
    fset = _fuzzy((1.5, 2.0))
    first, empty = post_hoc_decisions(problem, fset, (0.05, 0.9))
    assert isinstance(first, LevelDecision) and first.available and first.alpha == 0.05
    assert (first.decision.decision, first.decision.risk_bound, first.decision.alpha) == \
        ("a", 2.0, 0.05)
    # sublevel sets shrink as alpha grows: 1/0.9 = 1.11 excludes everything
    assert empty == LevelDecision(0.9, None) and not empty.available


def test_post_hoc_risk_monotone_in_alpha():
    rng = np.random.default_rng(5)
    for _ in range(40):
        k = int(rng.integers(3, 7))
        d = int(rng.integers(1, 4))
        problem = DecisionProblem(
            tuple(f"d{i}" for i in range(d)),
            tuple(float(i) for i in range(k)),
            tuple(tuple(rng.uniform(0, 5, size=k)) for _ in range(d)),
        )
        fset = _fuzzy(rng.uniform(0, 25, size=k))
        ladder = post_hoc_decisions(problem, fset, (0.04, 0.1, 0.25, 0.6, 0.95))
        risks = [ld.decision.risk_bound for ld in ladder if ld.available]
        assert all(b <= a + 1e-12 for a, b in zip(risks, risks[1:]))


def test_post_hoc_matches_as_if_on_each_sublevel_set():
    levels = (0.04, 0.1, 0.1, 0.25, 0.5, 0.6, 0.95, 1.0)
    rng = np.random.default_rng(12)
    for _ in range(200):
        k = int(rng.integers(2, 8))
        d = int(rng.integers(1, 5))
        # small integer losses and evidence on 1/alpha boundaries make ties
        loss = tuple(tuple(float(x) for x in rng.integers(0, 4, size=k)) for _ in range(d))
        problem = DecisionProblem(tuple(f"d{i}" for i in range(d)),
                                  tuple(float(i) for i in range(k)), loss)
        evidence = rng.choice((0.0, 1.0, 2.0, 4.0, 10.0, 25.0, math.inf), size=k)
        fset = FuzzyConfidenceSet(_grid(k), tuple(evidence.tolist()), (), "alt", "u")
        ladder = post_hoc_decisions(problem, fset, levels)
        for rung, a in zip(ladder, levels):
            binary = sublevel_set(fset, a)
            if binary.is_empty():
                assert not rung.available
                continue
            cert = as_if_decision(problem, binary)
            assert rung.decision == CertifiedDecision(
                cert.decision_index, cert.decision, cert.risk_bound,
                mode="post-hoc", alpha=a, set_provenance=cert.set_provenance)


def test_post_hoc_ladder_is_the_minimax_rule_on_every_rung():
    # the sorted-evidence ladder against _minimax over each rung's indicator
    # evidence, its members those sets._excludes keeps; levels sit exactly on
    # and one float beside 1/e for evidence values e on the grid, and go down
    # to tiny alpha, where only infinite evidence is excluded
    rng = np.random.default_rng(30)
    choices = (0.0, -0.0, 0.5, 1.0, 1.0 / 3.0, 3.0, 7.0, 20.0, 1e300, math.inf)
    for _ in range(400):
        d, g = int(rng.integers(1, 6)), int(rng.integers(2, 12))
        loss = rng.integers(0, 4, size=(d, g)).astype(float)  # ties and zero losses
        if rng.random() < 0.5:
            loss = loss * rng.uniform(0.1, 3.0, size=(d, g))
        loss[rng.random((d, g)) < 0.2] = -0.0
        evidence = rng.choice(choices, size=g) if rng.random() < 0.7 else rng.uniform(0, 30, g)
        edges = {1.0 / e for e in evidence.tolist() if 1.0 <= e}
        levels = sorted({1.0, 1e-300, 5e-324, *rng.uniform(0.01, 1.0, 3).tolist(), *edges,
                         *(math.nextafter(a, 0.0) for a in edges),
                         *(math.nextafter(a, 1.0) for a in edges if a < 1.0)} - {0.0})
        names = tuple(f"d{i}" for i in range(d))
        problem = DecisionProblem(names, tuple(float(i) for i in range(g)),
                                  tuple(map(tuple, loss.tolist())))
        fset = _fuzzy(evidence)
        for rung, a in zip(post_hoc_decisions(problem, fset, levels), levels):
            members = [not _excludes(e, a) for e in fset.evidence]
            if not any(members):
                assert rung == LevelDecision(a, None)
                continue
            (want_d,), (want_r,) = _minimax(problem.loss, _indicator([members]))
            cert = rung.decision
            assert (cert.decision_index, cert.decision, cert.alpha, cert.mode) == \
                (want_d, names[want_d], a, "post-hoc")
            # bit for bit: a -0.0 loss reads as +0.0 on both paths
            assert math.copysign(1.0, cert.risk_bound) == 1.0 and cert.risk_bound == want_r


def test_post_hoc_level_validation():
    problem = DecisionProblem(("a",), (0.0, 1.0), ((1.0, 2.0),))
    fset = _fuzzy((1.0, 1.0))
    with pytest.raises(ValueError):
        post_hoc_decisions(problem, fset, (0.5, 0.1))
    with pytest.raises(ValueError):
        post_hoc_decisions(problem, fset, (0.0, 0.5))


def test_weighted_flat_evidence_reduces_to_as_if():
    problem = DecisionProblem(("d1", "d2"), (0.0, 1.0, 2.0), ((1.0, 2.0, 3.0), (2.0, 2.0, 2.0)))
    cert = weighted_decision(problem, _fuzzy((1.0, 1.0, 1.0)))
    full = as_if_decision(problem, _binary((True, True, True)))
    assert cert.decision_index == full.decision_index
    assert cert.risk_bound == full.risk_bound
    assert cert.mode == "weighted"


def test_weighted_worked_example():
    problem = DecisionProblem(("d1", "d2"), (0.0, 1.0), ((1.0, 2.0), (2.0, 1.0)))
    cert = weighted_decision(problem, _fuzzy((1.0, 2.0)))
    # d1: max(1/1, 2/2) = 1; d2: max(2/1, 1/2) = 2
    assert cert.decision_index == 0 and cert.risk_bound == 1.0


def test_weighted_division_conventions():
    # zero loss on a zero-evidence outcome contributes nothing (0/0 = 0)
    problem = DecisionProblem(("a", "b"), (0.0, 1.0), ((0.0, 1.0), (4.0, 1.0)))
    cert = weighted_decision(problem, _fuzzy((0.0, 2.0)))
    assert cert.decision_index == 0 and cert.risk_bound == 0.5
    # infinite evidence kills the loss contribution (x/inf = 0)
    cert2 = weighted_decision(problem, _fuzzy((math.inf, 1.0)))
    assert cert2.risk_bound == 1.0


def test_weighted_all_infinite_raises():
    problem = DecisionProblem(("a", "b"), (0.0, 1.0), ((1.0, 1.0), (2.0, 3.0)))
    with pytest.raises(AllInfiniteRiskError):
        weighted_decision(problem, _fuzzy((0.0, 2.0)))


def test_gamma_mixture_values():
    binary = _binary((True, False), alpha=0.2)
    fset = gamma_mixture_fuzzy(binary, 0.2, 0.2)
    # evidence outside = gamma/alpha = 1 (neutral), inside = (1-gamma)/alpha = 4
    assert fset.evidence == (4.0, 1.0)
    with pytest.raises(ValueError):
        gamma_mixture_fuzzy(binary, 0.2, 1.0)
    for alpha in (0.0, 1.0, math.nan):
        with pytest.raises(ValueError, match=r"^alpha must lie in \(0, 1\)$"):
            gamma_mixture_fuzzy(binary, alpha, 0.2)


def test_gamma_mixture_mean_formula_and_limit():
    # E[evidence(Z)] = (1-gamma)/alpha + P(excluded) * (2*gamma - 1)/alpha,
    # which converges to P(excluded)/alpha <= 1 as gamma -> 1
    binary = _binary((True, True, False, False), alpha=0.5)
    probs = np.array([0.4, 0.35, 0.15, 0.10])  # excluded mass 0.25 <= alpha
    p_out = 0.25
    for gamma in (0.3, 0.7, 0.9, 0.999, 0.999999):
        fset = gamma_mixture_fuzzy(binary, 0.5, gamma)
        mean = float(probs @ np.array(fset.evidence))
        want = (1 - gamma) / 0.5 + p_out * (2 * gamma - 1) / 0.5
        assert mean == pytest.approx(want, rel=1e-12)
    assert mean == pytest.approx(p_out / 0.5, abs=1e-5)
    assert mean <= 1.0


def test_gamma_bridge_recovers_as_if():
    rng = np.random.default_rng(99)
    gammas = (0.9, 0.99, 0.999, 0.9999)
    for _ in range(50):
        k = int(rng.integers(3, 7))
        d = int(rng.integers(2, 5))
        problem = DecisionProblem(
            tuple(f"d{i}" for i in range(d)),
            tuple(float(i) for i in range(k)),
            tuple(tuple(rng.uniform(0.1, 5, size=k)) for _ in range(d)),
        )
        membership = rng.random(k) < 0.6
        if not membership.any():
            membership[int(rng.integers(0, k))] = True
        binary = _binary(tuple(bool(m) for m in membership), alpha=0.1)
        want = as_if_decision(problem, binary).decision_index
        got = [
            weighted_decision(problem, gamma_mixture_fuzzy(binary, 0.1, g)).decision_index
            for g in gammas
        ]
        agree_from = next((i for i, gi in enumerate(got) if gi == want), None)
        assert agree_from is not None, (problem, membership, got, want)
        assert all(gi == want for gi in got[agree_from:])


def test_certificate_json():
    cert = CertifiedDecision(1, "act", 2.5, "as-if", alpha=0.1, set_provenance="p")
    doc = cert.to_json_doc()
    assert doc["decision"] == "act" and doc["alpha"] == 0.1 and doc["risk_bound"] == 2.5
