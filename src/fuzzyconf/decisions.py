"""Certified minimax decisions from binary and fuzzy confidence sets.

Four ways to act on a confidence set, each with an auditable risk
certificate: treat a binary set's members as the only possible outcomes
(as-if); produce the whole as-if family over a ladder of levels and let the
level be chosen after seeing it (post-hoc); divide the loss pointwise by
the evidence and take minimax over the full grid (weighted); or bridge
between the last two by mixing a binary set into a two-valued fuzzy set
(gamma mixture).

All of them are one rule, ``_minimax``: the decision minimizing the worst
loss divided by the evidence. As-if passes indicator evidence, 1 on the set
and +inf off it, so the worst ratio is the worst member loss exactly; this
is the gamma -> 1 end of the gamma mixture. The Monte-Carlo decision-risk
validators in ``harness`` call the same function. The post-hoc ladder is
that rule on every rung at once: each rung's set, like the validators',
excludes by ``sets._excludes``, the rule of ``sets.sublevel_set``, so in
ascending evidence order it is a prefix, and each decision's worst member
loss is a running maximum read at the rung's member count. One stable sort
of the evidence serves every rung, in O(G log G + D*G + L*(D + log G)) for
G outcomes, D decisions and L levels.

The rule runs on Python floats, and ``DecisionProblem`` holds its loss in
one form, rows of Python floats, so this module loads no numpy. Decision
and outcome spaces are finite and the minimax scan exhaustive, so every
certificate is exactly reproducible.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import accumulate
from operator import itemgetter
from typing import Optional, Sequence, Union

from .errors import AllInfiniteRiskError, EmptyConfidenceSetError
from .sets import (
    BinaryConfidenceSet,
    FuzzyConfidenceSet,
    PlugInGrid,
    _Frozen,
    _excludes,
    _json_floats,
    _json_kind,
    _json_list,
    _json_object,
)


class DecisionProblem(_Frozen):
    """Finite decision problem: labeled decisions, outcome grid, loss matrix.

    ``loss[d][z]`` is the nonnegative finite loss of decision d when the
    future observation turns out to be outcome z.
    """

    decisions: tuple[str, ...]
    outcomes: tuple[float, ...]
    loss: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if len(self.decisions) < 1:
            raise ValueError("need at least one decision")
        if len(self.outcomes) < 2:
            raise ValueError("need at least two outcomes")
        if len(self.loss) != len(self.decisions):
            raise ValueError("loss must have one row per decision")
        for row in self.loss:
            if len(row) != len(self.outcomes):
                raise ValueError("each loss row must cover every outcome")
            for x in row:
                if not (math.isfinite(x) and x >= 0.0):
                    raise ValueError(f"losses must be finite and >= 0, got {x!r}")

    def to_json_doc(self) -> dict:
        return {
            "decisions": list(self.decisions),
            "outcomes": list(self.outcomes),
            "loss": [list(row) for row in self.loss],
        }

    @classmethod
    def from_json_doc(cls, doc: dict) -> "DecisionProblem":
        _json_object(doc, "a decision problem")
        rows = _json_list(doc.get("loss"), "loss")
        decisions = _json_list(doc.get("decisions"), "decisions")
        for i, d in enumerate(decisions):
            if not isinstance(d, str):
                raise ValueError(f"decisions[{i}] must be a string, got {_json_kind(d)}")
        return cls(
            decisions=tuple(decisions),
            outcomes=_json_floats(doc.get("outcomes"), "outcomes"),
            loss=tuple(_json_floats(row, f"loss[{d}]") for d, row in enumerate(rows)),
        )


class CertifiedDecision(_Frozen):
    """A decision together with the exact risk bound certifying it."""

    decision_index: int
    decision: str
    risk_bound: float
    mode: str  # "as-if" | "weighted" | "post-hoc"
    alpha: Optional[float] = None
    set_provenance: str = ""

    def to_json_doc(self) -> dict:
        doc = {
            "decision": self.decision,
            "decision_index": self.decision_index,
            "risk_bound": self.risk_bound,
            "mode": self.mode,
            "provenance": self.set_provenance,
        }
        if self.alpha is not None:
            doc["alpha"] = self.alpha
        return doc


class LevelDecision(_Frozen):
    """One rung of a post-hoc ladder; ``decision`` is None when the sublevel
    set at this alpha is empty (unavailable)."""

    alpha: float
    decision: Optional[CertifiedDecision]

    @property
    def available(self) -> bool:
        return self.decision is not None


def _check_grid(problem: DecisionProblem, grid: PlugInGrid) -> None:
    if tuple(grid.points) != problem.outcomes:
        raise ValueError("the confidence set's grid must equal the problem's outcomes")


def _provenance(conf: Union[BinaryConfidenceSet, FuzzyConfidenceSet]) -> str:
    return f"alternative={conf.alternative}; utility={conf.utility}"


def _minimax(loss, evidence) -> tuple[list[int], list[float]]:
    """Row-wise minimax: for each evidence row e, argmin_d max_z L(d, z)/e(z).

    ``loss`` holds D rows and ``evidence`` B rows, each over the G outcomes;
    returns (decision, risk), each a list of B. Division conventions: x/0 =
    +inf for x > 0, -0.0 evidence being zero evidence; 0 divided by anything
    is 0; x/inf = 0. The lowest decision index wins ties.
    """
    decisions, risks = [], []
    for e in evidence:
        zero = [z for z, ez in enumerate(e) if ez == 0.0]
        best, worst = 0, math.inf
        for d, row in enumerate(loss):
            # a positive loss where the evidence is zero is an infinite ratio;
            # zero losses, and the zero-evidence outcomes they cover, add 0
            risk = math.inf if any(row[z] for z in zero) else \
                max([x / ez for x, ez in zip(row, e) if x and ez], default=0.0)
            if risk < worst:
                best, worst = d, risk
        decisions.append(best)
        risks.append(worst)
    return decisions, risks


def _indicator(members) -> list[list[float]]:
    # rows of 1 on the set and +inf off it: losses are finite and >= 0, so
    # L/1 = L and L/inf = 0 make the worst ratio over a nonempty set its
    # worst member loss
    return [[1.0 if m else math.inf for m in row] for row in members]


def _certify(
    problem: DecisionProblem, evidence: Sequence[float], mode: str, alpha: Optional[float],
    conf: Union[BinaryConfidenceSet, FuzzyConfidenceSet],
) -> CertifiedDecision:
    (d,), (r,) = _minimax(problem.loss, [evidence])
    if r == math.inf:
        raise AllInfiniteRiskError("every decision has infinite weighted risk; clip the "
                                   "evidence away from zero (e.g. a clipped-log utility)")
    return CertifiedDecision(
        d, problem.decisions[d], float(r),
        mode=mode, alpha=alpha, set_provenance=_provenance(conf),
    )


def as_if_decision(problem: DecisionProblem, conf_set: BinaryConfidenceSet) -> CertifiedDecision:
    """Minimax decision treating the set's members as the possible outcomes.

    Returns the decision minimizing the worst loss over member outcomes
    (ties broken toward the lowest decision index) and that worst loss as
    the certified risk bound: the weighted rule over indicator evidence.
    Raises EmptyConfidenceSetError on an empty set: widen alpha or the grid.
    """
    _check_grid(problem, conf_set.grid)
    if conf_set.is_empty():
        raise EmptyConfidenceSetError(
            f"confidence set at alpha={conf_set.alpha:g} has no members"
        )
    (evidence,) = _indicator([conf_set.membership])
    return _certify(problem, evidence, "as-if", conf_set.alpha, conf_set)


def post_hoc_decisions(
    problem: DecisionProblem, fuzzy: FuzzyConfidenceSet, levels: Sequence[float]
) -> list[LevelDecision]:
    """The as-if decision at every level of a ladder, from one fuzzy set.

    Levels must be sorted and lie in (0, 1]. Whichever rung is picked later,
    in however data-dependent a fashion, inherits the post-hoc guarantee.
    Empty rungs are marked unavailable rather than raising. Each rung is the
    as-if decision over {z : evidence(z) < 1/alpha}: its members are the
    first ones in a stable ascending sort of the evidence, so its risks are
    running maxima of the loss rows in that order, read at its member count.
    """
    lv = [float(a) for a in levels]
    if any(not 0.0 < a <= 1.0 for a in lv):
        raise ValueError("levels must lie in (0, 1]")
    if any(b < a for a, b in zip(lv, lv[1:])):
        raise ValueError("levels must be sorted ascending")
    _check_grid(problem, fuzzy.grid)

    e = fuzzy.evidence
    order = sorted(range(len(e)), key=e.__getitem__)
    ranked = [e[z] for z in order]
    # each decision's worst loss over the first k outcomes in that order; a
    # zero loss reads as +0.0, as the indicator rule's L/inf = 0 gives it
    worst = [list(accumulate([row[z] or 0.0 for z in order], max)) for row in problem.loss]
    provenance = _provenance(fuzzy)
    out = []
    for a in lv:
        # the rung keeps what the exclusion rule does not exclude: a prefix
        count = bisect_left(ranked, True, key=lambda x: _excludes(x, a))
        if count == 0:
            out.append(LevelDecision(a, None))
            continue
        # min keeps the first of equal risks: the lowest decision index
        d, r = min(enumerate(w[count - 1] for w in worst), key=itemgetter(1))
        out.append(LevelDecision(a, CertifiedDecision(
            d, problem.decisions[d], float(r),
            mode="post-hoc", alpha=a, set_provenance=provenance)))
    return out


def weighted_decision(problem: DecisionProblem, fuzzy: FuzzyConfidenceSet) -> CertifiedDecision:
    """Minimax decision over the loss divided pointwise by the evidence.

    Outcomes with strong evidence against them are downweighted; the
    certified bound R satisfies E[L(d*, Z)/R] <= 1. Division conventions:
    x/0 = +inf for x > 0, 0/0 = 0, x/inf = 0. Raises AllInfiniteRiskError
    when every decision has infinite weighted risk (some outcome has zero
    evidence and positive loss under every decision); clipping the evidence
    away from zero avoids this.
    """
    _check_grid(problem, fuzzy.grid)
    return _certify(problem, fuzzy.evidence, "weighted", None, fuzzy)


def gamma_mixture_fuzzy(
    conf_set: BinaryConfidenceSet, alpha: float, gamma: float
) -> FuzzyConfidenceSet:
    """Two-valued fuzzy set bridging binary and weighted decisions.

    Evidence is gamma/alpha outside the set and (1-gamma)/alpha inside. As
    gamma -> 1 the weighted decision over this set reproduces the as-if
    decision over the binary set.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    outside = gamma / alpha
    inside = (1.0 - gamma) / alpha
    evidence = tuple(inside if m else outside for m in conf_set.membership)
    return FuzzyConfidenceSet(
        conf_set.grid, evidence, conf_set.calibration,
        alternative=conf_set.alternative,
        utility=f"gamma-mixture(alpha={alpha:g},gamma={gamma:g})",
    )
