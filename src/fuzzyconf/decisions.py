"""Certified minimax decisions from binary and fuzzy confidence sets.

Four ways to act on a confidence set, each with an auditable risk
certificate: treat a binary set's members as the only possible outcomes
(as-if); produce the whole as-if family over a ladder of levels and let the
level be chosen after seeing it (post-hoc); divide the loss pointwise by
the evidence and take minimax over the full grid (weighted); or bridge
between the last two by mixing a binary set into a two-valued fuzzy set
(gamma mixture).

All of them are one rule, ``_minimax``: the decision minimizing the worst
loss divided by the evidence. As-if and each post-hoc rung pass indicator
evidence, 1 on the set and +inf off it, so the worst ratio is the worst
member loss exactly; this is the gamma -> 1 end of the gamma mixture. The
Monte-Carlo decision-risk validators in ``harness`` call the same function.

Decision and outcome spaces are finite and the minimax scan exhaustive, so
every certificate is exactly reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import AllInfiniteRiskError, EmptyConfidenceSetError
from .sets import (
    BinaryConfidenceSet,
    FuzzyConfidenceSet,
    PlugInGrid,
    _json_floats,
    _json_list,
    _json_object,
)


@dataclass(frozen=True)
class DecisionProblem:
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

    @property
    def loss_matrix(self) -> np.ndarray:
        return np.asarray(self.loss, dtype=float)

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
        return cls(
            decisions=tuple(str(d) for d in _json_list(doc.get("decisions"), "decisions")),
            outcomes=_json_floats(doc.get("outcomes"), "outcomes"),
            loss=tuple(_json_floats(row, f"loss[{d}]") for d, row in enumerate(rows)),
        )


@dataclass(frozen=True)
class CertifiedDecision:
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


@dataclass(frozen=True)
class LevelDecision:
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


def _minimax(loss: np.ndarray, evidence: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise minimax: for each evidence row e, argmin_d max_z L(d, z)/e(z).

    ``loss`` is (D, G) and ``evidence`` (B, G); returns (decision, risk), each
    of shape (B,). Division conventions: x/0 = +inf for x > 0, 0 divided by
    anything is 0, x/inf = 0. The lowest decision index wins ties.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(loss == 0.0, 0.0, loss / evidence[:, None, :])
    risks = ratios.max(axis=2)
    d = risks.argmin(axis=1)
    return d, risks[np.arange(len(d)), d]


def _indicator(members) -> np.ndarray:
    # 1 on the set, +inf off it: losses are finite and >= 0, so L/1 = L and
    # L/inf = 0 make the worst ratio over a nonempty set its worst member loss
    return np.where(members, 1.0, np.inf)


def _certify(
    problem: DecisionProblem, evidence: np.ndarray, mode: str, alpha: Optional[float],
    conf: Union[BinaryConfidenceSet, FuzzyConfidenceSet],
) -> CertifiedDecision:
    d, r = _minimax(problem.loss_matrix, evidence[None, :])
    if np.isinf(r[0]):
        raise AllInfiniteRiskError("every decision has infinite weighted risk; clip the "
                                   "evidence away from zero (e.g. a clipped-log utility)")
    d = int(d[0])
    return CertifiedDecision(
        d, problem.decisions[d], float(r[0]),
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
    return _certify(problem, _indicator(conf_set.membership), "as-if", conf_set.alpha, conf_set)


def post_hoc_decisions(
    problem: DecisionProblem, fuzzy: FuzzyConfidenceSet, levels: Sequence[float]
) -> list[LevelDecision]:
    """The as-if decision at every level of a ladder, from one fuzzy set.

    Levels must be sorted and lie in (0, 1]. Whichever rung is picked later,
    in however data-dependent a fashion, inherits the post-hoc guarantee.
    Empty rungs are marked unavailable rather than raising. Each rung is the
    as-if decision over {z : evidence(z) < 1/alpha}, scanned on arrays.
    """
    lv = [float(a) for a in levels]
    if any(not 0.0 < a <= 1.0 for a in lv):
        raise ValueError("levels must lie in (0, 1]")
    if any(b < a for a, b in zip(lv, lv[1:])):
        raise ValueError("levels must be sorted ascending")
    _check_grid(problem, fuzzy.grid)

    e = np.asarray(fuzzy.evidence, dtype=float)
    out = []
    for a in lv:
        members = e < 1.0 / a
        out.append(LevelDecision(a, _certify(problem, _indicator(members), "post-hoc", a, fuzzy)
                                 if members.any() else None))
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
    return _certify(problem, np.asarray(fuzzy.evidence, dtype=float), "weighted", None, fuzzy)


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
