"""Exception hierarchy shared across the package.

The command line maps each class to its exit code: a ``NumericFailure``
exits 3, any other ``FuzzyconfError`` exits 2, as a ``ValueError`` for an
argument out of its domain does.
"""


class FuzzyconfError(Exception):
    """Base class for all fuzzyconf errors."""


class NumericFailure(FuzzyconfError):
    """Valid inputs for which the computation has no answer: no exact
    e-value, no nonempty set, no finite risk."""


class AllZeroRatioError(NumericFailure):
    """The density ratio vanishes on every element of the tuple, so the
    alternative puts no mass anywhere on the orbit."""


class NormalizationFailureError(NumericFailure):
    """No normalization constant makes the shaped e-value exact."""


class EmptyConfidenceSetError(NumericFailure):
    """A minimax decision was requested over an empty confidence set;
    widen alpha or the outcome grid."""


class AllInfiniteRiskError(NumericFailure):
    """Every decision has infinite evidence-weighted risk; clip the
    evidence away from zero (e.g. a clipped-log utility) and retry."""
