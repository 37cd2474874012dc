"""Exception hierarchy shared across the package."""


class FuzzyconfError(Exception):
    """Base class for all fuzzyconf errors."""


class DomainError(FuzzyconfError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class AllZeroRatioError(FuzzyconfError):
    """The density ratio vanishes on every element of the tuple, so the
    alternative puts no mass anywhere on the orbit."""


class NormalizationFailureError(FuzzyconfError):
    """No normalization constant makes the shaped e-value exact."""


class EmptyConfidenceSetError(FuzzyconfError):
    """A minimax decision was requested over an empty confidence set;
    widen alpha or the outcome grid."""


class AllInfiniteRiskError(FuzzyconfError):
    """Every decision has infinite evidence-weighted risk; clip the
    evidence away from zero (e.g. a clipped-log utility) and retry."""


class ZeroDensityError(FuzzyconfError):
    """A density used by a brute-force oracle is zero on an observed value."""
