"""Permutation orbits of data tuples.

A tuple of observations, all its permutations, and the canonical ascending
representative of that collection. Exchangeable laws are uniform on each
orbit, so every conditional computation downstream (likelihood ratios,
e-values) only ever needs the representative, the multiplicities of its
distinct values, and the rank of the final slot.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from typing import Iterable, Sequence, Union


def _as_finite_floats(values: Iterable[float]) -> tuple[float, ...]:
    out = []
    for v in values:
        x = float(v)
        if not math.isfinite(x):
            raise ValueError(f"observations must be finite, got {v!r}")
        # +0.0 collapses -0.0 onto 0.0 so == agrees with bit equality
        out.append(x + 0.0)
    return tuple(out)


@dataclass(frozen=True)
class DataTuple:
    """Ordered tuple of real observations; the final slot is the prediction target."""

    elements: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", _as_finite_floats(self.elements))
        if len(self.elements) < 2:
            raise ValueError("a data tuple needs at least two elements")

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, i):
        return self.elements[i]

    @property
    def last(self) -> float:
        return self.elements[-1]

    @property
    def lead(self) -> tuple[float, ...]:
        """All elements except the final (target) slot."""
        return self.elements[:-1]


TupleLike = Union[DataTuple, Sequence[float]]


def tuple_values(data: TupleLike) -> tuple[float, ...]:
    """Coerce a DataTuple or plain sequence to a validated tuple of floats."""
    if isinstance(data, DataTuple):
        return data.elements
    return _as_finite_floats(data)


@dataclass(frozen=True)
class Orbit:
    """Canonical representative (ascending sort) of a permutation orbit.

    Two tuples with equal multisets of values produce equal orbits. Ties are
    detected by exact floating-point equality: approximate tie detection
    would silently change the orbit structure.
    """

    representative: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.representative:
            raise ValueError("orbit representative must be nonempty")
        rep = self.representative
        if any(b < a for a, b in zip(rep, rep[1:])):
            raise ValueError("orbit representative must be sorted ascending")

    @property
    def size(self) -> int:
        return len(self.representative)

    @cached_property
    def values(self) -> tuple[float, ...]:
        """Distinct values in ascending order."""
        return tuple(v for v, _ in groupby(self.representative))

    @cached_property
    def counts(self) -> tuple[int, ...]:
        """Multiplicity of each distinct value; sums to ``size``."""
        return tuple(sum(1 for _ in grp) for _, grp in groupby(self.representative))


def orbit_of(data: TupleLike) -> Orbit:
    """Canonical orbit of a tuple; invariant under any permutation of the input."""
    vals = tuple_values(data)
    if not vals:
        raise ValueError("cannot form the orbit of an empty tuple")
    return Orbit(tuple(sorted(vals)))


def rank_of_last(data: TupleLike) -> int:
    """1-based rank of the final element within the ascending representative.

    Equal values share a block of indices; the lowest index of the block is
    returned, which makes the rank deterministic under ties.
    """
    vals = tuple_values(data)
    if not vals:
        raise ValueError("cannot rank an empty tuple")
    rep = sorted(vals)
    return bisect_left(rep, vals[-1]) + 1
