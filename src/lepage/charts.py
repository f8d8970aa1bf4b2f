"""Fibered-chart model: base/fiber dimensions, jet order, coordinate naming.

A single global chart is assumed.  Coordinates are the base variables
``x^i`` (1 <= i <= n) and the jet variables ``y^sigma_J`` where J is a
sorted multi-index over {1..n} of length at most the chart's jet order.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial
from typing import Iterator, NamedTuple, Union


class ChartError(ValueError):
    """An index or expression does not fit the chart."""


class MultiIndex(tuple):
    """Sorted symmetric multi-index (j1 <= ... <= jk) of base directions."""

    def __new__(cls, entries: tuple[int, ...] | list[int] = ()) -> "MultiIndex":
        items = tuple(sorted(entries))
        for j in items:
            if not isinstance(j, int) or j < 1:
                raise ChartError(f"multi-index entries must be positive integers, got {j!r}")
        return super().__new__(cls, items)

    @property
    def order(self) -> int:
        return len(self)

    def multiplicity(self) -> int:
        """Number of distinct orderings of the index: k! / prod(counts!)."""
        mu = factorial(len(self))
        for j in set(self):
            mu //= factorial(self.count(j))
        return mu

    def append(self, i: int) -> "MultiIndex":
        """Return the index with one more entry, re-sorted."""
        return MultiIndex(tuple(self) + (i,))


class BaseVar(NamedTuple):
    """The base coordinate x^i."""

    i: int


class FiberVar(NamedTuple):
    """The jet coordinate y^sigma_J (J sorted; J empty means y^sigma)."""

    sigma: int
    jj: MultiIndex


JetVariable = Union[BaseVar, FiberVar]


def jet_order(v: JetVariable) -> int:
    """Jet order of a coordinate: 0 for x^i and y^sigma, |J| otherwise."""
    return len(v.jj) if isinstance(v, FiberVar) else 0


def var_key(v: JetVariable) -> tuple:
    """Total order on coordinates: base first by i, then fiber by (sigma, |J|, J).
    It orders the coframe too: dx^i sorts like x^i and omega^sigma_J like y^sigma_J."""
    if len(v) == 1:
        return (0, v[0])
    sigma, jj = v
    return (1, sigma, len(jj), tuple(jj))


@dataclass(frozen=True)
class ChartContext:
    """Dimensions and jet order of the ambient chart.

    n: base dimension, m: fiber dimension, max_order: highest jet order
    of coordinates in play.
    """

    n: int
    m: int
    max_order: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1 or self.max_order < 0:
            raise ChartError(
                f"need n >= 1, m >= 1, max_order >= 0, got ({self.n}, {self.m}, {self.max_order})"
            )
        if self.n > 9:
            # a jet index J is spelled as its digits run together (y1_12)
            raise ChartError(
                f"need n <= 9, got n = {self.n}: jet indices are spelled as single digits"
            )

    @property
    def base_indices(self) -> range:
        return range(1, self.n + 1)

    @property
    def fiber_indices(self) -> range:
        return range(1, self.m + 1)

    def multi_indices(self, k: int) -> Iterator[MultiIndex]:
        """All sorted multi-indices of length k over {1..n}."""
        for combo in itertools.combinations_with_replacement(self.base_indices, k):
            yield MultiIndex(combo)

    def coordinates(self) -> Iterator[JetVariable]:
        """All chart coordinates, base first, then fiber layers by order."""
        for i in self.base_indices:
            yield BaseVar(i)
        for k in range(self.max_order + 1):
            for sigma in self.fiber_indices:
                for jj in self.multi_indices(k):
                    yield FiberVar(sigma, jj)

    def contains(self, v: JetVariable) -> bool:
        if isinstance(v, BaseVar):
            return 1 <= v.i <= self.n
        return (
            1 <= v.sigma <= self.m
            and len(v.jj) <= self.max_order
            and all(1 <= j <= self.n for j in v.jj)
        )

    def check_variable(self, v: JetVariable) -> None:
        if not self.contains(v):
            raise ChartError(f"variable {v!r} does not fit chart {self}")

    def at_order(self, k: int) -> "ChartContext":
        """The same chart with jet order k."""
        if k == self.max_order:
            return self
        return ChartContext(self.n, self.m, k)

    def lifted(self, delta: int = 1) -> "ChartContext":
        return self.at_order(self.max_order + delta)
