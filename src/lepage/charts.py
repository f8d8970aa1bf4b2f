"""Fibered-chart model: base/fiber dimensions, jet order, coordinate naming.

A single global chart is assumed.  Coordinates are the base variables
``x^i`` (1 <= i <= n) and the jet variables ``y^sigma_J`` where J is a
sorted multi-index over {1..n} of length at most the chart's jet order.
"""
from __future__ import annotations

import itertools
from math import factorial
from operator import attrgetter
from typing import Iterator, NamedTuple, Union


class ChartError(ValueError):
    """An index or expression does not fit the chart."""


class Record:
    """An immutable value with named fields, the base of the package's records.

    A subclass declares its fields as class annotations, in constructor order,
    and a field's default as its class value (``label: str = ""``);
    ``_fields`` holds their names.  The base gives:

    * a constructor that takes the fields by position or keyword and fills the
      rest from the defaults.  A class whose constructor is hot or checks its
      arguments writes its own, which stores each field into ``__dict__``;
    * immutability: assigning or deleting an attribute raises
      ``AttributeError``.  ``lepage.expr``, the one writer of caches on a
      record (a node's), writes them into ``__dict__`` directly;
    * ``==`` by class and field values, ``NotImplemented`` across classes, and
      a hash of the field values; both read the fields through one
      ``operator.attrgetter`` per class;
    * ``repr`` as ``Name(field=value, ...)``.

    Pickling and copying carry the instance ``__dict__``.
    """

    _fields = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        if cls._fields:
            cls._values = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs) -> None:
        cls, names = type(self), self._fields
        rest = names[len(args):]
        if len(args) > len(names) or not kwargs.keys() <= set(rest) or any(
                name not in kwargs and not hasattr(cls, name) for name in rest):
            raise TypeError(f"{cls.__name__}() takes the fields {', '.join(names)}, "
                            f"got {len(args)} by position and {', '.join(kwargs) or 'none'} by name")
        d = self.__dict__
        d.update(zip(names, args))
        for name in rest:
            d[name] = kwargs[name] if name in kwargs else getattr(cls, name)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot set or delete {name!r}: {type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class MultiIndex(tuple):
    """Sorted symmetric multi-index (j1 <= ... <= jk) of base directions."""

    def __new__(cls, entries: tuple[int, ...] | list[int] = ()) -> "MultiIndex":
        items = tuple(sorted(entries))
        for j in items:
            if type(j) is not int or j < 1:
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
    """The jet coordinate y^sigma_J (J a ``MultiIndex``; J empty means y^sigma)."""

    sigma: int
    jj: MultiIndex


JetVariable = Union[BaseVar, FiberVar]


def checked_coordinate(v: JetVariable) -> JetVariable:
    """v, if it is a BaseVar with an int index or a FiberVar with an int sigma
    and a MultiIndex J, else ChartError: a Dx or Omega equals the coordinate of
    its indices, and True == 1, so either would stand in for a coordinate and
    be printed in its place; only the MultiIndex constructor sorts J and
    checks its entries, so an unsorted tuple would make a second coordinate."""
    if v.__class__ is FiberVar:
        if v.jj.__class__ is not MultiIndex:
            raise ChartError(f"jet index must be a MultiIndex, got {v!r}")
        index = v.sigma
    elif v.__class__ is BaseVar:
        index = v.i
    else:
        raise ChartError(f"{v!r} is not a coordinate")
    if index.__class__ is not int:
        raise ChartError(f"coordinate indices must be ints, got {v!r}")
    return v


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


class ChartContext(Record):
    """Dimensions and jet order of the ambient chart.

    n: base dimension, m: fiber dimension, max_order: highest jet order
    of coordinates in play.
    """

    n: int
    m: int
    max_order: int

    def __init__(self, n: int, m: int, max_order: int) -> None:
        if n < 1 or m < 1 or max_order < 0:
            raise ChartError(f"need n >= 1, m >= 1, max_order >= 0, got ({n}, {m}, {max_order})")
        if n > 9:
            # a jet index J is spelled as its digits run together (y1_12)
            raise ChartError(f"need n <= 9, got n = {n}: jet indices are spelled as single digits")
        self.__dict__.update(n=n, m=m, max_order=max_order)

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
        if v.__class__ is BaseVar:
            return 1 <= v.i <= self.n
        if v.__class__ is not FiberVar:
            raise ChartError(f"{v!r} is not a coordinate")
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

    def lifted(self) -> "ChartContext":
        return self.at_order(self.max_order + 1)
