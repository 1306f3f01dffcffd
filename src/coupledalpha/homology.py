"""Persistent homology over GF(2) by boundary matrix reduction.

Simplices are ordered by (value, dimension, vertex tuple); the dimension
tie-break puts every face before its cofaces at equal values, so any
monotone filtration yields a valid ordering. Columns are stored as Python
integers used as bitmasks, which keeps the XOR inner loop in C.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import math

from .complexes import Simplex
from .filtration import FilteredComplex


class NonMonotone(ValueError):
    """A simplex enters the filtration before one of its faces."""


def boundary_matrix(fc: FilteredComplex) -> tuple[list[Simplex], list[int]]:
    """Ordered simplices and their GF(2) boundary columns as bitmasks.

    Validates that the filtration is closed under faces and monotone.
    """
    order = fc.sorted_items()
    index = {simplex: i for i, (simplex, _) in enumerate(order)}
    simplices = [simplex for simplex, _ in order]
    columns: list[int] = []
    for simplex, value in order:
        col = 0
        if len(simplex) > 1:
            for drop in range(len(simplex)):
                facet = simplex[:drop] + simplex[drop + 1 :]
                try:
                    fi = index[facet]
                except KeyError:
                    raise ValueError(
                        f"complex not closed under faces: {simplex} lacks {facet}"
                    ) from None
                if fc.values[facet] > value:
                    raise NonMonotone(
                        f"{facet} enters at {fc.values[facet]}, after {simplex} at {value}"
                    )
                col |= 1 << fi
        columns.append(col)
    return simplices, columns


def reduce_and_pair(columns: list[int]) -> tuple[list[int], dict[int, int]]:
    """Left-to-right column reduction. Returns reduced columns and pivots.

    The pivot map sends a row index to the column having that row as its
    lowest nonzero entry.
    """
    reduced = list(columns)
    pivot: dict[int, int] = {}
    for j in range(len(reduced)):
        col = reduced[j]
        while col:
            low = col.bit_length() - 1
            owner = pivot.get(low)
            if owner is None:
                pivot[low] = j
                break
            col ^= reduced[owner]
        reduced[j] = col
    return reduced, pivot


@dataclass(frozen=True)
class Interval:
    """One persistence interval; ``death`` is ``inf`` for essential classes."""

    dim: int
    birth: float
    death: float

    @property
    def length(self) -> float:
        return self.death - self.birth


# Relative length at or below which a finite interval is a sliver: a class
# born and killed at mathematically equal values that floating point
# computed through different routes, a few ulps apart.
_SLIVER = 1e-12


@dataclass
class PersistenceDiagram:
    """All intervals of a filtration, zero-length ones included.

    Most callers want ``intervals()``, which drops the zero-length pairs
    and the slivers (length at most 1e-12 times the death value); they
    carry no homological information but are kept for audits.
    """

    all_intervals: list[Interval] = field(default_factory=list)

    def intervals(self, dim: int | None = None, include_zero: bool = False) -> list[Interval]:
        out = [
            iv
            for iv in self.all_intervals
            if (dim is None or iv.dim == dim)
            and (include_zero or math.isinf(iv.death) or iv.length > _SLIVER * abs(iv.death))
        ]
        out.sort(key=lambda iv: (iv.dim, iv.birth, iv.death))
        return out

    def betti_at(self, radius: float, dim: int) -> int:
        """Rank of homology in the given dimension at the given radius."""
        return sum(
            1
            for iv in self.all_intervals
            if iv.dim == dim and iv.birth <= radius < iv.death
        )


def persistence_diagram(fc: FilteredComplex) -> PersistenceDiagram:
    """Persistence diagram of a monotone filtration."""
    simplices, columns = boundary_matrix(fc)
    reduced, pivot = reduce_and_pair(columns)
    values = [fc.values[s] for s in simplices]
    intervals = []
    paired: set[int] = set()
    for j, col in enumerate(reduced):
        if col:
            i = col.bit_length() - 1
            paired.add(i)
            paired.add(j)
            intervals.append(
                Interval(len(simplices[i]) - 1, values[i], values[j])
            )
    for j, col in enumerate(reduced):
        if not col and j not in paired:
            intervals.append(Interval(len(simplices[j]) - 1, values[j], math.inf))
    return PersistenceDiagram(intervals)


def diagram_discrepancy(
    a: PersistenceDiagram,
    b: PersistenceDiagram,
    dims: list[int] | None = None,
    min_length: float = 0.0,
) -> float:
    """Largest endpoint difference between matched positive intervals.

    Intervals are matched per dimension in sorted order; a cardinality
    mismatch yields ``inf``. This is a stricter statistic than bottleneck
    distance and equals it when both diagrams are close. ``min_length``
    drops intervals at most that long from both sides first: classes of
    zero persistence computed through different arithmetic come out as
    sub-noise slivers rather than exact zeros, and a comparison at
    tolerance t cannot distinguish intervals shorter than t from empty
    ones anyway.
    """
    if dims is None:
        dims = sorted(
            {iv.dim for iv in a.intervals()} | {iv.dim for iv in b.intervals()}
        )
    worst = 0.0
    for dim in dims:
        ia = [iv for iv in a.intervals(dim) if iv.length > min_length]
        ib = [iv for iv in b.intervals(dim) if iv.length > min_length]
        if len(ia) != len(ib):
            return math.inf
        for u, v in zip(ia, ib):
            for lhs, rhs in ((u.birth, v.birth), (u.death, v.death)):
                if math.isinf(lhs) and math.isinf(rhs):
                    continue
                worst = max(worst, abs(lhs - rhs))
    return worst
