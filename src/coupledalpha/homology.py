"""Persistent homology over GF(2) by boundary matrix reduction.

Simplices are ordered by (value, dimension, lexicographic rank), so at
equal values every face comes before its cofaces. A k-simplex's boundary
is the ranks of its facets among the (k-1)-simplices in that order, which
takes memory proportional to the nonzeros. Dimensions are reduced from
the top down with clearing (Chen-Kerber, "Persistent homology computation
with a twist", 2011): a pivot one dimension up creates a class, so its
own column is skipped. Every dimension goes through this one reduction,
H0 included; clearing skips most of the edge columns. Reduced columns are
lists and sets of ranks, so their memory follows the nonzeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .filtration import FilteredComplex


class NonMonotone(ValueError):
    """A simplex enters the filtration before one of its faces."""


def boundary_matrix(fc: FilteredComplex) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per dimension k, the filtration order and the boundary columns.

    ``order[k]`` lists the indices of ``fc.cplx.rows[k]`` in filtration order;
    row j of ``columns[k]`` holds the facet ranks of the j-th of them. Refuses
    a filtration with a NaN value or that is not monotone; the complex itself
    is closed under faces by construction."""
    for rows, levels in zip(fc.cplx.rows, fc.levels):
        nan = np.flatnonzero(np.isnan(levels))
        if len(nan):
            raise ValueError(f"{tuple(rows[nan[0]].tolist())} has value nan")
    # Within one dimension the order by (value, lexicographic rank) is a stable sort.
    order = [np.argsort(levels, kind="stable") for levels in fc.levels]
    columns = [np.zeros((len(order[0]), 0), dtype=np.intp)] if order else []
    for k in range(1, len(fc.levels)):
        rows, below = fc.cplx.rows[k], fc.cplx.rows[k - 1]
        facet = fc.cplx.facet_index(k)
        late = np.argwhere(fc.levels[k - 1][facet] > fc.levels[k][:, None])
        if len(late):
            i, f = late[0][0], facet[tuple(late[0])]
            face, simplex = tuple(below[f].tolist()), tuple(rows[i].tolist())
            value, after = fc.levels[k - 1][f], fc.levels[k][i]
            raise NonMonotone(f"{face} enters at {value}, after {simplex} at {after}")
        rank = np.empty(len(below), dtype=np.intp)
        rank[order[k - 1]] = np.arange(len(below))
        columns.append(rank[facet[order[k]]])
    return order, columns


def reduce_and_pair(columns: list[np.ndarray]) -> list[np.ndarray]:
    """Per dimension k, the (birth, death) rank pairs of the boundary columns:
    a (k-1)-simplex creating a class and the k-simplex killing it. A column stays
    the list ``tolist()`` gave while its pivot is free (97.5% of live columns at
    d=3 200+200); only a collision builds a set, as sets for all are slower."""
    pairs = [np.zeros((0, 2), dtype=np.intp) for _ in columns]
    for k in range(len(columns) - 1, 0, -1):
        found, reduced = [], {}  # reduced: pivot -> reduced column
        live = np.ones(len(columns[k]), dtype=bool)
        if k + 1 < len(columns):
            live[pairs[k + 1][:, 0]] = False  # cleared
        for j, col in zip(np.flatnonzero(live).tolist(), columns[k][live].tolist()):
            while col:
                low = max(col)
                if low not in reduced:
                    reduced[low] = col
                    found.append((low, j))
                    break
                col = set(col).symmetric_difference(reduced[low])
        pairs[k] = np.array(found, dtype=np.intp).reshape(len(found), 2)
    return pairs


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

    def intervals(self, dim: int | None = None) -> list[Interval]:
        out = [
            iv
            for iv in self.all_intervals
            if (dim is None or iv.dim == dim)
            and (math.isinf(iv.death) or iv.length > _SLIVER * abs(iv.death))
        ]
        out.sort(key=lambda iv: (iv.dim, iv.birth, iv.death))
        return out


def persistence_diagram(fc: FilteredComplex) -> PersistenceDiagram:
    """Persistence diagram of a monotone filtration."""
    order, columns = boundary_matrix(fc)
    values = [levels[o] for levels, o in zip(fc.levels, order)]
    essential = [np.ones(len(v), dtype=bool) for v in values]
    intervals = []
    for k, pairs in enumerate(reduce_and_pair(columns)[1:], 1):
        birth, death = pairs.T
        essential[k - 1][birth] = essential[k][death] = False
        born, died = values[k - 1][birth].tolist(), values[k][death].tolist()
        intervals += (Interval(k - 1, b, d) for b, d in zip(born, died))
    for k, v in enumerate(values):
        intervals += (Interval(k, b, math.inf) for b in v[essential[k]].tolist())
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
