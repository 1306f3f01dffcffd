"""Sorted integer rows, the array form of simplices and cells.

A row lists vertex indices in increasing order; a stored set of rows is
distinct and in lexicographic order. ``unique`` makes one and locates its
input rows in it with one lexicographic sort. Rows are never packed into
one integer key, so nothing can overflow. ``equal_pairs`` finds repeats, in points too.
"""

import numpy as np


def facet_columns(w: int) -> np.ndarray:
    """A (w, w - 1) index: its row j lists the columns of a width-w row but j."""
    kept = np.arange(w - 1)
    return kept + (kept >= np.arange(w)[:, None])


def facets(rows: np.ndarray) -> np.ndarray:
    """Row ``i * w + j`` is row i without its column j, so it stays sorted."""
    w = rows.shape[1]
    return rows[:, facet_columns(w)].reshape(-1, w - 1)


def unique(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows in lexicographic order, and the position of each input row among them."""
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    first = np.ones(len(rows), dtype=bool)
    np.any(rows[1:] != rows[:-1], axis=1, out=first[1:])
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return rows[first], inverse


def equal_pairs(rows: np.ndarray) -> np.ndarray:
    """(k, 2) pairs i < j of equal rows adjacent in the stable lexicographic order, in that order."""
    order = np.lexsort(rows.T[::-1]) if rows.shape[1] else np.arange(len(rows))
    same = (rows[order[1:]] == rows[order[:-1]]).all(axis=1)
    return np.column_stack([order[:-1][same], order[1:][same]])


def once(rows: np.ndarray) -> np.ndarray | None:
    """The rows that occur once, in lexicographic order; None if a row occurs three times or more."""
    rows = rows[np.lexsort(rows.T[::-1])]
    same = (rows[1:] == rows[:-1]).all(axis=1)
    if (same[1:] & same[:-1]).any():
        return None
    # differs[i]: rows i - 1 and i differ, with sentinels at both ends.
    differs = np.ones(len(rows) + 1, dtype=bool)
    np.logical_not(same, out=differs[1:-1])
    return rows[differs[:-1] & differs[1:]]

