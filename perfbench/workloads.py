"""Seeded inputs of the benchmark workloads.

Every input is drawn here with numpy from the benchmark's own seed, so a
change to the package cannot change what is measured. An operation is one
point-cloud pair taken from points to persistence diagram. Operations come
in groups: one unit-scale pair, plus its similarity images on
sweep-similarity. A run always finishes the group it started. Group g uses
the g-th entry of the workload's ``pairs``, cyclically; one cycle of groups
covers every dimension of the workload.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

# Similarity maps x -> a*x + b*(1, ..., 1) applied on sweep-similarity.
SCALES = (1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e4, 1e6)
SHIFTS = (0.0, 1e3)

WARMUP_POINTS = 20  # per cloud, for the warm-up pipeline call in set-up


def rng(seed: int, name: str, *keys: int) -> np.random.Generator:
    """Independent stream per (seed, workload, keys)."""
    return np.random.default_rng([seed, zlib.crc32(name.encode()), *keys])


@dataclass(frozen=True, eq=False)
class Op:
    """One pipeline call: a pair of clouds in R^dim.

    ``base`` is the index of the unit-scale operation this one is a
    similarity image of (scale a, shift b), or None for unit-scale inputs.
    """

    index: int
    dim: int
    x: np.ndarray
    y: np.ndarray
    scale: float = 1.0
    shift: float = 0.0
    base: int | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    pairs: tuple[tuple[int, int], ...]  # (dimension, points per cloud), one per group
    similarity_sweep: bool = False

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(sorted({d for d, _ in self.pairs}))

    @property
    def group_size(self) -> int:
        return len(SCALES) * len(SHIFTS) if self.similarity_sweep else 1

    @property
    def cycle(self) -> int:
        """Groups that cover every pair shape once."""
        return len(self.pairs)

    def group(self, seed: int, g: int) -> list[Op]:
        """Operations of group g; indices are global and consecutive."""
        dim, n = self.pairs[g % len(self.pairs)]
        r = rng(seed, self.name, g)
        x, y = r.random((n, dim)), r.random((n, dim))
        base = g * self.group_size
        ops = [Op(base, dim, x, y)]
        if self.similarity_sweep:
            for a in SCALES:
                for b in SHIFTS:
                    if (a, b) != (1.0, 0.0):
                        ops.append(Op(base + len(ops), dim, a * x + b, a * y + b, a, b, base))
        return ops

    def warmup_pairs(self, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
        out = []
        for dim in self.dims:
            r = rng(seed, self.name, 2**31, dim)
            out.append((r.random((WARMUP_POINTS, dim)), r.random((WARMUP_POINTS, dim))))
        return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "spatial-200",
            "d=3, 200+200 uniform points per pair: filtration and homology dominate time and memory",
            ((3, 200),),
        ),
        Workload(
            "sweep-similarity",
            "small d=2 and d=3 pairs under 14 similarity maps: fixed per-call costs and scale refusals",
            ((2, 60), (3, 30)),
            similarity_sweep=True,
        ),
    )
}
