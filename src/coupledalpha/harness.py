"""Random instance generation and the empirical complex-size scaling check.

The structural claim under test: for Poisson samples of intensity n in the
unit cube, the expected number of k-simplices of the coupled complex at
r = infinity grows linearly in n. Desk-scale runs cannot recover the
constants, so the harness fits slopes and doubling ratios instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .complexes import PointCloudPair, coupled_alpha_infty


def sample_poisson(n: float, dim: int, seed) -> np.ndarray:
    """One draw of a homogeneous Poisson process on the unit cube.

    The count is Poisson(n) and the points are i.i.d. uniform. ``seed``
    may be anything ``numpy.random.default_rng`` accepts, including a
    sequence used to split one master seed into independent streams.
    """
    if n <= 0:
        raise ValueError("intensity must be positive")
    rng = np.random.default_rng(seed)
    count = int(rng.poisson(n))
    return rng.random((count, dim))


@dataclass(frozen=True)
class ScalingRecord:
    """Simplex counts of one sampled instance; counts[k] is the k-count.

    ``run_trial`` pads counts with zeros to d + 2 entries (k = 0..d+1), so
    the records of one experiment share one width.
    """

    n: int
    trial: int
    seed: int
    counts: tuple[int, ...]
    wall_time: float


def run_trial(n: int, trial: int, dim: int, seed: int) -> ScalingRecord:
    """Sample one (X, Y) pair and count the simplices of its complex.

    Each cloud gets its own generator split from (seed, n, trial, side),
    so records are reproducible no matter how trials are scheduled.
    """
    x = sample_poisson(n, dim, [seed, n, trial, 0])
    y = sample_poisson(n, dim, [seed, n, trial, 1])
    start = time.perf_counter()
    pair = PointCloudPair(x, y)
    cplx = coupled_alpha_infty(pair)
    elapsed = time.perf_counter() - start
    counts = cplx.counts()
    counts = counts + (0,) * (dim + 2 - len(counts))
    return ScalingRecord(n, trial, seed, counts, elapsed)


def scaling_experiment(n_list, trials: int, dim: int, seed: int) -> list[ScalingRecord]:
    """Scaling records for every (n, trial), ordered by (n, trial); n strictly ascending."""
    n_list = list(n_list)
    for n in n_list:
        if int(n) != n:
            raise ValueError(f"intensities must be integers, got {n}")
    n_list = [int(n) for n in n_list]
    # A repeated n would repeat its trials: their points derive from (seed, n, trial).
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("intensities must be ascending")
    if dim < 1:
        raise ValueError(f"dim must be at least 1, got {dim}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return [run_trial(n, trial, dim, seed) for n in n_list for trial in range(trials)]


def mean_counts(records: list[ScalingRecord]) -> dict[int, np.ndarray]:
    """Per-intensity mean simplex counts, one array row per dimension."""
    by_n: dict[int, list[tuple[int, ...]]] = {}
    for rec in records:
        by_n.setdefault(rec.n, []).append(rec.counts)
    return {n: np.array(counts, dtype=float).mean(axis=0) for n, counts in sorted(by_n.items())}


def fit_linear(records: list[ScalingRecord]) -> dict[int, tuple[float, float]]:
    """Least-squares fit mean_count ~ a * n per dimension, through origin.

    Returns {k: (a, relative residual)}. With a single intensity the fit
    degenerates to the exact ratio and residual 0.
    """
    means = mean_counts(records)
    ns = np.array(sorted(means))
    table = np.vstack([means[n] for n in ns])
    out = {}
    for k in range(table.shape[1]):
        f = table[:, k]
        denom = float(ns @ ns)
        a = float(ns @ f) / denom if denom else 0.0
        norm = float(np.linalg.norm(f))
        resid = float(np.linalg.norm(f - a * ns)) / norm if norm else 0.0
        out[k] = (a, resid)
    return out


def doubling_ratios(records: list[ScalingRecord]) -> dict[int, list[tuple[int, float]]]:
    """Mean-count ratios across consecutive doublings of the intensity.

    Returns {k: [(n, mean_count(2n) / mean_count(n)), ...]}. Linear growth
    puts every ratio near 2.
    """
    means = mean_counts(records)
    ns = sorted(means)
    width = max(len(v) for v in means.values())
    out: dict[int, list[tuple[int, float]]] = {k: [] for k in range(width)}
    for n in ns:
        if 2 * n not in means:
            continue
        lo, hi = means[n], means[2 * n]
        for k in range(width):
            if lo[k] > 0:
                out[k].append((n, float(hi[k] / lo[k])))
    return out
