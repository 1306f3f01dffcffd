"""Sampling, scaling records, and the fit/ratio arithmetic."""

import numpy as np
import pytest

from coupledalpha import check_coupled_general_position, scaling_experiment
from coupledalpha.harness import (
    ScalingRecord,
    doubling_ratios,
    fit_linear,
    mean_counts,
    run_trial,
    sample_poisson,
)


def test_sample_poisson_reproducible_and_in_cube():
    a = sample_poisson(40, 2, [7, 40, 0, 0])
    b = sample_poisson(40, 2, [7, 40, 0, 0])
    assert np.array_equal(a, b)
    assert a.shape[1] == 2
    assert np.all((a >= 0.0) & (a < 1.0))
    c = sample_poisson(40, 2, [7, 40, 0, 1])
    assert not np.array_equal(a, c)


def test_sample_poisson_count_statistics():
    # Mean of Poisson(30) over 300 draws lands within 5 sigma of 30.
    counts = [len(sample_poisson(30, 1, [11, k])) for k in range(300)]
    assert abs(np.mean(counts) - 30.0) < 5.0 * np.sqrt(30.0 / 300.0)
    assert len(set(counts)) > 3


def test_sample_poisson_rejects_bad_intensity():
    with pytest.raises(ValueError):
        sample_poisson(0, 2, 0)
    with pytest.raises(ValueError):
        sample_poisson(-3, 2, 0)


def test_run_trial_deterministic():
    a = run_trial(25, 3, 2, seed=5)
    b = run_trial(25, 3, 2, seed=5)
    assert a.counts == b.counts
    assert a.n == 25 and a.trial == 3 and a.seed == 5
    assert len(a.counts) == 4  # dims 0..3 for planar input
    assert a.counts[0] > 0
    assert run_trial(25, 4, 2, seed=5).counts != a.counts


def test_sampled_draws_pass_general_position():
    x = sample_poisson(20, 2, [13, 20, 0, 0])
    y = sample_poisson(20, 2, [13, 20, 0, 1])
    ok, violations = check_coupled_general_position(x, y)
    assert ok, violations


def test_scaling_experiment_order():
    records = scaling_experiment([15, 30], trials=3, dim=2, seed=2)
    assert [(r.n, r.trial) for r in records] == [
        (15, 0),
        (15, 1),
        (15, 2),
        (30, 0),
        (30, 1),
        (30, 2),
    ]


def test_scaling_experiment_rejects_unsorted():
    with pytest.raises(ValueError):
        scaling_experiment([30, 15], trials=1)


def _fake_records():
    # Exactly linear counts: k-simplices = (k + 1) * 10 * n, two trials.
    records = []
    for n in (10, 20, 40):
        for trial in range(2):
            counts = tuple((k + 1) * 10 * n for k in range(3))
            records.append(ScalingRecord(n, trial, 0, counts, 0.0))
    return records


def test_mean_counts_on_synthetic():
    means = mean_counts(_fake_records())
    assert sorted(means) == [10, 20, 40]
    assert np.allclose(means[20], [200.0, 400.0, 600.0])


def test_fit_linear_recovers_slopes():
    fits = fit_linear(_fake_records())
    for k in range(3):
        slope, resid = fits[k]
        assert slope == pytest.approx((k + 1) * 10.0, rel=1e-12)
        assert resid == pytest.approx(0.0, abs=1e-12)


def test_doubling_ratios_on_synthetic():
    ratios = doubling_ratios(_fake_records())
    for k in range(3):
        assert [n for n, _ in ratios[k]] == [10, 20]
        assert all(r == pytest.approx(2.0, rel=1e-12) for _, r in ratios[k])


def test_doubling_ratios_skip_gaps():
    records = [
        ScalingRecord(10, 0, 0, (100,), 0.0),
        ScalingRecord(30, 0, 0, (300,), 0.0),
    ]
    assert doubling_ratios(records) == {0: []}


def test_real_counts_grow_with_intensity():
    lo = mean_counts(scaling_experiment([20], trials=3, dim=2, seed=9))[20]
    hi = mean_counts(scaling_experiment([40], trials=3, dim=2, seed=9))[40]
    assert hi[0] > lo[0]
    assert hi[1] > lo[1]
