import math

import numpy as np
import pytest
from scipy import stats

from helpers import reference_sample_clb, reference_sample_lumpy
from scanobs.phantoms import (
    ClbParams,
    LumpyParams,
    SignalSpec,
    make_signal_ensemble,
    sample_clb,
    sample_lumpy,
    signal_grid_centers,
    validate_signal_ensemble,
)


def test_lumpy_mean_count():
    params = LumpyParams()
    rng = np.random.default_rng(1)
    n_draws = 20_000
    counts = [len(sample_lumpy(params, rng).centers) for _ in range(n_draws)]
    se = math.sqrt(8.0 / n_draws)
    assert abs(np.mean(counts) - 8.0) < 3 * se


def test_lumpy_vanishing_mean_gives_empty():
    params = LumpyParams(mean_count=1e-9)
    rng = np.random.default_rng(2)
    for _ in range(100):
        assert len(sample_lumpy(params, rng).centers) == 0


def test_lumpy_count_distribution_chi_square():
    params = LumpyParams()
    rng = np.random.default_rng(3)
    n_draws = 100_000
    counts = np.array([len(sample_lumpy(params, rng).centers)
                       for _ in range(n_draws)])
    kmax = counts.max()
    observed = np.bincount(counts, minlength=kmax + 1).astype(float)
    expected = stats.poisson.pmf(np.arange(kmax + 1), 8.0) * n_draws
    # fold the tail so every bin has expected count >= 5
    while expected[-1] < 5 and len(expected) > 2:
        expected[-2] += expected[-1]
        observed[-2] += observed[-1]
        expected, observed = expected[:-1], observed[:-1]
    expected[-1] += n_draws - expected.sum()  # absorb truncated mass
    _, p = stats.chisquare(observed, expected)
    assert p > 0.01


def test_lumpy_centers_inside_fov_and_deterministic():
    params = LumpyParams(field_of_view=(32, 16))
    real = sample_lumpy(params, np.random.default_rng(7))
    assert np.all(real.centers[:, 0] >= 0) and np.all(real.centers[:, 0] <= 32)
    assert np.all(real.centers[:, 1] >= 0) and np.all(real.centers[:, 1] <= 16)
    again = sample_lumpy(params, np.random.default_rng(7))
    np.testing.assert_array_equal(real.centers, again.centers)


def test_clb_mean_cluster_count():
    params = ClbParams()
    rng = np.random.default_rng(4)
    n_draws = 10_000
    counts = [len(sample_clb(params, rng).clusters)
              for _ in range(n_draws)]
    se = math.sqrt(50.0 / n_draws)
    assert abs(np.mean(counts) - 50.0) < 3 * se


@pytest.mark.parametrize("mean_count", [1e-9, 1.0, 3.0, 8.0, 17.0])
def test_lumpy_sampler_equals_uniform_reference(mean_count):
    params = LumpyParams(mean_count=mean_count, field_of_view=(64, 48))
    for seed in range(40):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sample_lumpy(params, rng).centers
        want = reference_sample_lumpy(params, ref).centers
        assert got.shape == want.shape and np.array_equal(got, want)
        assert rng.random() == ref.random()  # the streams stay in step


def test_clb_sampler_equals_uniform_reference():
    params = ClbParams(mean_cluster_count=4.0, mean_blobs_per_cluster=3.0,
                       field_of_view=(128, 96))
    for seed in range(40):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sample_clb(params, rng).clusters
        want = reference_sample_clb(params, ref).clusters
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.center.shape == b.center.shape == (2,)
            assert np.array_equal(a.center, b.center)
            assert np.array_equal(a.offsets, b.offsets)
            assert np.array_equal(a.angles, b.angles)
        assert rng.random() == ref.random()


def test_clb_vanishing_mean_gives_empty():
    params = ClbParams(mean_cluster_count=1e-9)
    real = sample_clb(params, np.random.default_rng(5))
    assert len(real.clusters) == 0
    assert real.blob_count == 0


def test_clb_blob_offset_spread():
    params = ClbParams()
    rng = np.random.default_rng(6)
    offsets = []
    while sum(len(o) for o in offsets) < 100_000:
        for cl in sample_clb(params, rng).clusters:
            offsets.append(cl.offsets.ravel())
    sampled = np.concatenate(offsets)
    assert abs(sampled.std() - 12.0) / 12.0 < 0.02


def test_clb_angles_in_range():
    real = sample_clb(ClbParams(mean_cluster_count=5.0), np.random.default_rng(8))
    for cl in real.clusters:
        assert np.all(cl.angles >= 0) and np.all(cl.angles < 2 * math.pi)


def test_bke_ensemble():
    specs = make_signal_ensemble("bke_laplacian", (64, 64))
    assert len(specs) == 9
    assert sorted(s.location_index for s in specs) == list(range(1, 10))
    for s in specs:
        assert s.amplitude == 0.2
        assert s.width1 == s.width2 == 3.0
        assert s.angle == 0.0
    centers = {s.center for s in specs}
    assert centers == {(x, y) for x in (16, 32, 48) for y in (16, 32, 48)}


def test_clb_ensemble_round_robin():
    specs = make_signal_ensemble("clb_poisson_gaussian", (128, 128))
    assert len(specs) == 9
    assert all(s.amplitude == 80.0 for s in specs)
    assert {s.width1 for s in specs} == {5.0, 8.0, 10.0}
    assert {s.width2 for s in specs} == {5.0, 8.0, 10.0}
    assert {s.angle for s in specs} == {-math.pi / 4, 0.0, math.pi / 4}
    # the assignment is fixed: two calls agree exactly
    assert specs == make_signal_ensemble("clb_poisson_gaussian", (128, 128))


def test_grid_centers_scale_with_fov():
    assert signal_grid_centers((128, 128))[0] == (32.0, 32.0)
    assert signal_grid_centers((64, 64))[4] == (32.0, 32.0)


def test_custom_single_location_echo():
    spec = SignalSpec(1, (10.0, 12.0), amplitude=1.5, width1=2.0, width2=4.0,
                      angle=0.3)
    validate_signal_ensemble([spec], (32, 32))
    assert spec.center == (10.0, 12.0)
    assert spec.amplitude == 1.5


def test_ensemble_validation_errors():
    with pytest.raises(ValueError):
        validate_signal_ensemble(
            [SignalSpec(1, (100.0, 10.0), 1.0, 2.0, 2.0)], (64, 64))
    with pytest.raises(ValueError):
        validate_signal_ensemble(
            [SignalSpec(1, (10.0, 10.0), 1.0, 2.0, 2.0),
             SignalSpec(1, (20.0, 10.0), 1.0, 2.0, 2.0)], (64, 64))
    with pytest.raises(ValueError):
        SignalSpec(1, (10.0, 10.0), 1.0, -2.0, 2.0)
    with pytest.raises(ValueError):
        LumpyParams(mean_count=0.0)
    with pytest.raises(ValueError):
        make_signal_ensemble("no_such_task", (64, 64))
