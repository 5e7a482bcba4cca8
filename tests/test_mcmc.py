import itertools
import math

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp

from helpers import reference_mcmc_io_record
from scanobs import mcmc
from scanobs.imaging import NoiseModel, PrfSpec, render_lumpy_image
from scanobs.mcmc import McmcConfig, _reflect, mcmc_io_record
from scanobs.phantoms import (ClbParams, LumpyParams, LumpyRealization,
                              SignalSpec)
from scanobs.tasks import TaskConfig, simulate_measurement, task_preset


def _tiny_task(mean_count=1.5, sigma=2.0, sig_amp=0.3):
    grid = (8, 8)
    return TaskConfig(
        kind="custom",
        grid=grid,
        prf=PrfSpec(height=10.0, width=1.0, grid=grid),
        lumpy=LumpyParams(mean_count=mean_count, amplitude=0.3,
                          lump_width=2.0, field_of_view=grid),
        noise=NoiseModel.gaussian(sigma),
        signals=[SignalSpec(1, (2.5, 2.5), sig_amp, 1.0, 1.0),
                 SignalSpec(2, (5.5, 5.5), sig_amp, 1.0, 1.0)],
    )


def test_task_rejects_field_of_view_other_than_grid():
    grid = (8, 8)
    with pytest.raises(ValueError, match="lumpy field of view"):
        TaskConfig(kind="custom", grid=grid, noise=NoiseModel.gaussian(1.0),
                   lumpy=LumpyParams(field_of_view=(64, 64)),
                   signals=[SignalSpec(1, (2.5, 2.5), 0.3, 1.0, 1.0)])
    with pytest.raises(ValueError, match="clb field of view"):
        TaskConfig(kind="custom", grid=grid, noise=NoiseModel.gaussian(1.0),
                   clb=ClbParams(field_of_view=(8, 16)),
                   signals=[SignalSpec(1, (2.5, 2.5), 0.3, 1.0, 1.0)])


def _render_config(task, centers):
    real = LumpyRealization(np.asarray(centers, dtype=float).reshape(-1, 2))
    return render_lumpy_image(real, task.lumpy, task.prf).astype(np.float64)


def _enumerate_log_lrs(task, g, candidates, max_count):
    """Exact scanning-IO log LRs by summing over every lump configuration.

    Configurations are multisets of candidate centers with at most max_count
    lumps; the prior weight of counts (n_1..n_K) is (Nbar/K)^N / prod(n_i!).
    """
    k = len(candidates)
    nbar = task.lumpy.mean_count
    sigma2 = task.noise.scale ** 2
    sigs = task.signal_images.reshape(task.J, -1).astype(np.float64)
    ssq = (sigs * sigs).sum(axis=1)
    gv = np.asarray(g, dtype=np.float64).ravel()

    log_w = []
    vs = []
    for total in range(max_count + 1):
        for combo in itertools.combinations_with_replacement(range(k), total):
            counts = np.bincount(combo, minlength=k)
            b = _render_config(task, [candidates[i] for i in combo]).ravel() \
                if total else np.zeros_like(gv)
            r = gv - b
            loglike = -(r @ r) / (2.0 * sigma2)
            log_w.append(total * math.log(nbar / k)
                         - gammaln(counts + 1.0).sum() + loglike)
            vs.append((sigs @ r - ssq / 2.0) / sigma2)
    log_w = np.array(log_w)
    vs = np.array(vs)  # (n_states, J)
    log_norm = logsumexp(log_w)
    return np.array([logsumexp(log_w + vs[:, j]) - log_norm
                     for j in range(task.J)])


def test_config_defaults_and_validation():
    cfg = McmcConfig()
    assert cfg.iterations == 200_000
    assert cfg.effective_burn_in == 10_000
    assert McmcConfig(iterations=1000, burn_in=77).effective_burn_in == 77
    with pytest.raises(ValueError):
        McmcConfig(iterations=100, burn_in=100)
    assert McmcConfig(iterations=100, burn_in=0).effective_burn_in == 0


@pytest.mark.parametrize("kwargs", [{"burn_in": -5}, {"burn_in": -1}])
def test_config_rejects_bad_burn_in_and_step(kwargs):
    with pytest.raises(ValueError, match="burn_in"):
        McmcConfig(iterations=1000, **kwargs)


def test_rejects_wrong_image_shape():
    task = _tiny_task()
    cfg = McmcConfig(iterations=100, burn_in=10)
    for shape in [(8, 9), (64,), (1, 8, 8)]:
        with pytest.raises(ValueError, match=r"\(8, 8\)") as err:
            mcmc_io_record(np.zeros(shape), task, cfg,
                           np.random.default_rng(0))
        assert str(shape) in str(err.value)


def test_reflect_stays_in_bounds():
    x = np.linspace(-30.0, 30.0, 601)
    y = _reflect(x, 0.0, 8.0)
    assert np.all(y >= 0.0) and np.all(y <= 8.0)
    assert _reflect(np.array([-1.0]), 0.0, 8.0)[0] == pytest.approx(1.0)
    assert _reflect(np.array([9.0]), 0.0, 8.0)[0] == pytest.approx(7.0)
    assert _reflect(np.array([3.0]), 0.0, 8.0)[0] == pytest.approx(3.0)


def test_rejects_wrong_task_types():
    cfg = McmcConfig(iterations=100, burn_in=10)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        mcmc_io_record(np.zeros((64, 64)), task_preset("bke_system1"),
                       cfg, rng)
    bad_noise = _tiny_task()
    bad_noise.noise = NoiseModel.laplacian(2.0)
    with pytest.raises(ValueError):
        mcmc_io_record(np.zeros((8, 8)), bad_noise, cfg, rng)


def test_frozen_chain_reduces_to_gaussian_bke():
    # with a vanishing lump rate the chain never leaves b = 0, so the
    # estimate is exactly the background-known Gaussian log LR
    task = _tiny_task(mean_count=1e-9)
    rng = np.random.default_rng(1)
    g = rng.normal(0.0, 2.0, size=(8, 8))
    rec = mcmc_io_record(g, task, McmcConfig(iterations=2000, burn_in=100),
                         np.random.default_rng(2))
    sigs = task.signal_images.reshape(2, -1).astype(np.float64)
    v = (sigs @ g.ravel() - (sigs * sigs).sum(axis=1) / 2.0) / 4.0
    expected = np.log(task.priors[1:]) + v
    np.testing.assert_allclose(rec.per_location[0], expected, rtol=0,
                               atol=1e-9)


def test_chain_matches_exhaustive_enumeration():
    task = _tiny_task(sig_amp=0.15)
    candidates = np.array([[2.5, 2.5], [5.5, 5.5], [3.5, 4.5]])
    rng = np.random.default_rng(3)
    b = _render_config(task, candidates[0])
    g = b + task.signal_images[0] + rng.normal(0.0, 2.0, size=(8, 8))

    exact = _enumerate_log_lrs(task, g, candidates, max_count=2)
    cfg = McmcConfig(iterations=300_000, candidate_centers=candidates,
                     max_count=2)
    rec = mcmc_io_record(g, task, cfg, np.random.default_rng(4), true_label=1)
    est = rec.per_location[0] - np.log(task.priors[1:])
    # likelihood ratios agree within 2 percent
    assert np.abs(np.expm1(est - exact)).max() < 0.02
    assert len(rec) == 1 and rec.true_label[0] == 1
    assert 0.0 <= rec.binary_statistic[0] <= 1.0


def test_two_state_occupancy_matches_detailed_balance():
    # single candidate, at most one lump: the stationary odds of the
    # occupied state are Nbar * p(g|b1)/p(g|b0)
    task = _tiny_task(mean_count=1.0)
    candidate = np.array([[4.5, 4.5]])
    b1 = _render_config(task, candidate[0]).ravel()
    rng = np.random.default_rng(5)
    g = (0.55 * b1 + rng.normal(0.0, 0.3, size=64)).reshape(8, 8)

    gv = g.ravel()
    sigma2 = task.noise.scale ** 2
    log_odds = math.log(task.lumpy.mean_count) \
        + (-((gv - b1) @ (gv - b1)) + gv @ gv) / (2.0 * sigma2)
    p1 = 1.0 / (1.0 + math.exp(-log_odds))
    assert 0.2 < p1 < 0.8  # the toy is tuned to be genuinely two-state

    trace = []
    cfg = McmcConfig(iterations=400_000, candidate_centers=candidate,
                     max_count=1)
    mcmc_io_record(g, task, cfg, np.random.default_rng(6), count_trace=trace)
    occupancy = np.mean(trace)
    assert len(trace) == cfg.iterations - cfg.effective_burn_in
    assert abs(occupancy - p1) < 0.01


def test_count_trace_and_determinism():
    task = _tiny_task()
    rng = np.random.default_rng(7)
    g = rng.normal(0.0, 2.0, size=(8, 8))
    cfg = McmcConfig(iterations=3000)
    trace = []
    rec1 = mcmc_io_record(g, task, cfg, np.random.default_rng(8),
                          count_trace=trace)
    rec2 = mcmc_io_record(g, task, cfg, np.random.default_rng(8))
    np.testing.assert_array_equal(rec1.per_location, rec2.per_location)
    np.testing.assert_array_equal(rec1.chosen_location, rec2.chosen_location)
    assert len(trace) == 3000 - cfg.effective_burn_in
    assert all(isinstance(c, int) and c >= 0 for c in trace)


def test_independent_seeds_agree():
    task = _tiny_task(sig_amp=0.15)
    candidates = np.array([[2.5, 2.5], [5.5, 5.5]])
    rng = np.random.default_rng(9)
    g = _render_config(task, candidates[1]) \
        + rng.normal(0.0, 2.0, size=(8, 8))
    cfg = McmcConfig(iterations=200_000, candidate_centers=candidates,
                     max_count=2)
    a = mcmc_io_record(g, task, cfg, np.random.default_rng(10)).per_location
    b = mcmc_io_record(g, task, cfg, np.random.default_rng(11)).per_location
    assert np.abs(np.expm1(a - b)).max() < 0.04


def _assert_same_chain(task, g, cfg, seed, true_label=0):
    trace, ref_trace = [], []
    rec = mcmc_io_record(g, task, cfg, np.random.default_rng(seed),
                         true_label=true_label, count_trace=trace)
    ref = reference_mcmc_io_record(g, task, cfg, np.random.default_rng(seed),
                                   true_label=true_label,
                                   count_trace=ref_trace)
    for name in ("statistic", "chosen_location", "true_label",
                 "per_location", "binary_statistic"):
        np.testing.assert_array_equal(getattr(rec, name), getattr(ref, name))
    assert trace == ref_trace
    assert all(type(c) is int for c in trace)
    return trace


@pytest.mark.parametrize("burn_in", [None, 0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lb_chain_equals_per_iteration_reference(seed, burn_in):
    task = task_preset("lb")
    g, label = simulate_measurement(task, seed * 4,
                                    np.random.default_rng(seed))
    cfg = McmcConfig(iterations=2500, burn_in=burn_in)
    trace = _assert_same_chain(task, g, cfg, 100 + seed, label)
    assert len(trace) == cfg.iterations - cfg.effective_burn_in


@pytest.mark.parametrize("fold_rows", [1, 7, 4096])
def test_chain_equals_reference_across_fold_blocks(monkeypatch, fold_rows):
    # a small fold block splits long runs of one state across many blocks
    monkeypatch.setattr(mcmc, "_FOLD_ROWS", fold_rows)
    task = _tiny_task(mean_count=3.0, sig_amp=0.5)
    g = np.random.default_rng(12).normal(0.0, 2.0, size=(8, 8))
    _assert_same_chain(task, g, McmcConfig(iterations=9000, burn_in=0), 13)
    _assert_same_chain(task, g, McmcConfig(iterations=9000), 14)


def test_discrete_chain_equals_per_iteration_reference():
    task = _tiny_task(sig_amp=0.15)
    candidates = np.array([[2.5, 2.5], [5.5, 5.5], [3.5, 4.5]])
    rng = np.random.default_rng(3)
    g = _render_config(task, candidates[0]) + task.signal_images[0] \
        + rng.normal(0.0, 2.0, size=(8, 8))
    cfg = McmcConfig(iterations=20_000, candidate_centers=candidates,
                     max_count=2)
    _assert_same_chain(task, g, cfg, 4, true_label=1)


def test_frozen_chain_equals_per_iteration_reference():
    task = _tiny_task(mean_count=1e-9)
    g = np.random.default_rng(1).normal(0.0, 2.0, size=(8, 8))
    trace = _assert_same_chain(task, g,
                               McmcConfig(iterations=2000, burn_in=100), 2)
    assert set(trace) == {0}
