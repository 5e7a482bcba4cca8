import dataclasses
import functools
import math
import os
import tracemalloc

import numpy as np
import pytest
from scipy import stats
from scipy.special import logsumexp

from helpers import (
    records_from_csv,
    reference_scanning_ho_records,
    stdout_at_blas_threads,
    traced_peak,
)
from scanobs import observers, runner
from scanobs.neuralnet import (
    Architecture,
    cnn_io_records,
    forward_posteriors,
    init_state,
)
from scanobs.observers import (
    Records,
    build_hotelling,
    laplacian_io_log_lrs_batch,
    posteriors_from_lrs,
    records_from_log_lrs,
    records_to_csv,
    scanning_decision,
    scanning_ho_records,
)
from scanobs.rng import substream
from scanobs.tasks import simulate_measurement, task_preset


def _log_lr(g, b, s, c):
    """Log-LR of one image at one location, through the batched path."""
    return laplacian_io_log_lrs_batch(np.asarray(g)[None], np.asarray(s)[None],
                                      b, c)[0, 0]


def test_scanning_decision_tie_breaks_low_index():
    t, j = scanning_decision(np.zeros(9))
    assert t == 0.0 and j == 1


def test_scanning_decision_unique_max():
    lams = np.zeros(9)
    lams[4] = 2.5
    t, j = scanning_decision(lams)
    assert t == 2.5 and j == 5


def test_scanning_decision_matches_brute_force():
    rng = np.random.default_rng(0)
    lams = rng.normal(size=(200, 9))
    t, j = scanning_decision(lams)
    for i in range(200):
        best = max(range(9), key=lambda k: lams[i, k])
        assert j[i] == best + 1
        assert t[i] == lams[i, best]


def test_scanning_decision_rejects_nonfinite():
    with pytest.raises(ValueError):
        scanning_decision([0.0, np.nan])
    with pytest.raises(ValueError):
        scanning_decision([[0.0, 1.0], [np.inf, 0.0]])


def test_laplacian_log_lr_basic_identities():
    rng = np.random.default_rng(1)
    b = rng.normal(size=(8, 8))
    s = rng.normal(size=(8, 8))
    g = rng.normal(size=(8, 8))
    c = 2.0
    assert _log_lr(g, b, np.zeros((8, 8)), c) == 0.0
    assert _log_lr(b, b, s, c) == pytest.approx(-np.abs(s).sum() / c)
    assert _log_lr(b + s, b, s, c) == pytest.approx(np.abs(s).sum() / c)
    with pytest.raises(ValueError):
        _log_lr(g, b, s, 0.0)
    with pytest.raises(ValueError):
        _log_lr(g, b, s, -1.0)


def test_laplacian_log_lr_pdf_oracle():
    # equals the summed log of per-pixel Laplacian density ratios
    rng = np.random.default_rng(2)
    b = rng.normal(size=64)
    s = rng.normal(size=64)
    g = rng.normal(size=64) * 3
    c = 20.0 / math.sqrt(2.0)
    ours = _log_lr(g, b, s, c)
    ref = (stats.laplace.logpdf(g, loc=b + s, scale=c)
           - stats.laplace.logpdf(g, loc=b, scale=c)).sum()
    assert ours == pytest.approx(ref, abs=1e-10)


def test_laplacian_batch_matches_scalar():
    task = task_preset("bke_system1")
    rng = np.random.default_rng(3)
    imgs = np.stack([simulate_measurement(task, j % 10, rng)[0]
                     for j in range(5)])
    zero = np.zeros((64, 64))
    batch = laplacian_io_log_lrs_batch(imgs, task.signal_images, zero,
                                       task.noise.scale)
    c = task.noise.scale
    for i in range(5):
        r = imgs[i].astype(np.float64) - zero
        for j in range(9):
            s = task.signal_images[j].astype(np.float64)
            ref = (np.abs(r) - np.abs(r - s)).sum() / c
            assert batch[i, j] == pytest.approx(ref, rel=1e-12)


def _whole_stack_log_lrs(images, signal_images, background, c):
    """The Laplacian log-LRs with every image of the stack at once."""
    r = images.reshape(len(images), -1).astype(np.float64) \
        - np.asarray(background, dtype=np.float64).ravel()
    sigs = signal_images.reshape(len(signal_images), -1).astype(np.float64)
    out = np.empty((len(images), len(sigs)))
    for j, s in enumerate(sigs):
        out[:, j] = (np.abs(r) - np.abs(r - s)).sum(axis=1) / c
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, observers._BLOCK_ROWS,
                               observers._BLOCK_ROWS + 1,
                               2 * observers._BLOCK_ROWS + 3])
def test_laplacian_blocks_equal_whole_stack(n, dtype):
    rng = np.random.default_rng(n)
    # rows longer than numpy's 128-element pairwise-summation block
    images = rng.laplace(3.0, 20.0, size=(n, 40, 33)).astype(dtype)
    signals = rng.normal(size=(4, 40, 33)).astype(dtype)
    background = rng.normal(2.0, 1.0, size=(40, 33)).astype(dtype)
    c = 20.0 / math.sqrt(2.0)
    got = laplacian_io_log_lrs_batch(images, signals, background, c)
    assert got.dtype == np.float64
    assert np.array_equal(
        got, _whole_stack_log_lrs(images, signals, background, c))


@pytest.mark.parametrize("n", [1, 15, 16, 17, 33, 5000])
def test_laplacian_log_lrs_are_the_same_on_one_and_two_cpus(monkeypatch, n):
    rng = np.random.default_rng(n)
    images = rng.laplace(3.0, 20.0, size=(n, 40, 33)).astype(np.float32)
    signals = rng.normal(size=(4, 40, 33)).astype(np.float32)
    background = rng.normal(2.0, 1.0, size=(40, 33))
    found = []
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
        found.append(laplacian_io_log_lrs_batch(images, signals, background,
                                                14.0))
    assert np.array_equal(found[0], found[1])


def test_posteriors_symmetry_and_substitution():
    post = posteriors_from_lrs(np.zeros(9), np.full(10, 0.1))
    np.testing.assert_allclose(post, 0.1, rtol=1e-12)
    post = posteriors_from_lrs([1.0], [0.5, 0.5])
    np.testing.assert_allclose(post, [1 / (1 + math.e), math.e / (1 + math.e)],
                               rtol=1e-12)


def test_posterior_ratio_identity():
    rng = np.random.default_rng(4)
    for _ in range(50):
        log_lrs = rng.normal(size=9) * 5
        priors = rng.dirichlet(np.ones(10))
        post = posteriors_from_lrs(log_lrs, priors)
        ratios = post[1:] / post[0]
        expected = priors[1:] * np.exp(log_lrs) / priors[0]
        np.testing.assert_allclose(ratios, expected, rtol=1e-12)
    with pytest.raises(ValueError):
        posteriors_from_lrs(np.zeros(2), [0.0, 0.5, 0.5])


def test_binary_statistic():
    # the ideal observer's binary statistic is 1 - Pr(H0|g)
    rec = records_from_log_lrs(np.zeros((1, 9)), np.full(10, 0.1), [0])
    assert rec.binary_statistic[0] == pytest.approx(0.9)
    rec = records_from_log_lrs([[-800.0]], [0.5, 0.5], [0])
    assert rec.binary_statistic[0] == 0.0
    rng = np.random.default_rng(5)
    log_lrs = rng.normal(size=(4, 9))
    priors = rng.dirichlet(np.ones(10))
    rec = records_from_log_lrs(log_lrs, priors, [0, 1, 2, 3])
    post = posteriors_from_lrs(log_lrs, priors)
    np.testing.assert_allclose(rec.binary_statistic, post[:, 1:].sum(axis=1),
                               atol=1e-12)


def test_decision_equivalence_lr_vs_posterior_ratio():
    # thresholding the prior-weighted LR at tau and the posterior ratio at
    # tau * Pr(H_j)/Pr(H_0) gives identical decisions on every image
    task = task_preset("bke_system1")
    rng = np.random.default_rng(6)
    zero = np.zeros((64, 64))
    for i in range(40):
        g, _ = simulate_measurement(task, i % 10, rng)
        log_lrs = laplacian_io_log_lrs_batch(
            g[None], task.signal_images, zero, task.noise.scale)[0]
        lam_lr = np.log(task.priors[1:]) + log_lrs        # Pr(Hj) Lambda_j
        post = posteriors_from_lrs(log_lrs, task.priors)
        lam_pr = post[1:] / post[0]                        # Pr(Hj|g)/Pr(H0|g)
        t_lr, j_lr = scanning_decision(lam_lr)
        t_pr, j_pr = scanning_decision(lam_pr)
        assert j_lr == j_pr
        for log_tau in (-5.0, -1.0, 0.0, 1.0, 5.0):
            decide_lr = t_lr > log_tau
            decide_pr = t_pr > math.exp(log_tau) / task.priors[0]
            assert decide_lr == decide_pr


def test_hotelling_bke_template_is_scaled_signal():
    sigs = np.random.default_rng(7).normal(size=(3, 4, 4))
    state = build_hotelling(None, sigs, noise_var=4.0)
    np.testing.assert_allclose(state.templates,
                               sigs.reshape(3, -1) / 4.0, rtol=1e-12)


def test_hotelling_two_pixel_toy_matches_direct_inverse():
    # more samples than pixels: the n x n system is 400 x 400 of rank 2
    # plus the noise
    rng = np.random.default_rng(8)
    samples = rng.normal(size=(400, 2)) @ np.array([[1.0, 0.4], [0.0, 0.8]])
    sig = np.array([[1.0, -0.5]])
    noise_var = 0.3
    state = build_hotelling(samples, sig, noise_var)
    k = np.cov(samples.T, ddof=1) + noise_var * np.eye(2)
    direct = np.linalg.solve(k, sig[0])
    np.testing.assert_allclose(state.templates[0], direct, rtol=1e-10)


def test_hotelling_lb_residual_check():
    task = task_preset("lb")
    rng = np.random.default_rng(9)
    backgrounds = np.stack([task.sample_background(rng) for _ in range(80)])
    state = build_hotelling(backgrounds, task.signal_images, 400.0)
    samples = backgrounds.reshape(len(backgrounds), -1).astype(np.float64)
    centered = samples - samples.mean(axis=0)
    for j in range(0, 9, 4):
        w = state.templates[j]
        recovered = centered.T @ (centered @ w) / (len(samples) - 1) \
            + 400.0 * w
        ref = state.signals[j]
        assert np.linalg.norm(recovered - ref) / np.linalg.norm(ref) < 1e-9


def test_hotelling_rejects_degenerate_inputs():
    sig = np.ones((1, 2, 2))
    with pytest.raises(ValueError):
        build_hotelling(np.zeros((1, 2, 2)), sig, 1.0)
    with pytest.raises(ValueError):
        build_hotelling(None, sig, 0.0)
    with pytest.raises(ValueError):
        build_hotelling(np.zeros((3, 2, 2)), sig, 0.0)
    with pytest.raises(ValueError, match="pixels"):
        build_hotelling(np.zeros((3, 2, 3)), sig, 1.0)
    # K would be invertible with more samples than pixels, but the noise
    # is required in every case
    samples = np.random.default_rng(20).normal(size=(6, 2, 2))
    for noise_var in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="noise variance"):
            build_hotelling(samples, sig, noise_var)


def test_hotelling_templates_do_not_depend_on_blas_threads():
    one, two = stdout_at_blas_threads("""
        import hashlib
        import numpy as np
        from scanobs import observers
        from scanobs.tasks import task_preset
        task = task_preset("lb")
        rng = np.random.default_rng(21)
        backgrounds = np.stack([task.sample_background(rng)
                                for _ in range(500)])
        state = observers.build_hotelling(backgrounds, task.signal_images,
                                          task.noise.std ** 2)
        print(hashlib.sha256(state.templates.tobytes()).hexdigest())
        """)
    assert one == two


def test_hotelling_solve_holds_one_n_by_n_array(monkeypatch):
    # at the solve the block product and the centring workspace are gone:
    # of the n x n float64 arrays only A itself is live (LAPACK's copy of
    # it is not traced)
    n, side = 400, 16
    rng = np.random.default_rng(23)
    backgrounds = rng.normal(size=(n, side, side)).astype(np.float32)
    signals = rng.normal(size=(4, side, side)).astype(np.float32)
    solve, live = np.linalg.solve, []

    def traced_solve(a, b):
        live.append(tracemalloc.get_traced_memory()[0] - base)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", traced_solve)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        build_hotelling(backgrounds, signals, 2.0)
    finally:
        tracemalloc.stop()
    assert len(live) == 1
    assert 8 * n * n <= live[0] <= 8 * n * n + 64 * 1024


def test_hotelling_holds_no_copy_of_the_stack():
    # the samples are centred a block of pixel columns at a time; a float64
    # copy of the stack alone would be twice its float32 bytes
    task = task_preset("lb")
    rng = np.random.default_rng(22)
    backgrounds = np.stack([task.sample_background(rng)
                            for _ in range(500)])
    assert backgrounds.dtype == np.float32
    assert traced_peak(build_hotelling, backgrounds, task.signal_images,
                       task.noise.std ** 2) < backgrounds.nbytes


def test_scanning_ho_centered_input_gives_zero():
    sigs = np.random.default_rng(10).normal(size=(3, 4, 4))
    state = build_hotelling(None, sigs, noise_var=2.0)
    g = state.signals[1].reshape(4, 4) / 2.0  # b̄ = 0, so g - s_1/2 ⟂ trick
    rec = scanning_ho_records(g[None], [1], state)
    assert rec.per_location[0, 1] == pytest.approx(0.0, abs=1e-9)


def test_scanning_ho_hand_computed_toy():
    # 2 pixels, 2 locations, identity covariance
    sigs = np.array([[[2.0, 0.0]], [[0.0, 1.0]]])  # (2, 1, 2) images
    state = build_hotelling(None, sigs, noise_var=1.0)
    g = np.array([[1.0, 3.0]])
    rec = scanning_ho_records(g[None], [0], state)
    # lambda_1 = 2*(1-1) = 0 ; lambda_2 = 1*(3-0.5) = 2.5
    assert rec.per_location[0, 0] == pytest.approx(0.0)
    assert rec.per_location[0, 1] == pytest.approx(2.5)
    assert rec.chosen_location[0] == 2
    assert rec.statistic[0] == pytest.approx(2.5)
    assert rec.binary_statistic[0] == rec.statistic[0]


def test_scanning_ho_batch_matches_single():
    task = task_preset("lb")
    rng = np.random.default_rng(11)
    backgrounds = np.stack([task.sample_background(rng) for _ in range(50)])
    state = build_hotelling(backgrounds, task.signal_images, 400.0)
    imgs = np.stack([simulate_measurement(task, i % 10, rng)[0]
                     for i in range(6)])
    labels = [i % 10 for i in range(6)]
    batch = scanning_ho_records(imgs, labels, state)
    for i in range(6):
        # lambda_j = w_j^T (g - mean_b - s_j / 2)
        gv = imgs[i].astype(np.float64).ravel() - state.mean_background
        ref = np.array([w @ (gv - s / 2.0)
                        for w, s in zip(state.templates, state.signals)])
        np.testing.assert_allclose(batch.per_location[i], ref, rtol=1e-9)
        assert batch.chosen_location[i] == np.argmax(ref) + 1


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_scanning_ho_centres_a_copy_with_whole_stack_bits(dtype):
    # centring each block in the float64 workspace gives the bits of
    # subtracting the mean from the whole stack, and leaves the caller's
    # images alone
    task = task_preset("lb")
    rng = np.random.default_rng(13)
    backgrounds = np.stack([task.sample_background(rng) for _ in range(30)])
    state = build_hotelling(backgrounds, task.signal_images, 400.0)
    imgs = np.stack([simulate_measurement(task, i % 10, rng)[0]
                     for i in range(7)]).astype(dtype)
    before = imgs.copy()
    rec = scanning_ho_records(imgs, np.arange(7) % 10, state)
    assert np.array_equal(imgs, before)
    _assert_records_equal(rec, reference_scanning_ho_records(
        imgs, np.arange(7) % 10, state))


@functools.cache
def _ho_stack(preset):
    """A scanning-HO state (lb: from 80 covariance samples) and 1001 test
    images of the preset."""
    task = task_preset(preset)
    rng = np.random.default_rng(17)
    backgrounds = None
    if preset == "lb":
        backgrounds = np.stack([task.sample_background(rng)
                                for _ in range(80)])
    state = build_hotelling(backgrounds, task.signal_images,
                            task.noise.std ** 2)
    labels = np.arange(1001) % 10
    imgs = np.stack([simulate_measurement(task, y, rng)[0] for y in labels])
    return state, imgs, labels


@pytest.mark.parametrize("preset", ["bke_system1", "lb"])
@pytest.mark.parametrize("n", [1, 63, 64, 65, 127, 130, 255, 256, 257, 511,
                               522, 1001])
def test_scanning_ho_blocks_equal_whole_stack(preset, n):
    # every block product has 64 rows: one image is one block padded by 63
    # rows, 65 images a whole block and one of 1 row padded by 63, 130 two
    # whole blocks and one of 2 rows
    assert observers.HO_BLOCK_ROWS == 64
    state, imgs, labels = _ho_stack(preset)
    _assert_records_equal(
        scanning_ho_records(imgs[:n], labels[:n], state),
        reference_scanning_ho_records(imgs[:n], labels[:n], state))


@functools.cache
def _clb_stack():
    """A clb scanning-HO state from 3 covariance samples, and 256 images of
    its mean background plus each label's signal and Gaussian noise of the
    task's standard deviation (clb measurements take seconds each)."""
    task = task_preset("clb")
    rng = np.random.default_rng(23)
    backgrounds = np.stack([task.sample_background(rng) for _ in range(3)])
    state = build_hotelling(backgrounds, task.signal_images,
                            task.noise.std ** 2)
    labels = np.arange(256) % 10
    signals = np.concatenate((np.zeros((1, state.signals.shape[1])),
                              state.signals))
    imgs = (state.mean_background + signals[labels] + rng.normal(
        0.0, task.noise.std, size=signals[labels].shape)).astype(np.float32)
    return state, imgs.reshape(256, *task.grid[::-1]), labels


@pytest.mark.parametrize("preset", ["bke_system1", "lb", "clb"])
def test_scanning_ho_blocks_have_the_bits_of_one_256_row_product(preset):
    # the 64-row block products give the bits of one product padded to 256
    # rows, on 64x64 and 128x128 images: with the OpenBLAS of numpy 2.4.6, a
    # product of at least 28 rows rounds like one of 256
    state, imgs, labels = (_clb_stack() if preset == "clb"
                           else _ho_stack(preset))
    for n in (1, 28, 64, 65, 200, 256):
        _assert_records_equal(
            scanning_ho_records(imgs[:n], labels[:n], state),
            reference_scanning_ho_records(imgs[:n], labels[:n], state,
                                          rows=256))


def test_scanning_ho_records_do_not_depend_on_blas_threads():
    one, two = stdout_at_blas_threads("""
        import hashlib
        import numpy as np
        from scanobs import observers
        from scanobs.tasks import simulate_measurement, task_preset
        task = task_preset("bke_system2")
        state = observers.build_hotelling(None, task.signal_images,
                                          task.noise.std ** 2)
        rng = np.random.default_rng(18)
        labels = np.arange(1500) % 10
        imgs = np.stack([simulate_measurement(task, y, rng)[0]
                         for y in labels])
        rec = observers.scanning_ho_records(imgs, labels, state)
        print(hashlib.sha256(rec.per_location.tobytes()).hexdigest())
        """)
    assert one == two


def _ho_peak_over_workspace(monkeypatch, cpus, workspace_rows):
    # 2000 images are 32 blocks, the last of 16 rows padded to 64; each
    # thread holds one 64-row workspace
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)))
    task = task_preset("bke_system1")
    state = build_hotelling(None, task.signal_images, task.noise.std ** 2)
    n, m = 2000, state.templates.shape[1]
    imgs = np.random.default_rng(19).normal(
        size=(n, 64, 64)).astype(np.float32)
    labels = np.arange(n) % 10
    rec = scanning_ho_records(imgs, labels, state)
    records = sum(getattr(rec, f.name).nbytes
                  for f in dataclasses.fields(rec))
    # and the (J, M) product of templates and signals for the offsets
    assert traced_peak(scanning_ho_records, imgs, labels, state) <= \
        workspace_rows * m * 8 + records + state.templates.nbytes


def test_scanning_ho_holds_one_block_workspace(monkeypatch):
    _ho_peak_over_workspace(monkeypatch, 1, observers.HO_BLOCK_ROWS)


def test_scanning_ho_holds_one_block_workspace_per_thread(monkeypatch):
    _ho_peak_over_workspace(monkeypatch, 2, 2 * observers.HO_BLOCK_ROWS)


@pytest.mark.parametrize("n", [10, 257, 300, 511, 5000])
def test_scanning_ho_records_are_the_same_on_one_and_two_cpus(monkeypatch,
                                                              n):
    # 10 images are one padded block; 257, 300 and 511 are 5 to 8 blocks,
    # the last padded, each half on its own thread at two CPUs; 5000 are 79
    # blocks, cut after the 40th
    state, _, _ = _ho_stack("bke_system2")
    rng = np.random.default_rng(n)
    imgs = rng.laplace(0.0, 30.0, size=(n, 64, 64)).astype(np.float32)
    labels = np.arange(n) % 10
    found = []
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
        found.append(scanning_ho_records(imgs, labels, state))
    _assert_records_equal(*found)


def test_constant_shift_leaves_chosen_location():
    rng = np.random.default_rng(12)
    lams = rng.normal(size=9)
    _, j1 = scanning_decision(lams)
    _, j2 = scanning_decision(lams + 7.3)
    assert j1 == j2


def test_records_csv_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    records = Records(rng.normal(size=20), rng.integers(1, 10, size=20),
                      rng.integers(0, 10, size=20), rng.normal(size=(20, 9)),
                      rng.random(20))
    path = tmp_path / "records.csv"
    records_to_csv(path, records)
    loaded = records_from_csv(path)
    _assert_records_equal(loaded, records)


def test_laplacian_io_record_end_to_end():
    task = task_preset("bke_system1")
    rng = np.random.default_rng(14)
    imgs, labels = zip(*(simulate_measurement(task, 5, rng)
                         for _ in range(30)))
    log_lrs = laplacian_io_log_lrs_batch(np.stack(imgs), task.signal_images,
                                         np.zeros((64, 64)), task.noise.scale)
    rec = records_from_log_lrs(log_lrs, task.priors, labels)
    assert len(rec) == 30
    assert np.all(rec.true_label == 5)
    assert np.all((rec.binary_statistic >= 0.0)
                  & (rec.binary_statistic <= 1.0))
    # IO localizes far above the 1/9 chance rate
    assert np.sum(rec.chosen_location == 5) >= 15


# ---------------------------------------------------------------------------
# batched records against the per-record loop they replaced

def _reference_rows(lams, labels, binary):
    """Max-statistic decision one record at a time."""
    rows = []
    for lam, label, b in zip(lams, labels, binary):
        lam = np.asarray(lam, dtype=np.float64)
        j = int(np.argmax(lam))
        rows.append((float(lam[j]), j + 1, int(label), float(b)))
    t, j_star, y, b = (np.array(col) for col in zip(*rows))
    return Records(t, j_star, y, np.asarray(lams), b)


def _reference_io_rows(log_lrs, priors, labels):
    """Ideal-observer records one at a time: prior-weighted log-LRs and
    1 - Pr(H0|g) from a per-record log-sum-exp."""
    priors = np.asarray(priors, dtype=np.float64)
    lams, binary = [], []
    for row in log_lrs:
        lams.append(np.log(priors[1:]) + row)
        log_num = np.concatenate(([np.log(priors[0])], lams[-1]))
        binary.append(1.0 - np.exp(log_num[0] - logsumexp(log_num)))
    return _reference_rows(np.array(lams), labels, binary)


def _assert_records_equal(got, want):
    assert len(got) == len(want)
    for name in ("statistic", "chosen_location", "true_label",
                 "per_location", "binary_statistic"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_analytic_io_records_match_per_row_reference():
    task = task_preset("bke_system1")
    rng = np.random.default_rng(15)
    labels = np.arange(200) % 10
    imgs = np.stack([simulate_measurement(task, y, rng)[0] for y in labels])
    log_lrs = laplacian_io_log_lrs_batch(imgs, task.signal_images,
                                         np.zeros((64, 64), np.float32),
                                         task.noise.scale)
    # rows the log-sum-exp must count ties in (the priors are uniform, so
    # equal log-LRs give equal log numerators): whole-number rows, many
    # with tied maxima, and rows near +-700
    extreme = np.concatenate((rng.normal(size=(8, 9)),
                              np.round(rng.normal(size=(40, 9)) * 2)))
    extreme[0, [2, 5]] = 4.0          # two tied maxima
    extreme[1, [0, 3, 8]] = 2.5       # three
    extreme[2] = 0.0                  # all ten numerators equal, H0's too
    extreme[3] = 1.5                  # nine equal, above H0's
    extreme[4] += 700.0
    extreme[5] = extreme[4]
    extreme[5, [1, 7]] = 701.0        # tied maxima near 700
    extreme[6] -= 700.0               # H0 the maximum by far
    extreme[7] = -700.0
    log_lrs = np.concatenate((log_lrs, extreme))
    labels = np.arange(len(log_lrs)) % 10
    assert np.all(task.priors == task.priors[0])
    _assert_records_equal(records_from_log_lrs(log_lrs, task.priors, labels),
                          _reference_io_rows(log_lrs, task.priors, labels))
    post = posteriors_from_lrs(log_lrs, task.priors)
    for i, row in enumerate(log_lrs):
        assert np.array_equal(post[i], posteriors_from_lrs(row, task.priors))
        log_num = np.log(task.priors) + np.concatenate(([0.0], row))
        assert np.array_equal(post[i],
                              np.exp(log_num - logsumexp(log_num))), i


def test_hotelling_records_match_per_row_reference():
    task = task_preset("lb")
    rng = np.random.default_rng(16)
    backgrounds = np.stack([task.sample_background(rng) for _ in range(50)])
    state = build_hotelling(backgrounds, task.signal_images, 400.0)
    labels = np.arange(20) % 10
    imgs = np.stack([simulate_measurement(task, y, rng)[0] for y in labels])
    rec = scanning_ho_records(imgs, labels, state)
    _assert_records_equal(rec, _reference_rows(
        rec.per_location, labels, rec.per_location.max(axis=1)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_hotelling_state_equals_per_row_conversion(dtype):
    rng = np.random.default_rng(19)
    backgrounds = rng.normal(5.0, 2.0, size=(40, 6, 7)).astype(dtype)
    signals = rng.normal(size=(3, 6, 7)).astype(dtype)
    kept = backgrounds.copy()
    state = build_hotelling(backgrounds, signals, 0.5)
    samples = np.stack([np.asarray(b, dtype=np.float64).ravel()
                        for b in backgrounds])
    flat_signals = np.stack([np.asarray(s, dtype=np.float64).ravel()
                             for s in signals])
    mean_bg = samples.mean(axis=0)
    k = np.cov(samples.T, ddof=1) + 0.5 * np.eye(samples.shape[1])
    np.testing.assert_allclose(state.templates,
                               np.linalg.solve(k, flat_signals.T).T,
                               rtol=1e-10)
    assert np.array_equal(state.mean_background, mean_bg)
    assert np.array_equal(state.signals, flat_signals)
    assert np.array_equal(backgrounds, kept)  # centred in a workspace
    listed = build_hotelling(list(backgrounds), list(signals), 0.5)
    assert np.array_equal(listed.templates, state.templates)


def test_mcmc_records_match_per_row_reference(tmp_path, monkeypatch):
    import scanobs.mcmc

    seen = []
    batched = scanobs.mcmc.records_from_log_lrs

    def keep_log_lrs(log_lrs, priors, labels):
        seen.append(log_lrs[0])
        return batched(log_lrs, priors, labels)

    monkeypatch.setattr(scanobs.mcmc, "records_from_log_lrs", keep_log_lrs)
    plan = runner.ExperimentPlan("lb", tmp_path, seed=17,
                                 mcmc_iterations=300, mcmc_burn_in=30)
    task = plan.task
    rng = np.random.default_rng(18)
    labels = np.arange(6) % 10
    imgs = np.stack([simulate_measurement(task, y, rng)[0] for y in labels])
    # the observer runs its chains in worker processes, so the log-LRs are
    # kept from the same chains run here
    cfg = scanobs.mcmc.McmcConfig(iterations=300, burn_in=30)
    for i, g in enumerate(imgs):
        scanobs.mcmc.mcmc_io_record(g, task, cfg,
                                    substream(17, "mcmc-chain", i))
    rec = runner.OBSERVERS["mcmc_io"](task, plan)(imgs, labels)
    _assert_records_equal(rec, _reference_io_rows(np.array(seen),
                                                  task.priors, labels))


def test_cnn_records_match_per_row_reference():
    state = init_state(Architecture(1, (4, 4), n_classes=4, filters=3,
                                    kernel=3), seed=19)
    rng = np.random.default_rng(20)
    images = rng.normal(size=(12, 4, 4)).astype(np.float32)
    labels = np.arange(12) % 4
    priors = np.array([0.4, 0.3, 0.2, 0.1])
    probs = forward_posteriors(images, state)
    lams, binary = [], []
    for p in probs:
        logp = np.log(np.maximum(p, np.finfo(p.dtype).tiny))
        lams.append(logp[1:] - logp[0]
                    + (np.log(priors[1:]) - np.log(priors[0])))
        binary.append(1.0 - p[0])
    _assert_records_equal(cnn_io_records(images, labels, state, priors),
                          _reference_rows(np.array(lams), labels, binary))
