import concurrent.futures
import math
import os
import re
import signal
from concurrent.futures.process import BrokenProcessPool
from types import SimpleNamespace

import numpy as np
import pytest

import scanobs.neuralnet as nn
from helpers import (
    reference_band_conv,
    reference_band_conv_weight_grad,
    reference_adam_step,
    reference_channels_last,
    reference_compose_batch,
    reference_conv_backward,
    reference_conv_forward,
    reference_loss_and_gradient,
    stdout_at_blas_threads,
    traced_peak,
    write_malformed_checkpoint,
)
from scanobs import workers
from scanobs.imaging import NoiseModel, apply_noise
from scanobs.neuralnet import (
    Architecture,
    NetworkState,
    TrainSchedule,
    TrainingDiverged,
    adam_step,
    cnn_io_records,
    forward_posteriors,
    init_state,
    load_checkpoint,
    loss_and_gradient,
    save_checkpoint,
    select_depth,
    softmax,
    train,
    validation_loss,
)
from scanobs.phantoms import SignalSpec
from scanobs.rng import substream
from scanobs.tasks import TaskConfig, task_preset


def _toy_task(amplitude=1.5, sigma=1.0):
    return TaskConfig(
        kind="custom",
        grid=(2, 2),
        noise=NoiseModel.gaussian(sigma),
        signals=[SignalSpec(1, (1.0, 1.0), amplitude, 1.0, 1.0)],
    )


def test_softmax_properties():
    rng = np.random.default_rng(0)
    z = rng.normal(size=(7, 10)) * 3
    p = softmax(z)
    np.testing.assert_allclose(p.sum(axis=-1), 1.0, rtol=1e-12)
    assert np.all(p > 0)
    from scipy.special import softmax as ref
    np.testing.assert_allclose(p, ref(z, axis=-1), rtol=1e-12)
    # stays finite for extreme logits
    p = softmax(np.array([1e4, -1e4, 0.0]))
    assert np.isfinite(p).all() and p[0] == pytest.approx(1.0)
    p = softmax(np.array([-1e4, -1e4]))
    np.testing.assert_allclose(p, 0.5)


def test_architecture_validation():
    with pytest.raises(ValueError):
        Architecture(0, (8, 8))
    with pytest.raises(ValueError):
        Architecture(1, (7, 8))
    arch = Architecture(3, (8, 6), n_classes=4, filters=16)
    assert arch.dense_inputs == 16 * 4 * 3
    # an even kernel has no centred same padding, so its backprop is wrong
    for kernel in (2, 4, 0, -1):
        with pytest.raises(ValueError, match="kernel"):
            Architecture(1, (8, 8), kernel=kernel)
    with pytest.raises(ValueError, match="filter"):
        Architecture(1, (8, 8), filters=0)
    # max(y, slope * y) is the leaky ReLU only for a slope in [0, 1]
    for slope in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError, match="leaky_slope"):
            Architecture(1, (8, 8), leaky_slope=slope)
    for slope in (0.0, 1.0):
        Architecture(1, (8, 8), leaky_slope=slope)


def test_init_state_deterministic_and_shaped():
    arch = Architecture(2, (4, 4), n_classes=3, filters=5, kernel=3)
    a = init_state(arch, seed=1)
    b = init_state(arch, seed=1)
    c = init_state(arch, seed=2)
    assert len(a.params) == 2 * 2 + 2
    assert a.params[0].shape == (5, 1, 3, 3)
    assert a.params[2].shape == (5, 5, 3, 3)
    assert a.params[-2].shape == (3, 5 * 2 * 2)
    for pa, pb in zip(a.params, b.params):
        np.testing.assert_array_equal(pa, pb)
    assert any(not np.array_equal(pa, pc)
               for pa, pc in zip(a.params, c.params))
    limit = math.sqrt(6.0 / 9.0)
    assert np.abs(a.params[0]).max() <= limit


def _channels_last(x):
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1))


def _channels_first(x):
    return x.transpose(0, 3, 1, 2)


def _assert_close(actual, reference):
    # float64 sums in another order: 1e-12 relative, with the absolute floor
    # at 1e-12 of the largest entry for entries that cancel towards zero
    np.testing.assert_allclose(actual, reference, rtol=1e-12,
                               atol=1e-12 * np.abs(reference).max())


@pytest.mark.parametrize("k", [3, 5])
@pytest.mark.parametrize("c", [1, 3])
def test_conv_matches_einsum_reference(k, c):
    # H != W, and a batch of one micro-batch of images and 3 more
    h, w, f = 6, 10, 4
    batch = nn._PIXELS // (h * w) + 3
    rng = np.random.default_rng(100 + 10 * k + c)
    x = rng.normal(size=(batch, c, h, w))
    wt = rng.normal(size=(f, c, k, k))
    b = rng.normal(size=f)
    dy = rng.normal(size=(batch, f, h, w))
    y = nn._conv(_channels_last(x), wt, np.broadcast_to(b, (batch, h, w, f))
                 .copy())
    _assert_close(_channels_first(y), reference_conv_forward(x, wt, b))
    dw_ref, db_ref, dx_ref = reference_conv_backward(x, wt, dy)
    dy_cl = _channels_last(dy)
    _assert_close(nn._conv_weight_grad(_channels_last(x), dy_cl, k), dw_ref)
    _assert_close(dy_cl.sum(axis=(0, 1, 2)), db_ref)
    dx = nn._conv(dy_cl, wt.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1],
                  np.zeros((batch, h, w, c)))
    _assert_close(_channels_first(dx), dx_ref)


# (whole micro-batches, further images) per batch
_BATCHES = {"one image": (0, 1), "one block": (1, 0), "a block and 3": (1, 3),
            "a block and 1": (1, 1)}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [3, 5])
@pytest.mark.parametrize("c", [1, 3, 32])
@pytest.mark.parametrize("batch", list(_BATCHES))
def test_conv_equals_band_copy_reference(dtype, k, c, batch):
    # the row-window convolutions, one call per micro-batch, keep each
    # output's products and sums in the order of the band copies: the same
    # bits, for whole and partial micro-batches, in the forward pass and
    # both gradients, the weight gradients summed in micro-batch order.
    # (With F = 4 the input gradient into C = 1 is a GEMV of K = 4k; past K
    # of about 30 a GEMV's bits follow the BLAS thread count, at the band
    # copies too.)
    h, w, f = 6, 10, 4
    blocks, extra = _BATCHES[batch]
    n = blocks * (nn._PIXELS // (h * w)) + extra
    rng = np.random.default_rng(200 + 10 * k + c)
    x = rng.normal(size=(n, h, w, c)).astype(dtype)
    wt = rng.normal(size=(f, c, k, k)).astype(dtype)
    b = rng.normal(size=f).astype(dtype)
    dy = rng.normal(size=(n, h, w, f)).astype(dtype)
    wflip = wt.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
    y = np.broadcast_to(b, (n, h, w, f)).copy()
    dx = np.zeros_like(x)
    dw = np.zeros_like(wt)
    for s in nn._micro_batches(n, (h, w)):
        nn._conv(x[s], wt, y[s])
        nn._conv(dy[s], wflip, dx[s])
        dw += nn._conv_weight_grad(x[s], dy[s], k)
    y_ref = reference_band_conv(x, wt, np.broadcast_to(b, (n, h, w, f))
                                .copy())
    assert y.dtype == dtype and np.array_equal(y, y_ref)
    assert np.array_equal(dx, reference_band_conv(dy, wflip,
                                                  np.zeros_like(x)))
    dw_ref = reference_band_conv_weight_grad(x, dy, k)
    assert dw.dtype == dtype and np.array_equal(dw, dw_ref)


def test_conv_workspace_is_one_block():
    # the paper's inner layer at one micro-batch: the workspaces hold
    # nothing beyond the padded input and, for the forward pass, its row
    # windows and products, or, for the weight gradient, one band matrix
    # and the weight bands
    h = w = 64
    c, f, k = 32, 32, 5
    nb = nn._PIXELS // (h * w)
    rng = np.random.default_rng(37)
    wt = rng.normal(size=(f, c, k, k)).astype(np.float32)
    item = 4
    xp = nb * (h + k - 1) * (w + k - 1) * c * item
    rows = nb * (h + k - 1) * w * k * c * item
    band = nb * h * w * k * c * item
    prod = nb * h * w * f * item
    dbands = k * k * c * f * item
    small = 4 * wt.nbytes  # the weight bands, the GEMM result, dW itself
    x = rng.normal(size=(nb, h, w, c)).astype(np.float32)
    out = np.zeros((nb, h, w, f), dtype=np.float32)
    assert traced_peak(nn._conv, x, wt, out) <= xp + rows + prod + small
    assert traced_peak(nn._conv_weight_grad, x, out, k) <= \
        xp + band + dbands + small


def test_each_convolution_takes_at_most_one_micro_batch(monkeypatch):
    # so the one-micro-batch workspace bound holds whatever the batch, and
    # inference takes the training partition
    _usable_cpus(monkeypatch, 1)  # in process, where the calls can be seen
    calls = {"_conv": [], "_conv_weight_grad": []}

    def counted(fn, counts):
        def call(x, *args):
            counts.append(len(x))
            return fn(x, *args)
        return call

    for name, counts in calls.items():
        monkeypatch.setattr(nn, name, counted(getattr(nn, name), counts))
    h, w = 8, 12
    nb = nn._PIXELS // (h * w)
    batch = 2 * nb + 5
    state = init_state(Architecture(2, (h, w), n_classes=4, filters=3,
                                    kernel=3), seed=57)
    images = np.random.default_rng(58).normal(size=(batch, h, w))
    loss_and_gradient(images, np.arange(batch) % 4, state)
    # per image: two layers forward, one input gradient, two weight gradients
    assert max(calls["_conv"] + calls["_conv_weight_grad"]) <= nb
    assert sum(calls["_conv"]) == 3 * batch
    assert sum(calls["_conv_weight_grad"]) == 2 * batch
    for counts in calls.values():
        counts.clear()
    forward_posteriors(images, state)
    # two layers of each micro-batch, 170, 170 and 5 images
    assert calls["_conv"] == [nb, nb, nb, nb, 5, 5]
    assert calls["_conv_weight_grad"] == []


@pytest.mark.parametrize("arch", [
    Architecture(2, (6, 10), n_classes=3, filters=3, kernel=5),
    Architecture(3, (4, 8), n_classes=4, filters=2, kernel=3),
])
def test_network_matches_einsum_reference(arch):
    state = init_state(arch, seed=30, dtype=np.float64)
    rng = np.random.default_rng(31)
    for p in state.params[1::2]:
        p += rng.normal(scale=0.1, size=p.shape)   # non-zero biases
    state.input_mean, state.input_std = 0.3, 1.7
    h, w = arch.input_shape
    batch = nn._PIXELS // (h * w) + 3                # two workspace blocks
    images = rng.normal(size=(batch, h, w))
    labels = rng.integers(0, arch.n_classes, size=batch)
    probs_ref, loss_ref, grads_ref = reference_loss_and_gradient(
        images, labels, state)
    _assert_close(forward_posteriors(images, state), probs_ref)
    loss, grads = loss_and_gradient(images, labels, state)
    assert loss == pytest.approx(loss_ref, rel=1e-12)
    for g, g_ref in zip(grads, grads_ref):
        assert g.shape == g_ref.shape
        _assert_close(g, g_ref)


def _tied_state(arch, dtype):
    """Random weights and biases, except that layer 0's biases are zero, so
    an image at the input mean has pre-activations of exactly 0 there, and
    half of the last layer's filters are zero, so those channels equal their
    biases and every one of their pool windows ties."""
    state = init_state(arch, seed=33, dtype=dtype)
    rng = np.random.default_rng(34)
    for p in state.params[3::2]:
        p += rng.normal(scale=0.1, size=p.shape)
    state.params[2 * arch.conv_layers - 2][::2] = 0.0
    state.input_mean, state.input_std = 0.3, 1.7
    return state


def _tied_images(n, h, w, seed):
    """A constant image at the input mean, an image of duplicated 2x2
    pixel pairs, then random images; the first n of them."""
    rng = np.random.default_rng(seed)
    images = rng.normal(size=(max(n, 2), h, w))
    images[0] = 0.3
    images[1] = np.kron(rng.normal(size=(h // 2, w // 2)), np.ones((2, 2)))
    return images[:n]


def _assert_equals_channels_last_reference(state, images):
    labels = np.arange(len(images)) % state.arch.n_classes
    probs_ref, loss_ref, grads_ref = reference_channels_last(images, labels,
                                                             state)
    assert np.array_equal(forward_posteriors(images, state), probs_ref)
    loss, grads = loss_and_gradient(images, labels, state)
    assert loss == loss_ref
    for g, g_ref in zip(grads, grads_ref):
        assert g.dtype == g_ref.dtype and np.array_equal(g, g_ref)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("slope", [0.0, 0.01, 1.0])
@pytest.mark.parametrize("blocks", ["one image", "a block and 3"])
def test_network_equals_channels_last_reference(dtype, slope, blocks):
    # the in-place leaky ReLU, the strided-view pool and the derivative read
    # from the cached outputs give the bits of np.where masks and argmax
    arch = Architecture(3, (8, 12), n_classes=4, filters=6, kernel=5,
                        leaky_slope=slope)
    n = 1 if blocks == "one image" else nn._PIXELS // (8 * 12) + 3
    _assert_equals_channels_last_reference(_tied_state(arch, dtype),
                                           _tied_images(n, 8, 12, 35))


def test_paper_network_equals_channels_last_reference():
    arch = Architecture(5, (64, 64))
    _assert_equals_channels_last_reference(_tied_state(arch, np.float32),
                                           _tied_images(6, 64, 64, 36))


def test_float32_conv_forward_relative_error():
    # the paper's inner layer: 32 channels in and out, 5x5 kernel
    rng = np.random.default_rng(32)
    x = rng.normal(size=(3, 32, 16, 16))
    wt = rng.uniform(-0.07, 0.07, size=(32, 32, 5, 5))
    b = rng.normal(scale=0.1, size=32)
    ref = reference_conv_forward(x, wt, b)
    x32, w32, b32 = (a.astype(np.float32) for a in (x, wt, b))
    y = nn._conv(_channels_last(x32), w32,
                 np.broadcast_to(b32, (3, 16, 16, 32)).copy())
    assert y.dtype == np.float32
    err = np.abs(_channels_first(y) - ref).max() / np.abs(ref).max()
    assert err <= 1e-5


def test_forward_hand_computed():
    # identity conv kernel, known dense weights: the whole pass is by hand
    arch = Architecture(1, (2, 2), n_classes=2, filters=1, kernel=3)
    state = init_state(arch, seed=0)
    state.params[0][:] = 0.0
    state.params[0][0, 0, 1, 1] = 1.0   # delta kernel: conv is identity
    state.params[1][:] = 0.0
    state.params[2][:] = np.array([[2.0], [-1.0]], dtype=np.float32)
    state.params[3][:] = np.array([0.5, 0.0], dtype=np.float32)
    g = np.array([[0.3, 1.7], [0.9, 0.2]])
    post = forward_posteriors(g[None], state)
    z = np.array([2.0 * 1.7 + 0.5, -1.7])   # pool picks the max pixel
    np.testing.assert_allclose(post[0], softmax(z), rtol=1e-6)


def test_forward_rejects_wrong_shape():
    state = init_state(Architecture(1, (4, 4), n_classes=2))
    with pytest.raises(ValueError):
        forward_posteriors(np.zeros((1, 6, 6)), state)
    with pytest.raises(ValueError):
        forward_posteriors(np.zeros((4, 4)), state)  # not a batch


def test_head_gradient_identity():
    # dense-bias gradient is exactly sum(softmax - onehot) / batch
    arch = Architecture(1, (4, 4), n_classes=3, filters=4, kernel=3)
    state = init_state(arch, seed=3, dtype=np.float64)
    rng = np.random.default_rng(4)
    images = rng.normal(size=(6, 4, 4))
    labels = np.array([0, 1, 2, 1, 0, 2])
    loss, grads = loss_and_gradient(images, labels, state)
    probs = forward_posteriors(images, state)
    expected = probs.copy()
    expected[np.arange(6), labels] -= 1.0
    np.testing.assert_allclose(grads[-1], expected.sum(axis=0) / 6.0,
                               atol=1e-12)
    ce = -np.log(probs[np.arange(6), labels]).mean()
    assert loss == pytest.approx(ce, rel=1e-12)


def test_backprop_matches_finite_differences():
    arch = Architecture(2, (4, 4), n_classes=3, filters=3, kernel=3)
    state = init_state(arch, seed=5, dtype=np.float64)
    rng = np.random.default_rng(6)
    images = rng.normal(size=(2, 4, 4))
    labels = np.array([0, 2])
    _, grads = loss_and_gradient(images, labels, state)
    eps = 1e-6
    worst = 0.0
    for p, g in zip(state.params, grads):
        flat_p = p.ravel()
        flat_g = g.ravel()
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + eps
            lp, _ = loss_and_gradient(images, labels, state)
            flat_p[i] = orig - eps
            lm, _ = loss_and_gradient(images, labels, state)
            flat_p[i] = orig
            fd = (lp - lm) / (2.0 * eps)
            denom = max(abs(fd), abs(flat_g[i]), 1e-8)
            worst = max(worst, abs(fd - flat_g[i]) / denom)
    assert worst <= 1e-4


def test_adam_single_step_closed_form():
    arch = Architecture(1, (2, 2), n_classes=2, filters=1, kernel=3)
    state = init_state(arch, seed=9)
    before = [p.copy() for p in state.params]
    grads = [np.full_like(p, 0.25) for p in state.params]
    adam_step(state, grads, lr=1e-2)
    assert state.step == 1
    # after one bias-corrected step the update is lr * g / (|g| + eps)
    expected_delta = 1e-2 * 0.25 / (0.25 + 1e-8)
    for p, b in zip(state.params, before):
        np.testing.assert_allclose(b - p, expected_delta, rtol=1e-5)


def test_adam_zero_gradient_is_noop():
    state = init_state(Architecture(1, (2, 2), n_classes=2, filters=1,
                                    kernel=3), seed=10)
    before = [p.copy() for p in state.params]
    adam_step(state, [np.zeros_like(p) for p in state.params], lr=1.0)
    for p, b in zip(state.params, before):
        np.testing.assert_array_equal(p, b)


def test_adam_rejects_nonfinite_gradient():
    state = init_state(Architecture(1, (2, 2), n_classes=2, filters=1,
                                    kernel=3), seed=11)
    grads = [np.zeros_like(p) for p in state.params]
    grads[0][0, 0, 0, 0] = np.nan
    with pytest.raises(TrainingDiverged):
        adam_step(state, grads, lr=1e-2)


def test_adam_step_equals_the_whole_array_reference():
    # three steps of positive, negative and zero float32 gradients over
    # several decades, bit for bit: the update works in place through
    # scratch arrays in the reference's operation order
    state = init_state(Architecture(2, (8, 8), n_classes=3, filters=4,
                                    kernel=3), seed=61)
    ref = state.copy()
    rng = np.random.default_rng(62)
    for _ in range(3):
        grads = []
        for p in state.params:
            signs = rng.permutation(np.resize([1.0, -1.0, 0.0], p.size))
            scales = 10.0 ** rng.uniform(-6.0, 1.0, p.size)
            grads.append((signs * scales).reshape(p.shape).astype(np.float32))
        adam_step(state, grads, 1e-3)
        reference_adam_step(ref, grads, 1e-3)
        assert state.step == ref.step
        for a, b in zip(state.params + state.m + state.v,
                        ref.params + ref.m + ref.v):
            assert a.dtype == b.dtype == np.float32
            assert np.array_equal(a.view(np.uint32), b.view(np.uint32))


def test_adam_step_holds_two_scratch_arrays():
    # the paper's net: each update works through two arrays of its
    # parameter's shape, the largest the dense weight's 1.31 MB, not a
    # temporary per operation
    state = init_state(Architecture(5, (64, 64)), seed=63)
    grads = [np.full_like(p, 0.5) for p in state.params]
    largest = max(p.nbytes for p in state.params)
    assert traced_peak(adam_step, state, grads, 1e-3) <= \
        2 * largest + 64 * 1024


@pytest.mark.parametrize("overrides", [
    {"total_minibatches": 0}, {"batch_per_class": 0}, {"val_period": 0},
    {"val_period": -3}, {"learning_rate": 0.0}, {"learning_rate": -1e-4},
    {"learning_rate": math.nan}, {"learning_rate": math.inf},
    {"learning_rate": 1e39}])
def test_schedule_rejects_out_of_range_settings(overrides):
    key = next(iter(overrides))
    with pytest.raises(ValueError, match=key):
        TrainSchedule(**{"total_minibatches": 1, **overrides})


def test_training_reduces_loss_and_logs(tmp_path):
    task = _toy_task()
    arch = Architecture(1, (2, 2), n_classes=2, filters=8, kernel=3)
    rng = np.random.default_rng(12)
    val_images = np.stack([task.sample_background(rng) for _ in range(100)])
    val_labels = np.tile([0, 1], 50)
    val_images[val_labels == 1] += task.signal_images[0]
    val_images += rng.normal(0.0, 1.0, val_images.shape)
    schedule = TrainSchedule(total_minibatches=400, batch_per_class=16,
                             learning_rate=3e-3, val_period=100, seed=13)
    log = tmp_path / "train.csv"
    result = train(arch, task, None, schedule, val_images, val_labels,
                   log_path=log)
    assert len(result.history) == 4
    first_val = result.history[0][2]
    assert result.best_val_loss < first_val
    assert result.best_val_loss < math.log(2.0)  # better than guessing
    lines = log.read_text().strip().splitlines()
    assert lines[0] == "step,train_loss,val_loss"
    assert len(lines) == 5
    assert result.final_state.step == 400


def test_trained_posterior_approaches_bayes_rule(tmp_path):
    # 2x2 toy with a known signal: the optimal posterior is a logistic
    # function of the matched-filter output, and the trained network should
    # approach it in mean absolute deviation
    task = _toy_task(amplitude=1.5, sigma=1.0)
    s = task.signal_images[0].astype(np.float64)
    ssq = float((s * s).sum())
    arch = Architecture(1, (2, 2), n_classes=2, filters=8, kernel=3)
    rng = np.random.default_rng(14)
    val_images = np.zeros((200, 2, 2))
    val_labels = np.tile([0, 1], 100)
    val_images[val_labels == 1] += s
    val_images += rng.normal(0.0, 1.0, val_images.shape)
    schedule = TrainSchedule(total_minibatches=3000, batch_per_class=32,
                             learning_rate=3e-3, val_period=500, seed=15)
    result = train(arch, task, None, schedule, val_images, val_labels,
                   tmp_path / "train.csv")

    test_images = np.zeros((400, 2, 2))
    test_labels = np.tile([0, 1], 200)
    test_images[test_labels == 1] += s
    test_images += rng.normal(0.0, 1.0, test_images.shape)
    probs = forward_posteriors(test_images, result.best_state)
    mf = test_images.reshape(400, -1) @ s.ravel()
    bayes_p1 = 1.0 / (1.0 + np.exp(-(mf - ssq / 2.0)))
    tv = np.abs(probs[:, 1] - bayes_p1).mean()
    assert tv <= 0.02


def test_select_depth_stops_on_small_improvement():
    vals = {1: 1.0, 3: 0.5, 5: 0.498, 7: 0.1}
    calls = []

    results = {d: SimpleNamespace(best_val_loss=v) for d, v in vals.items()}

    def trainer(depth):
        calls.append(depth)
        return results[depth]

    best_result, history = select_depth([1, 3, 5, 7], trainer)
    assert calls == [1, 3, 5]       # depth 7 is never trained
    assert best_result is results[5]
    assert history == [(1, 1.0), (3, 0.5), (5, 0.498)]


def test_cnn_records_fields():
    arch = Architecture(1, (4, 4), n_classes=3, filters=4, kernel=3)
    state = init_state(arch, seed=16)
    rng = np.random.default_rng(17)
    images = rng.normal(size=(4, 4, 4)).astype(np.float32)
    uniform = np.full(3, 1.0 / 3.0)
    recs = cnn_io_records(images, [0, 1, 2, 0], state, uniform)
    probs = forward_posteriors(images, state)
    assert list(recs.true_label) == [0, 1, 2, 0]
    np.testing.assert_allclose(recs.binary_statistic, 1.0 - probs[:, 0],
                               atol=1e-7)
    np.testing.assert_allclose(
        recs.per_location,
        np.log(probs[:, 1:]) - np.log(probs[:, :1]), rtol=1e-5)
    single = cnn_io_records(images[:1], [0], state, uniform)
    assert single.chosen_location[0] == recs.chosen_location[0]
    shifted = cnn_io_records(images[:1], [0], state, [0.5, 0.3, 0.2])
    np.testing.assert_allclose(
        shifted.per_location[0] - recs.per_location[0],
        np.log([0.3, 0.2]) - math.log(0.5), rtol=1e-6)


def test_cnn_records_survive_underflowing_posteriors():
    # a logit gap of 120 underflows the float32 posterior of class 0 to 0;
    # lambda must stay finite rather than abort the scanning decision
    arch = Architecture(1, (2, 2), n_classes=3, filters=1, kernel=3)
    state = init_state(arch, seed=24)
    state.params[-2][:] = 0.0
    state.params[-1][:] = np.array([0.0, 120.0, 0.0], dtype=np.float32)
    images = np.zeros((2, 2, 2), dtype=np.float32)
    assert forward_posteriors(images, state)[0, 0] == 0.0
    recs = cnn_io_records(images, [0, 1], state, np.full(3, 1.0 / 3.0))
    assert np.all(np.isfinite(recs.per_location))
    assert list(recs.chosen_location) == [1, 1]
    assert recs.per_location[0, 0] == pytest.approx(
        -math.log(np.finfo(np.float32).tiny))


def test_checkpoint_round_trip(tmp_path):
    arch = Architecture(2, (4, 4), n_classes=3, filters=4, kernel=3)
    state = init_state(arch, seed=18)
    state.step = 37
    state.input_mean, state.input_std = 1.25, 4.5
    rng = np.random.default_rng(19)
    for group in (state.params, state.m, state.v):
        for p in group:
            p += rng.normal(size=p.shape).astype(np.float32)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, state)
    loaded = load_checkpoint(path)
    assert loaded.arch == arch
    assert loaded.step == 37
    assert loaded.input_mean == pytest.approx(1.25)
    assert loaded.input_std == pytest.approx(4.5)
    for a, b in zip(state.params + state.m + state.v,
                    loaded.params + loaded.m + loaded.v):
        np.testing.assert_array_equal(a, b)
    with pytest.raises(ValueError):
        load_checkpoint(__file__)


def test_load_checkpoint_rejects_truncated_header(tmp_path):
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, init_state(Architecture(1, (4, 4), n_classes=2,
                                                  filters=2, kernel=3)))
    path.write_bytes(path.read_bytes()[:20])
    with pytest.raises(ValueError, match="truncated header"):
        load_checkpoint(path)


def test_load_checkpoint_rejects_even_kernel(tmp_path):
    path = tmp_path / "ckpt.bin"
    write_malformed_checkpoint(path)
    with pytest.raises(ValueError, match="kernel must be odd"):
        load_checkpoint(path)


@pytest.mark.parametrize("edit", [lambda raw: raw + bytes(4),
                                  lambda raw: raw[:-2]],
                         ids=["trailing", "cut-in-last-block"])
def test_load_checkpoint_rejects_trailing_or_missing_data(tmp_path, edit):
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, init_state(Architecture(1, (4, 4), n_classes=2,
                                                  filters=2, kernel=3)))
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "
                       "trailing or missing data$"):
        load_checkpoint(path)


def test_load_checkpoint_rejects_a_short_read(tmp_path, monkeypatch):
    # a file cut after its size was checked: the block read comes up short
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, init_state(Architecture(1, (4, 4), n_classes=2,
                                                  filters=2, kernel=3)))
    size = path.stat().st_size
    path.write_bytes(path.read_bytes()[:-2])
    monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=size))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "
                       "trailing or missing data$"):
        load_checkpoint(path)


def test_checkpoint_load_holds_the_state_once(tmp_path):
    # the paper's net: each block is read into its own array, without the
    # file's bytes or a second copy of the state
    path = tmp_path / "ckpt.bin"
    state = init_state(Architecture(5, (64, 64)), seed=64)
    save_checkpoint(path, state)
    state_bytes = 3 * sum(p.nbytes for p in state.params)
    assert traced_peak(load_checkpoint, path) <= state_bytes + 64 * 1024


def test_checkpoint_save_copies_no_block(tmp_path):
    state = init_state(Architecture(5, (64, 64)), seed=65)
    assert traced_peak(save_checkpoint, tmp_path / "ckpt.bin", state) <= \
        64 * 1024


def test_loaded_checkpoint_is_updated_in_place(tmp_path):
    # the resume path: the loaded arrays are the state's own float32
    # arrays, and Adam steps them in place
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, init_state(Architecture(2, (4, 4), n_classes=3,
                                                  filters=4, kernel=3),
                                     seed=66))
    state = load_checkpoint(path)
    arrays = state.params + state.m + state.v
    for a in arrays:
        assert a.dtype == np.float32
        assert a.flags.writeable and a.flags.c_contiguous and a.flags.owndata
    before = [a.copy() for a in arrays]
    adam_step(state, [np.full_like(p, 0.5) for p in state.params], 1e-3)
    after = state.params + state.m + state.v
    assert all(a is b for a, b in zip(arrays, after))
    assert not any(np.array_equal(a, b) for a, b in zip(after, before))


def test_save_checkpoint_is_atomic(tmp_path):
    path = tmp_path / "checkpoint.bin"
    state = init_state(Architecture(2, (4, 4), n_classes=3, filters=4,
                                    kernel=3), seed=25)
    save_checkpoint(path, state)
    before = path.read_bytes()
    state.step = 99
    state.v[-1] = np.array(["not a number"] * 3)  # raises after most blocks
    with pytest.raises(ValueError):
        save_checkpoint(path, state)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.bin"]


def test_load_checkpoint_draws_no_random_numbers(tmp_path, monkeypatch):
    path = tmp_path / "ckpt.bin"
    state = init_state(Architecture(2, (4, 4), n_classes=3, filters=4,
                                    kernel=3), seed=26)
    save_checkpoint(path, state)

    def no_rng(*args, **kwargs):
        raise AssertionError("load_checkpoint drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    loaded = load_checkpoint(path)
    for a, b in zip(state.params, loaded.params):
        np.testing.assert_array_equal(a, b)


def test_resume_replays_identical_trajectory(tmp_path):
    task = _toy_task()
    arch = Architecture(1, (2, 2), n_classes=2, filters=4, kernel=3)
    schedule = TrainSchedule(total_minibatches=30, batch_per_class=8,
                             learning_rate=1e-3, val_period=10, seed=20)
    val_images, val_labels = np.zeros((2, 2, 2)), np.array([0, 1])
    log = tmp_path / "train.csv"
    full = train(arch, task, None, schedule, val_images, val_labels, log)

    half = TrainSchedule(total_minibatches=15, batch_per_class=8,
                         learning_rate=1e-3, val_period=10, seed=20)
    part = train(arch, task, None, half, val_images, val_labels, log)
    path = tmp_path / "mid.bin"
    save_checkpoint(path, part.final_state)
    resumed = train(arch, task, None, schedule, val_images, val_labels, log,
                    start_state=load_checkpoint(path))
    assert resumed.final_state.step == full.final_state.step == 30
    for a, b in zip(full.final_state.params, resumed.final_state.params):
        np.testing.assert_array_equal(a, b)


def test_validation_loss_matches_direct():
    arch = Architecture(1, (4, 4), n_classes=2, filters=4, kernel=3)
    state = init_state(arch, seed=21)
    rng = np.random.default_rng(22)
    images = rng.normal(size=(20, 4, 4)).astype(np.float32)
    labels = rng.integers(0, 2, size=20)
    probs = forward_posteriors(images, state)
    direct = -np.log(probs[np.arange(20), labels]).mean()
    assert validation_loss(images, labels, state) == pytest.approx(
        direct, rel=1e-6)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("arch, n", [
    (Architecture(5, (64, 64)), 10),
    (Architecture(2, (8, 12), n_classes=4, filters=3, kernel=3), 300)])
def test_validation_loss_is_the_training_loss(monkeypatch, cpus, arch, n):
    # the two passes share their micro-batches, so their losses are one;
    # at this spread of losses a sum in another order rounds differently
    _usable_cpus(monkeypatch, cpus)
    state = init_state(arch, seed=24)
    images = np.random.default_rng(25).normal(
        scale=30.0, size=(n,) + arch.input_shape).astype(np.float32)
    labels = np.arange(n) % arch.n_classes
    assert validation_loss(images, labels, state) == \
        loss_and_gradient(images, labels, state)[0]


def test_inference_memory_does_not_grow_with_the_batch(monkeypatch):
    # in process, so the parent's peak is the whole pass's
    _usable_cpus(monkeypatch, 1)
    state = init_state(Architecture(2, (64, 64), n_classes=3, filters=4),
                       seed=26)
    images = np.random.default_rng(27).normal(
        size=(600, 64, 64)).astype(np.float32)
    few = traced_peak(forward_posteriors, images[:8], state)
    many = traced_peak(forward_posteriors, images, state)
    assert many <= 1.1 * few


def test_compose_batch_is_balanced_with_fresh_noise():
    task = _toy_task()
    rng = np.random.default_rng(23)
    bgs = np.zeros((3, 2, 2), dtype=np.float32)
    images, labels = nn._compose_batch(task, bgs, 5, rng)
    assert images.shape == (10, 2, 2)
    assert list(np.bincount(labels)) == [5, 5]
    again, _ = nn._compose_batch(task, bgs, 5, rng)
    assert not np.array_equal(images, again)


@pytest.mark.parametrize("preset", ["bke_system1", "bke_system2"])
@pytest.mark.parametrize("per_class", [1, 3, 80])
def test_bke_batches_equal_the_per_image_reference(preset, per_class):
    # a BKE batch draws no index, and a stack's noise is its images' noise
    # drawn in turn, so the batch keeps the per-image composer's bytes
    task = task_preset(preset)
    for step in (0, 1, 17):
        images, labels = nn._compose_batch(
            task, None, per_class, substream(8, "train-step", step))
        want_images, want_labels = reference_compose_batch(
            task, None, per_class, substream(8, "train-step", step))
        assert images.dtype == want_images.dtype == np.float32
        assert images.tobytes() == want_images.tobytes()
        assert labels.dtype == want_labels.dtype
        assert np.array_equal(labels, want_labels)


@pytest.mark.parametrize("preset", ["bke_system1", "bke_system2"])
def test_bke_normalization_equals_the_per_image_reference(preset,
                                                          monkeypatch):
    task = task_preset(preset)
    found = []
    for compose in (nn._compose_batch, reference_compose_batch):
        monkeypatch.setattr(nn, "_compose_batch", compose)
        found.append([nn.estimate_normalization(
            task, None, TrainSchedule(total_minibatches=1, seed=seed))
            for seed in (0, 12)])
    assert found[0] == found[1]


# (preset, images per micro-batch): 64x64 images are 4 to a micro-batch,
# 128x128 images 1
@pytest.mark.parametrize("preset, micro", [("lb", 4), ("clb", 1)])
@pytest.mark.parametrize("per_class", [1, 3])
def test_stored_background_batch_is_one_index_draw_then_noise_in_order(
        preset, micro, per_class):
    task = task_preset(preset)
    w, h = task.grid
    store = np.random.default_rng(30).uniform(
        0.0, 5.0, (7, h, w)).astype(np.float32)
    for step in (0, 4):
        images, labels = nn._compose_batch(
            task, store, per_class, substream(9, "train-step", step))
        rng = substream(9, "train-step", step)
        idx = rng.integers(len(store), size=len(labels))
        want = []
        for lo in range(0, len(labels), micro):
            clean = store[idx[lo:lo + micro]]
            for img, j in zip(clean, labels[lo:lo + micro]):
                if j:
                    img += task.signal_images[j - 1]
            want.append(apply_noise(clean, task.noise, rng))
        assert np.array_equal(labels,
                              np.repeat(np.arange(task.J + 1), per_class))
        assert images.tobytes() == np.concatenate(want).tobytes()


# ---------------------------------------------------------------------------
# micro-batches in forked single-BLAS-thread workers

# 64x64 images are 4 to a workspace block, so a batch of 5 per class of the
# two-class _pool_task is 3 micro-batches, of 4, 4 and 2 images
_POOL_ARCH = Architecture(1, (64, 64), n_classes=2, filters=2, kernel=3)
_POOL_SCHEDULE = TrainSchedule(total_minibatches=3, batch_per_class=5,
                               learning_rate=1e-2, val_period=1, seed=41)


def _pool_task():
    return TaskConfig(kind="custom", grid=(64, 64),
                      noise=NoiseModel.gaussian(1.0),
                      signals=[SignalSpec(1, (32.0, 32.0), 1.5, 4.0, 4.0)])


def _pool_split(n, seed):
    images = np.random.default_rng(seed).normal(size=(n, 64, 64))
    return images.astype(np.float32), np.arange(n) % 2


def _usable_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def _count_pools(monkeypatch):
    """The worker count of each pool made from here on."""
    pools = []
    executor = concurrent.futures.ProcessPoolExecutor

    def counted(workers, *args, **kwargs):
        pools.append(workers)
        return executor(workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counted)
    return pools


@pytest.mark.parametrize("parts", [1, 2, 3])
def test_micro_batched_gradient_matches_whole_batch(parts):
    # the gradients summed over micro-batches against one whole-batch pass
    arch = Architecture(2, (32, 32), n_classes=3, filters=4, kernel=5)
    state = init_state(arch, seed=48, dtype=np.float64)
    rng = np.random.default_rng(49)
    for p in state.params[1::2]:
        p += rng.normal(scale=0.1, size=p.shape)   # non-zero biases
    state.input_mean, state.input_std = 0.3, 1.7
    batch = (parts - 1) * nn._PIXELS // (32 * 32) + 5
    assert len(nn._micro_batches(batch, arch.input_shape)) == parts
    images = rng.normal(size=(batch, 32, 32))
    labels = rng.integers(0, arch.n_classes, size=batch)
    losses, whole = nn._micro_batch_gradient(images, labels, state, batch)
    loss, grads = loss_and_gradient(images, labels, state)
    assert loss == pytest.approx(float(losses.mean()), rel=1e-12)
    for g, g_ref in zip(grads, whole):
        assert g.dtype == g_ref.dtype == np.float64
        _assert_close(g, g_ref)


@pytest.mark.parametrize("n", [3, 7])
def test_each_image_alone_equals_its_row_of_the_stack(n):
    # the head multiplies a micro-batch's rows, a short one zero-padded, so
    # an image's posteriors have the same bits alone as in its micro-batch
    # of 4 images at 64x64, whole or partial
    state = init_state(Architecture(2, (64, 64), filters=4), seed=63)
    images = np.random.default_rng(64).normal(
        size=(n, 64, 64)).astype(np.float32)
    stack = forward_posteriors(images, state)
    for i in range(n):
        assert np.array_equal(forward_posteriors(images[i:i + 1], state)[0],
                              stack[i]), i


def test_gradient_bytes_do_not_depend_on_blas_threads():
    # one 13-image block of a 32-filter 6x10 net: at two threads, its
    # (160 x 780) @ (780 x 32) layer-1 weight-gradient GEMM rounds otherwise
    one, two = stdout_at_blas_threads("""
        import hashlib
        import numpy as np
        from scanobs import neuralnet as nn
        state = nn.init_state(nn.Architecture(2, (6, 10)), seed=50)
        images = np.random.default_rng(51).normal(size=(13, 6, 10))
        loss, grads = nn.loss_and_gradient(images.astype(np.float32),
                                           np.arange(13) % 10, state)
        print(float(loss).hex(),
              *(hashlib.sha256(g.tobytes()).hexdigest() for g in grads))
        """)
    assert one == two


def test_one_filter_posterior_bytes_do_not_depend_on_blas_threads():
    # a one-filter conv is a one-column product, an OpenBLAS GEMV; 300
    # images are 4 micro-batches of 64 images and one of 44
    one, two = stdout_at_blas_threads("""
        import hashlib
        import numpy as np
        from scanobs import neuralnet as nn
        arch = nn.Architecture(2, (16, 16), n_classes=3, filters=1)
        state = nn.init_state(arch, seed=52)
        images = np.random.default_rng(53).normal(size=(300, 16, 16))
        probs = nn.forward_posteriors(images.astype(np.float32), state)
        print(hashlib.sha256(probs.tobytes()).hexdigest())
        """)
    assert one == two


def test_training_does_not_depend_on_usable_cpus(tmp_path, monkeypatch):
    task = _pool_task()
    val_images, val_labels = _pool_split(10, 42)
    pools = _count_pools(monkeypatch)
    results = []
    for cpus in (1, 2):
        _usable_cpus(monkeypatch, cpus)
        results.append(train(_POOL_ARCH, task, None, _POOL_SCHEDULE,
                             val_images, val_labels,
                             tmp_path / f"log{cpus}.csv"))
    # in-process at one CPU; at two, one pool for the steps and validations
    assert pools == [2]
    one, two = results
    assert one.history == two.history and len(one.history) == 3
    for a, b in zip(one.final_state.params + one.final_state.m
                    + one.final_state.v + one.best_state.params,
                    two.final_state.params + two.final_state.m
                    + two.final_state.v + two.best_state.params):
        assert np.array_equal(a, b)
    assert (tmp_path / "log1.csv").read_bytes() == \
        (tmp_path / "log2.csv").read_bytes()


def test_cnn_workers_run_one_blas_thread(monkeypatch):
    if not workers._openblas():
        pytest.skip("numpy did not load an OpenBLAS with a thread getter")
    threads = workers._openblas()[0][1]
    # each image's loss reports the thread count of the process computing it
    monkeypatch.setattr(nn, "_cross_entropy", lambda probs, labels: np.full(
        len(labels), float(threads())))
    _usable_cpus(monkeypatch, 2)
    pools = _count_pools(monkeypatch)
    state = init_state(_POOL_ARCH, seed=43)
    images, labels = _pool_split(10, 44)
    for n, made in ((10, [2]), (3, [])):  # three micro-batches, then one
        pools.clear()
        loss, _ = loss_and_gradient(images[:n], labels[:n], state)
        assert loss == 1.0 and pools == made
        assert threads() == 1


def test_dead_cnn_worker_fails_fast(monkeypatch):
    parent = os.getpid()
    forward = nn._forward_batch

    def dies_in_a_worker(x, state, keep_cache):
        if os.getpid() != parent:
            os._exit(1)
        return forward(x, state, keep_cache)

    def hung(signum, frame):
        raise TimeoutError("the pool hung after a worker died")

    monkeypatch.setattr(nn, "_forward_batch", dies_in_a_worker)
    _usable_cpus(monkeypatch, 2)
    state = init_state(_POOL_ARCH, seed=45)
    images, labels = _pool_split(10, 46)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(120)
    try:
        with pytest.raises(BrokenProcessPool):
            loss_and_gradient(images, labels, state)
        with pytest.raises(BrokenProcessPool):
            forward_posteriors(images, state)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_nonfinite_micro_batch_gradient_diverges_before_update(tmp_path,
                                                               monkeypatch):
    task = _pool_task()
    val_images, val_labels = _pool_split(4, 47)
    _usable_cpus(monkeypatch, 2)
    two_steps = TrainSchedule(total_minibatches=2, batch_per_class=5,
                              learning_rate=1e-2, val_period=1, seed=41)
    start = train(_POOL_ARCH, task, None, two_steps, val_images, val_labels,
                  tmp_path / "log.csv").final_state
    before = start.copy()
    backward = nn._backward_batch

    def nan_in_last_micro_batch(dlogits, cache, state):
        grads = backward(dlogits, cache, state)
        if len(dlogits) == 2:  # the 2-image micro-batch of each step
            grads[0][...] = np.nan
        return grads

    monkeypatch.setattr(nn, "_backward_batch", nan_in_last_micro_batch)
    with pytest.raises(TrainingDiverged,
                       match="non-finite gradient at step 2") as exc:
        train(_POOL_ARCH, task, None, _POOL_SCHEDULE, val_images, val_labels,
              tmp_path / "log.csv", start_state=start)
    assert exc.value.state.step == 2
    for a, b in zip(exc.value.state.params + exc.value.state.m
                    + exc.value.state.v, before.params + before.m + before.v):
        assert np.array_equal(a, b)


def test_call_on_another_state_in_an_open_pool_sends_its_weights(
        monkeypatch):
    # the workers of an open pool inherited the scope's state; a call on
    # any other state must carry that state's weights to them
    _usable_cpus(monkeypatch, 2)
    pools = _count_pools(monkeypatch)
    images, _ = _pool_split(10, 54)
    scope, other = init_state(_POOL_ARCH, seed=55), init_state(_POOL_ARCH,
                                                                 seed=56)
    expected = forward_posteriors(images, other)
    pools.clear()
    with nn._task_map(scope, 3):
        found = forward_posteriors(images, other)
        assert np.array_equal(forward_posteriors(images, scope),
                              forward_posteriors(images, scope.copy()))
    assert pools == [2] and np.array_equal(found, expected)
