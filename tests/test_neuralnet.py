import math

import numpy as np
import pytest

import scanobs.neuralnet as nn
from scanobs.imaging import NoiseModel
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
from scanobs.tasks import TaskConfig


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


def test_trained_posterior_approaches_bayes_rule():
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
    result = train(arch, task, None, schedule, val_images, val_labels)

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

    def trainer(depth):
        calls.append(depth)
        return f"result{depth}", vals[depth]

    best_depth, best_result, history = select_depth([1, 3, 5, 7], trainer)
    assert calls == [1, 3, 5]       # depth 7 is never trained
    assert best_depth == 5
    assert best_result == "result5"
    assert history == [(1, 1.0), (3, 0.5), (5, 0.498)]


def test_cnn_records_fields():
    arch = Architecture(1, (4, 4), n_classes=3, filters=4, kernel=3)
    state = init_state(arch, seed=16)
    rng = np.random.default_rng(17)
    images = rng.normal(size=(4, 4, 4)).astype(np.float32)
    recs = cnn_io_records(images, [0, 1, 2, 0], state)
    probs = forward_posteriors(images, state)
    assert list(recs.true_label) == [0, 1, 2, 0]
    np.testing.assert_allclose(recs.binary_statistic, 1.0 - probs[:, 0],
                               atol=1e-7)
    np.testing.assert_allclose(
        recs.per_location,
        np.log(probs[:, 1:]) - np.log(probs[:, :1]), rtol=1e-5)
    single = cnn_io_records(images[:1], [0], state)
    assert single.chosen_location[0] == recs.chosen_location[0]
    shifted = cnn_io_records(images[:1], [0], state,
                             priors=[0.5, 0.3, 0.2])
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
    recs = cnn_io_records(images, [0, 1], state)
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


def test_resume_replays_identical_trajectory(tmp_path):
    task = _toy_task()
    arch = Architecture(1, (2, 2), n_classes=2, filters=4, kernel=3)
    schedule = TrainSchedule(total_minibatches=30, batch_per_class=8,
                             learning_rate=1e-3, val_period=10, seed=20)
    full = train(arch, task, None, schedule)

    half = TrainSchedule(total_minibatches=15, batch_per_class=8,
                         learning_rate=1e-3, val_period=10, seed=20)
    part = train(arch, task, None, half)
    path = tmp_path / "mid.bin"
    save_checkpoint(path, part.final_state)
    resumed = train(arch, task, None, schedule,
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
    assert validation_loss(images, labels, state, chunk=7) == pytest.approx(
        direct, rel=1e-6)


def test_compose_batch_is_balanced_with_fresh_noise():
    task = _toy_task()
    rng = np.random.default_rng(23)
    bgs = np.zeros((3, 2, 2), dtype=np.float32)
    images, labels = nn._compose_batch(task, bgs, 5, rng)
    assert images.shape == (10, 2, 2)
    assert list(np.bincount(labels)) == [5, 5]
    again, _ = nn._compose_batch(task, bgs, 5, rng)
    assert not np.array_equal(images, again)

