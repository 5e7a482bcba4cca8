"""Convolutional posterior-probability network with hand-written backprop.

The network maps an image to J+1 class probabilities via a stack of 5x5
same-padded convolutions (32 filters each, leaky-rectifier activations), one
2x2 max-pool after the conv stack, and a dense head with softmax.  Forward
and backward passes are implemented explicitly in numpy; no autodiff
framework is used.

Activations are channels-last, (B, H, W, C).  One convolution primitive,
``_conv``, serves the forward pass and the input gradient: it takes one
micro-batch of images whole and copies the k*C windows of each padded row
once into a workspace whose rows kh..kh+H-1 are the band of kernel row kh,
multiplied in place by that row's (k*C, F) weights (a band GEMM of the
kn2row/kn2col family).  The weight gradient slides one band matrix down the
rows.  The pooled map is flattened in (C, h, w) order, so the dense weights
and the checkpoint format do not depend on the activation layout.

The rest is exact elementwise numpy: the leaky ReLU max(y, slope * y) in
place, exact only for 0 <= slope <= 1; its derivative max(sign(out), slope)
from the cached output, as out > 0 exactly where y > 0; and the 2x2 max-pool
of four strided views, with argmax's first-occurrence gradient routing.

Each call runs as micro-batches of 16384 pixels (4 images at 64x64), which
every convolution takes whole, and the dense head zero-padded to a whole
one's rows, so an image's posteriors have the same bits alone as in any
batch; they are mapped over forked single-BLAS-thread workers
(``workers``).  An inference micro-batch returns its images' posteriors.  A
training micro-batch returns their cross-entropies and its gradient, with
the logit gradient scaled by 1/B of the whole batch, the gradients summed
in micro-batch order.  Inference is the training pass without the
backward, on the same micro-batches, so a set's validation loss is its
training loss.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
import tempfile
from dataclasses import dataclass, replace
from itertools import repeat
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import workers
from .imaging import apply_noise
from .observers import Records, records_from_statistics
from .rng import stream, substream


@dataclass(frozen=True)
class Architecture:
    conv_layers: int
    input_shape: tuple[int, int]     # (height, width)
    n_classes: int = 10              # J + 1
    filters: int = 32
    kernel: int = 5
    leaky_slope: float = 0.01

    def __post_init__(self):
        if self.conv_layers < 1:
            raise ValueError("need at least one conv layer")
        if self.filters < 1:
            raise ValueError("need at least one filter")
        if self.kernel < 1 or self.kernel % 2 == 0:
            # same padding is centred, and the flipped-kernel input
            # gradient exact, only for an odd kernel
            raise ValueError(f"kernel must be odd and positive, "
                             f"got {self.kernel}")
        if not 0.0 <= self.leaky_slope <= 1.0:
            raise ValueError(f"leaky_slope must be in [0, 1], got "
                             f"{self.leaky_slope}")
        h, w = self.input_shape
        if h % 2 or w % 2:
            raise ValueError("input dimensions must be even for 2x2 pooling")

    @property
    def dense_inputs(self) -> int:
        h, w = self.input_shape
        return self.filters * (h // 2) * (w // 2)


@dataclass
class NetworkState:
    """Weights plus Adam moments; params are ordered conv w/b pairs then the
    dense weight and bias."""

    arch: Architecture
    params: list[np.ndarray]
    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0
    input_mean: float = 0.0
    input_std: float = 1.0

    def copy(self) -> "NetworkState":
        return NetworkState(self.arch,
                            [p.copy() for p in self.params],
                            [p.copy() for p in self.m],
                            [p.copy() for p in self.v],
                            self.step, self.input_mean, self.input_std)


def _param_shapes(arch: Architecture) -> list[tuple[int, ...]]:
    """Parameter shapes in state order: conv (F, C, k, k) weight and (F,)
    bias per layer, then the dense weight and bias."""
    shapes = []
    c_in = 1
    for _ in range(arch.conv_layers):
        shapes += [(arch.filters, c_in, arch.kernel, arch.kernel),
                   (arch.filters,)]
        c_in = arch.filters
    return shapes + [(arch.n_classes, arch.dense_inputs), (arch.n_classes,)]


def init_state(arch: Architecture, seed: int = 0,
               dtype=np.float32) -> NetworkState:
    """Fan-in-scaled uniform weights and zero biases, fully seed-determined."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC0FFEE]))
    params = []
    for shape in _param_shapes(arch):
        if len(shape) == 1:
            params.append(np.zeros(shape, dtype=dtype))
        else:
            limit = np.sqrt(6.0 / math.prod(shape[1:]))
            params.append(rng.uniform(-limit, limit, shape).astype(dtype))
    return NetworkState(arch, params, [np.zeros_like(p) for p in params],
                        [np.zeros_like(p) for p in params])


# ---------------------------------------------------------------------------
# primitive layers

# Pixels per micro-batch: at 64x64 a micro-batch is 4 images, whose row
# windows in a 32-channel 5x5 layer take 68 x 4 x 64 x 160 floats (11 MB),
# and the weight gradient's band matrix 4 x 64 x 64 x 160 (10 MB); small
# images share one micro-batch.
_PIXELS = 16384


def _micro_batch_images(shape):
    """Images of shape (h, w) per micro-batch: as many as _PIXELS pixels
    hold, and at least one."""
    return max(1, _PIXELS // math.prod(shape))


def _micro_batches(n, shape):
    """Slices of n images of shape (h, w), of at most _PIXELS pixels (or one
    image) each: the micro-batches of a call, which the convolutions take
    whole."""
    nb = _micro_batch_images(shape)
    return [slice(i, i + nb) for i in range(0, n, nb)]


def _padded_windows(x, k):
    """The view win[b, yp, x] = xp[b, yp, x:x+k, :], shape (B, H+2p, W, k,
    C), of the zero-padded copy xp of channels-last x (B, H, W, C)."""
    b, h, w, c = x.shape
    p = k // 2
    xp = np.zeros((b, h + 2 * p, w + 2 * p, c), dtype=x.dtype)
    xp[:, p:p + h, p:p + w] = x
    return sliding_window_view(xp, k, axis=2).swapaxes(-1, -2)


def _conv(x, w, out):
    """Add the same-padded correlation of x (B, H, W, C), one micro-batch
    taken whole, with w (F, C, k, k) into out (B, H, W, F); returns out."""
    f, c, k, _ = w.shape
    n, h, wd = x.shape[:3]
    bands = w.transpose(2, 3, 1, 0).reshape(k, k * c, f)
    # one copy of the windows, images interleaved: rows[kh:kh+H] is the
    # band of kernel row kh as one (H*B*W, k*C) matrix in (y, b, x) order
    rows = _padded_windows(x, k).swapaxes(0, 1).copy()
    yxf = np.empty((h * n * wd, f), dtype=out.dtype)
    for kh in range(k):
        np.matmul(rows[kh:kh + h].reshape(-1, k * c), bands[kh], out=yxf)
        out += yxf.reshape(h, n, wd, f).swapaxes(0, 1)
    return out


def _conv_weight_grad(x, dy, k):
    """Gradient of sum(dy * _conv(x, w)) w.r.t. w, shape (F, C, k, k).
    Kernel row kh+1's band is kh's moved up one row in each image (a 1-D
    overlapping assignment: a memmove, no temporary) and a new bottom row."""
    n, h, w, c = x.shape
    f = dy.shape[-1]
    win = _padded_windows(x, k)
    band = win[:, :h].copy()
    # += into zeros, not =: a GEMM's -0.0 sums to +0.0, as in the reference
    dbands = np.zeros((k, k * c, f), dtype=dy.dtype)
    for kh in range(k):
        if kh:
            for img in band.reshape(n, -1):
                img[:-w * k * c] = img[w * k * c:]
            band[:, -1] = win[:, h - 1 + kh]
        dbands[kh] += band.reshape(-1, k * c).T @ dy.reshape(-1, f)
    return np.ascontiguousarray(
        dbands.reshape(k, k, c, f).transpose(3, 2, 0, 1))


def _pool_forward(x):
    """2x2 max-pool of channels-last x.  On x86 numpy's maximum returns its
    second operand when +0 meets -0, so this order keeps the first of tied
    values, as argmax does; elsewhere a pooled zero's sign may differ."""
    v = [x[:, r::2, s::2] for r in (0, 1) for s in (0, 1)]
    return np.maximum(np.maximum(v[3], v[2]), np.maximum(v[1], v[0]))


def _pool_backward(dy, x, pooled):
    """Route each pooled gradient to the first maximum in its window."""
    bits = np.dtype(f"u{x.itemsize}")
    dx = np.empty_like(x)
    free = np.ones(pooled.shape, dtype=bool)
    for r, s in ((0, 0), (0, 1), (1, 0), (1, 1)):
        hit = (x[:, r::2, s::2] == pooled) & free
        free ^= hit
        # dy's bits where hit, +0 elsewhere: an integer product is exact
        np.multiply(dy.view(bits), hit, out=dx[:, r::2, s::2].view(bits))
    return dx


def softmax(z: np.ndarray) -> np.ndarray:
    """Stable softmax along the last axis."""
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# network passes

def _forward_batch(x, state: NetworkState, keep_cache: bool):
    arch = state.arch
    acts = [x]  # the input of every conv layer, then the last output
    a = x
    for i in range(arch.conv_layers):
        w, b = state.params[2 * i], state.params[2 * i + 1]
        y = np.empty(a.shape[:3] + b.shape, dtype=a.dtype)
        y[...] = b
        _conv(a, w, y)
        np.maximum(y, arch.leaky_slope * y, out=y)
        a = y
        if keep_cache:
            acts.append(a)
    pooled = _pool_forward(a)
    flat = pooled.transpose(0, 3, 1, 2).reshape(len(x), -1)
    return flat, (acts, pooled, flat) if keep_cache else None


def _head(flat, state: NetworkState):
    """Dense-layer logits of the flattened pooled features, from a product
    of at least a micro-batch's rows, fewer images zero-padded to that
    count: OpenBLAS rounds a product of a few rows on another path."""
    n = len(flat)
    rows = max(n, _micro_batch_images(state.arch.input_shape))
    logits = np.pad(flat, ((0, rows - n), (0, 0))) @ state.params[-2].T
    return logits[:n] + state.params[-1]


def _backward_batch(dlogits, cache, state: NetworkState):
    arch = state.arch
    acts, pooled, flat = cache
    wd = state.params[-2]
    grads = [None] * len(state.params)
    grads[-2] = dlogits.T @ flat
    grads[-1] = dlogits.sum(axis=0)
    dflat = dlogits @ wd
    b, h, w, c = pooled.shape
    dpool = dflat.reshape(b, c, h, w).transpose(0, 2, 3, 1)
    da = _pool_backward(dpool, acts[-1], pooled)
    for i in reversed(range(arch.conv_layers)):
        dy = da * np.maximum(np.sign(acts.pop()), arch.leaky_slope)
        x_in = acts[i]
        grads[2 * i] = _conv_weight_grad(x_in, dy, arch.kernel)
        grads[2 * i + 1] = dy.sum(axis=(0, 1, 2))
        if i:  # nothing reads the gradient of the input image
            wflip = state.params[2 * i].transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
            da = _conv(dy, wflip, np.zeros_like(x_in))
    return grads


def _prepare_input(images, state: NetworkState):
    x = np.asarray(images)[..., None]  # (B, H, W, 1)
    dtype = state.params[0].dtype
    return ((x - state.input_mean) / state.input_std).astype(dtype)


# The open scope, as (state, its map): set before a pool's first task forks
# the workers, so they have that state without its being sent.  In train()
# its weights live in a shared mapping that Adam updates in place, so the
# workers see each step's weights.
_scope = None


@contextlib.contextmanager
def _task_map(state: NetworkState, tasks: int):
    """workers.task_map for tasks on state, with what each task carries of
    state: None where the workers have it from the fork, else the state
    (sent without its Adam moments).  Nested calls reuse the open map."""
    global _scope
    if _scope is not None:
        yield _scope[1], (None if state is _scope[0]
                          else replace(state, m=[], v=[]))
        return
    with workers.task_map(tasks) as tasks_map:
        _scope = state, tasks_map
        try:
            yield tasks_map, None
        finally:
            _scope = None


def _posteriors(images, state):
    """Posteriors of one inference micro-batch, run in a worker."""
    state = _scope[0] if state is None else state
    flat = _forward_batch(_prepare_input(images, state), state, False)[0]
    return softmax(_head(flat, state))


def forward_posteriors(images, state: NetworkState) -> np.ndarray:
    """Posteriors for a stack of images, shape (N, J+1), computed on
    loss_and_gradient's micro-batches and concatenated in order."""
    images = np.asarray(images)
    shape = state.arch.input_shape
    if images.shape[1:] != shape:
        raise ValueError(f"image shape {images.shape[1:]} does not match "
                         f"architecture input {shape}")
    parts = _micro_batches(len(images), shape)
    with _task_map(state, len(parts)) as (tasks, net):
        return np.concatenate(list(tasks(
            _posteriors, (images[s] for s in parts), repeat(net))))


def _cross_entropy(probs, labels):
    """Per-image cross-entropy -log Pr(label | image), in float64."""
    sel = probs[np.arange(len(labels)), labels].astype(np.float64)
    return -np.log(sel + 1e-300)


def _micro_batch_gradient(images, labels, state, batch: int):
    """Per-image cross-entropies of one training micro-batch and its
    gradient, with the logit gradient per sample (softmax(z) - onehot(y))
    / batch; run in a worker."""
    state = _scope[0] if state is None else state
    flat, cache = _forward_batch(_prepare_input(images, state), state, True)
    logits = _head(flat, state)
    probs = softmax(logits)
    dlogits = probs.astype(logits.dtype)
    dlogits[np.arange(len(labels)), labels] -= 1.0
    dlogits /= batch
    return (_cross_entropy(probs, labels),
            _backward_batch(dlogits, cache, state))


def loss_and_gradient(images, labels, state: NetworkState):
    """Mean cross-entropy over the batch and its gradient w.r.t. all params,
    the micro-batch gradients summed in micro-batch order as they arrive."""
    images, labels = np.asarray(images), np.asarray(labels)
    if len(labels) == 0:
        raise ValueError("empty batch")
    if labels.min() < 0 or labels.max() >= state.arch.n_classes:
        raise ValueError("label out of range")
    parts = _micro_batches(len(labels), state.arch.input_shape)
    losses, grads = [], None
    with _task_map(state, len(parts)) as (tasks, net):
        for loss, part in tasks(_micro_batch_gradient,
                                (images[s] for s in parts),
                                (labels[s] for s in parts),
                                repeat(net), repeat(len(labels))):
            losses.append(loss)
            if grads is None:
                grads = part
            else:
                for total, g in zip(grads, part):
                    total += g
    return float(np.concatenate(losses).mean()), grads


# ---------------------------------------------------------------------------
# optimization

# Adam applies the rate to float32 parameters, so it must be a finite float32
_LARGEST_RATE = float(np.finfo(np.float32).max)


@dataclass(frozen=True)
class TrainSchedule:
    total_minibatches: int
    batch_per_class: int = 80
    learning_rate: float = 1e-4
    val_period: int = 1000
    seed: int = 0

    def __post_init__(self):
        if min(self.total_minibatches, self.batch_per_class,
               self.val_period) <= 0:
            raise ValueError("total_minibatches, batch_per_class and "
                             "val_period must be positive")
        if not 0.0 < self.learning_rate <= _LARGEST_RATE:
            raise ValueError(f"learning_rate must be above 0 and at most "
                             f"{_LARGEST_RATE:.8g}, got {self.learning_rate}")


class TrainingDiverged(RuntimeError):
    """A non-finite loss or gradient, with ``state`` as before the update, or
    validation loss, with the last (or starting) state validated finite."""

    def __init__(self, message: str, state: NetworkState):
        super().__init__(message)
        self.state = state


# Adam moment decay rates and denominator offset
BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8


def adam_step(state: NetworkState, grads, lr: float) -> NetworkState:
    """One Adam update with bias correction; mutates and returns state.

    Every gradient is checked finite before anything changes.  Each update
    runs in place through two scratch arrays of its parameter's shape, in
    the operation order of m += (1 - BETA1) g, v += (1 - BETA2) g g and
    p -= lr (m / bc1) / (sqrt(v / bc2) + EPSILON), so it has those bits.
    """
    for g in grads:
        if not np.all(np.isfinite(g)):
            raise TrainingDiverged(f"non-finite gradient at step {state.step}",
                                   state)
    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for p, m, v, g in zip(state.params, state.m, state.v, grads):
        g = g.astype(p.dtype, copy=False)
        s, u = np.empty_like(p), np.empty_like(p)
        m *= BETA1
        m += np.multiply(g, 1.0 - BETA1, out=s)
        v *= BETA2
        np.multiply(g, 1.0 - BETA2, out=s)
        v += np.multiply(s, g, out=s)
        np.divide(m, bc1, out=s)
        s *= lr
        np.divide(v, bc2, out=u)
        np.sqrt(u, out=u)
        u += EPSILON
        s /= u
        p -= s
    return state


# ---------------------------------------------------------------------------
# training loop

@dataclass
class TrainResult:
    best_state: NetworkState
    final_state: NetworkState
    best_val_loss: float
    history: list[tuple[int, float, float]]  # (step, train_loss, val_loss)


def _compose_batch(task, backgrounds, batch_per_class, rng):
    """Balanced mini-batch, its classes whole runs in label order: stored
    noiseless images picked by one index draw (zeros on a BKE task, which
    draws none), each class's signal added, then fresh noise drawn a
    micro-batch at a time, in order."""
    h, w = task.grid[1], task.grid[0]
    labels = np.repeat(np.arange(task.J + 1), batch_per_class)
    if backgrounds is None:
        images = np.zeros((len(labels), h, w), dtype=np.float32)
    else:
        images = backgrounds[rng.integers(len(backgrounds), size=len(labels))]
    by_class = images.reshape(task.J + 1, batch_per_class, h * w)
    by_class[1:] += task.signal_images.reshape(task.J, 1, h * w)
    for s in _micro_batches(len(labels), (h, w)):
        images[s] = apply_noise(images[s], task.noise, rng)
    return images, labels


def validation_loss(images, labels, state: NetworkState) -> float:
    """loss_and_gradient's loss (mean cross-entropy) on a set, bit for bit."""
    return float(_cross_entropy(forward_posteriors(images, state),
                                labels).mean())


_NORMALIZATION_PROBE = 200  # images in the input-normalization probe


def estimate_normalization(task, backgrounds, schedule: TrainSchedule):
    """Global input mean/std from a probe of simulated noisy training images."""
    rng = stream(schedule.seed, "input-normalization")
    per_class = max(1, _NORMALIZATION_PROBE // (task.J + 1))
    images, _ = _compose_batch(task, backgrounds, per_class, rng)
    std = float(images.std())
    return float(images.mean()), std if std > 0 else 1.0


def train(arch: Architecture, task, backgrounds, schedule: TrainSchedule,
          val_images, val_labels, log_path, start_state=None) -> TrainResult:
    """Semi-online training: stored noiseless images, noise drawn per batch.

    Every mini-batch is balanced over the J+1 classes.  Each step's
    randomness derives only from (schedule.seed, step), so training resumed
    from a checkpoint replays the identical trajectory.  Every validation
    is logged to the CSV at log_path.  Returns the state with the lowest
    validation cross-entropy seen at checkpoints, plus the final state.
    """
    if start_state is not None:
        state = start_state
    else:
        state = init_state(arch, seed=schedule.seed)
        state.input_mean, state.input_std = estimate_normalization(
            task, backgrounds, schedule)
    best_state = validated = state.copy()
    best_val = np.inf
    history = []
    step_parts = _micro_batches(schedule.batch_per_class * (task.J + 1),
                                state.arch.input_shape)
    state.params = workers.shared_copies(state.params)  # see _scope
    # non-finite values raise TrainingDiverged; numpy's warnings add nothing.
    # The steps and validations share one pool of workers.
    with open(log_path, "w") as log, np.errstate(all="ignore"), \
            _task_map(state, len(step_parts)):
        log.write("step,train_loss,val_loss\n")
        for step in range(state.step, schedule.total_minibatches):
            rng = substream(schedule.seed, "train-step", step)
            images, labels = _compose_batch(task, backgrounds,
                                            schedule.batch_per_class, rng)
            loss, grads = loss_and_gradient(images, labels, state)
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"loss became non-finite at step {step}", state)
            adam_step(state, grads, schedule.learning_rate)
            if (state.step % schedule.val_period == 0
                    or state.step == schedule.total_minibatches):
                val = validation_loss(val_images, val_labels, state)
                history.append((state.step, loss, val))
                log.write(f"{state.step},{loss:.6f},{val:.6f}\n")
                log.flush()
                if not np.isfinite(val):
                    raise TrainingDiverged(f"validation loss became "
                                           f"non-finite at step {state.step}",
                                           validated)
                validated = state.copy()
                if val < best_val:
                    best_val = val
                    best_state = validated
    return TrainResult(best_state, state, float(best_val), history)


def select_depth(depths, trainer):
    """Depth search: train increasing depths until the validation
    cross-entropy improves by less than 1% over the previous depth.

    trainer(depth) must return a TrainResult.  Returns (best result,
    [(depth, best_val_loss), ...]).
    """
    trained = []
    prev = None
    for depth in depths:
        result = trainer(depth)
        trained.append((depth, result))
        val = result.best_val_loss
        if prev is not None and (prev - val) < 0.01 * prev:
            break
        prev = val
    best = min(trained, key=lambda t: t[1].best_val_loss)[1]
    return best, [(d, r.best_val_loss) for d, r in trained]


# ---------------------------------------------------------------------------
# observer interface

def cnn_io_records(images, labels, state: NetworkState, priors) -> Records:
    """Observer records from the network posteriors.

    lambda_j = log Pr(H_j|g) - log Pr(H_0|g) + log Pr(H_j) - log Pr(H_0),
    with priors of length J+1; the binary statistic is 1 - Pr(H_0|g).
    Posteriors are floored at the smallest normal number of their dtype, so
    a posterior that underflows to 0 still gives a finite lambda.
    """
    probs = forward_posteriors(images, state)
    logp = np.log(np.maximum(probs, np.finfo(probs.dtype).tiny))
    priors = np.asarray(priors, dtype=np.float64)
    lams = logp[:, 1:] - logp[:, :1] + (np.log(priors[1:]) - np.log(priors[0]))
    return records_from_statistics(lams, labels, 1.0 - probs[:, 0])


# ---------------------------------------------------------------------------
# checkpoints

_CKPT_MAGIC = b"SCANOBSN"
_CKPT_HEADER = struct.Struct("<8sIIIIIIIfffQ")


def save_checkpoint(path, state: NetworkState):
    """Binary checkpoint: header + flat little-endian float32 blocks.

    Block order: every parameter (conv weight/bias pairs, dense weight,
    dense bias), then the first-moment blocks, then the second-moment blocks,
    each in the same parameter order.  Each block is written from its
    array's own buffer, with no bytes copy.  The file is written under a
    temporary name in the same directory and then renamed over ``path``, so
    an interrupted save leaves any previous checkpoint intact.
    """
    arch = state.arch
    hdr = _CKPT_HEADER.pack(
        _CKPT_MAGIC, 1, arch.conv_layers, arch.filters, arch.kernel,
        arch.n_classes, arch.input_shape[0], arch.input_shape[1],
        arch.leaky_slope, state.input_mean, state.input_std, state.step)
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(hdr)
            for group in (state.params, state.m, state.v):
                for p in group:
                    fh.write(np.ascontiguousarray(p, dtype="<f4"))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_checkpoint(path) -> NetworkState:
    """The NetworkState saved at path by save_checkpoint.

    The header is checked, then the file's size against the blocks it
    names, before any block is allocated; each block is then read straight
    into its own writable float32 array, so the state is held once.  A
    malformed file raises a one-line ValueError naming it.
    """
    with open(path, "rb") as fh:
        head = fh.read(_CKPT_HEADER.size)
        if len(head) < _CKPT_HEADER.size:
            raise ValueError(f"{path}: truncated header")
        (magic, version, conv_layers, filters, kernel, n_classes, in_h, in_w,
         slope, mean, std, step) = _CKPT_HEADER.unpack(head)
        if magic != _CKPT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        if version != 1:
            raise ValueError(f"{path}: unsupported checkpoint version "
                             f"{version}")
        try:
            arch = Architecture(conv_layers, (in_h, in_w), n_classes, filters,
                                kernel, round(float(slope), 6))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        shapes = _param_shapes(arch)
        group_bytes = 4 * sum(math.prod(shape) for shape in shapes)
        if (_CKPT_HEADER.size + 3 * group_bytes
                != os.fstat(fh.fileno()).st_size):
            raise ValueError(f"{path}: trailing or missing data")
        groups = []
        for _ in range(3):
            loaded = []
            for shape in shapes:
                # "<f4" is float32 on a little-endian host, where astype
                # returns the array itself
                arr = np.empty(shape, dtype="<f4")
                if fh.readinto(arr) != arr.nbytes:
                    raise ValueError(f"{path}: trailing or missing data")
                loaded.append(arr.astype(np.float32, copy=False))
            groups.append(loaded)
    return NetworkState(arch, groups[0], groups[1], groups[2], step,
                        float(mean), float(std))
