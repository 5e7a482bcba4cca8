"""Test-only dataset writers, readers of evaluation and observer outputs, the
comparison-matrix LROC/ROC sweep, the chunk-by-chunk validation loss, a
malformed checkpoint writer, the im2col einsum network that the
channels-last convolution is checked against, the band-copy convolutions,
the channels-last network with those convolutions, ``np.where`` activations
and an argmax pool, and the ``rng.uniform`` samplers and the per-lump,
whole-image and per-iteration lumpy-background references; the curves, the
network passes, the sampling, the rendering and the MCMC chain must equal
these bit for bit."""

import csv
import math

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from scanobs import neuralnet
from scanobs.dataset import DatasetWriter
from scanobs.evaluation import LrocCurve, _split_records
from scanobs.imaging import _clb_blob, pixel_grid
from scanobs.mcmc import BIRTH_PROB, MOVE_PROB, MOVE_STD, _reflect
from scanobs.observers import Records, records_from_log_lrs
from scanobs.phantoms import ClbCluster, ClbRealization, LumpyRealization


def write_dataset(path, images: np.ndarray, labels):
    """Write a stack of images (N, H, W) with integer labels."""
    n, h, w = images.shape
    labels = np.asarray(labels)
    with DatasetWriter(path, w, h, int(labels.max(initial=0))) as out:
        for img, lab in zip(images, labels):
            out.append(img, int(lab))


def image_to_csv(path, image: np.ndarray):
    """Export a single image as CSV, one row per image row."""
    np.savetxt(path, np.asarray(image), delimiter=",", fmt="%.8g")


def lroc_trapezoid_area(curve: LrocCurve) -> float:
    return float(np.trapezoid(curve.pcl, curve.fpf))


def reference_curve(records: Records, binary: bool) -> LrocCurve:
    """The LROC (or, with binary, ROC) sweep as a (threshold x case)
    comparison matrix averaged over cases."""
    t_abs, t_sig, correct = _split_records(records, binary)
    taus = np.concatenate(([np.inf],
                           np.unique(np.concatenate((t_abs, t_sig)))[::-1],
                           [-np.inf]))
    fpf = (t_abs[None, :] > taus[:, None]).mean(axis=1)
    hit = t_sig[None, :] > taus[:, None]
    hit &= correct
    return LrocCurve(taus, fpf, hit.mean(axis=1))


def records_from_csv(path) -> Records:
    """Read back what observers.records_to_csv wrote."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        n_lam = sum(1 for h in header if h.startswith("lambda_"))
        rows = list(reader)
    lams = np.array([[float(v) for v in row[5:5 + n_lam]] for row in rows])
    return Records(np.array([float(row[2]) for row in rows]),
                   np.array([int(row[3]) for row in rows]),
                   np.array([int(row[1]) for row in rows]),
                   lams.reshape(len(rows), n_lam),
                   np.array([float(row[4]) for row in rows]))


def reference_validation_loss(images, labels, state, chunk=256) -> float:
    """Mean validation cross-entropy as a loop over 256-image chunks, each
    summed on its own and added in order."""
    labels = np.asarray(labels)
    total = 0.0
    for i in range(0, len(images), chunk):
        probs = neuralnet.forward_posteriors(images[i:i + chunk], state)
        sel = probs[np.arange(len(probs)), labels[i:i + chunk]]
        total += float(-np.log(sel.astype(np.float64) + 1e-300).sum())
    return total / len(labels)


def write_malformed_checkpoint(path, input_shape=(4, 4), n_classes=2,
                               kernel=4, leaky_slope=0.01):
    """A well-formed checkpoint apart from its header's kernel (by default
    an even 4) or leaky slope."""
    filters = 2
    header = neuralnet._CKPT_HEADER.pack(
        neuralnet._CKPT_MAGIC, 1, 1, filters, kernel, n_classes, *input_shape,
        leaky_slope, 0.0, 1.0, 0)
    dense = filters * (input_shape[0] // 2) * (input_shape[1] // 2)
    floats = filters * kernel * kernel + filters + n_classes * (dense + 1)
    path.write_bytes(header + bytes(3 * 4 * floats))


# ---------------------------------------------------------------------------
# reference network: channels-first (B, C, H, W) activations, convolutions by
# einsum over an as_strided im2col view

def _cols_view(xp, k, h, w):
    b, c = xp.shape[:2]
    s = xp.strides
    return as_strided(xp, (b, c, k, k, h, w),
                      (s[0], s[1], s[2], s[3], s[2], s[3]))


def reference_conv_forward(x, w, b):
    k = w.shape[-1]
    p = k // 2
    _, _, h, ww = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    cols = _cols_view(xp, k, h, ww)
    y = np.einsum("fckl,bcklhw->bfhw", w, cols, optimize=True)
    return y + b[None, :, None, None]


def reference_conv_backward(x, w, dy):
    """(dW, db, dX) of sum(dy * reference_conv_forward(x, w, b))."""
    k = w.shape[-1]
    p = k // 2
    _, _, h, ww = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    dw = np.einsum("bfhw,bcklhw->fckl", dy, _cols_view(xp, k, h, ww),
                   optimize=True)
    db = dy.sum(axis=(0, 2, 3))
    dyp = np.pad(dy, ((0, 0), (0, 0), (p, p), (p, p)))
    wflip = np.ascontiguousarray(w[:, :, ::-1, ::-1])
    dx = np.einsum("fckl,bfklhw->bchw", wflip, _cols_view(dyp, k, h, ww),
                   optimize=True)
    return dw, db, dx


def reference_loss_and_gradient(images, labels, state):
    """(posteriors, mean cross-entropy, gradients) of the reference network
    with the parameters of ``state``."""
    arch = state.arch
    x = ((np.asarray(images)[:, None] - state.input_mean)
         / state.input_std).astype(state.params[0].dtype)
    caches = []
    for i in range(arch.conv_layers):
        y = reference_conv_forward(x, *state.params[2 * i:2 * i + 2])
        caches.append((x, y > 0))
        x = np.where(y > 0, y, arch.leaky_slope * y)
    b, c, h, w = x.shape
    xr = x.reshape(b, c, h // 2, 2, w // 2, 2) \
          .transpose(0, 1, 2, 4, 3, 5).reshape(b, c, h // 2, w // 2, 4)
    idx = xr.argmax(axis=-1)
    flat = np.take_along_axis(xr, idx[..., None], axis=-1).reshape(b, -1)
    logits = flat @ state.params[-2].T + state.params[-1]
    z = np.exp(logits - logits.max(axis=-1, keepdims=True))
    probs = z / z.sum(axis=-1, keepdims=True)
    labels = np.asarray(labels)
    loss = float(-np.log(probs[np.arange(b), labels]).mean())
    dlogits = probs.copy()
    dlogits[np.arange(b), labels] -= 1.0
    dlogits /= b
    grads = [None] * len(state.params)
    grads[-2] = dlogits.T @ flat
    grads[-1] = dlogits.sum(axis=0)
    dxr = np.zeros_like(xr)
    np.put_along_axis(dxr, idx[..., None],
                      (dlogits @ state.params[-2]).reshape(idx.shape + (1,)),
                      axis=-1)
    da = dxr.reshape(b, c, h // 2, w // 2, 2, 2) \
            .transpose(0, 1, 2, 4, 3, 5).reshape(b, c, h, w)
    for i in reversed(range(arch.conv_layers)):
        x_in, mask = caches[i]
        dy = np.where(mask, da, arch.leaky_slope * da)
        grads[2 * i], grads[2 * i + 1], da = reference_conv_backward(
            x_in, state.params[2 * i], dy)
    return probs, loss, grads


# ---------------------------------------------------------------------------
# band-copy convolutions: per block of images and per kernel row, a strided
# gather of every pixel's k*C window into a (count*H*W, k*C) band matrix and
# one band GEMM; the rows of a block sum in kernel-row order

def _band_blocks(x, k):
    """Yields (start, count, kh, cols) per block of images and kernel row
    kh; row r of cols (count*H*W, k*C) is the zero-padded window
    x[b, y+kh-p, x-p:x+p+1, :] of output pixel r.  cols is reused."""
    b, h, w, c = x.shape
    p = k // 2
    nb = neuralnet._images_per_block(x)
    xp = np.zeros((nb, h + 2 * p, w + 2 * p, c), dtype=x.dtype)
    cols = np.empty((nb, h, w, k, c), dtype=x.dtype)
    for i in range(0, b, nb):
        n = min(nb, b - i)
        xp[:n, p:p + h, p:p + w] = x[i:i + n]
        for kh in range(k):
            win = sliding_window_view(xp[:n, kh:kh + h], k, axis=2)
            np.copyto(cols[:n], win.swapaxes(-1, -2))
            yield i, n, kh, cols[:n].reshape(n * h * w, k * c)


def reference_band_conv(x, w, out):
    """Add the same-padded correlation of x (B, H, W, C) with w (F, C, k, k)
    into out (B, H, W, F); returns out."""
    f, c, k, _ = w.shape
    bands = w.transpose(2, 3, 1, 0).reshape(k, k * c, f)
    prod = np.empty((neuralnet._images_per_block(x),) + out.shape[1:],
                    dtype=out.dtype)
    for i, n, kh, cols in _band_blocks(x, k):
        np.matmul(cols, bands[kh], out=prod[:n].reshape(len(cols), f))
        out[i:i + n] += prod[:n]
    return out


def reference_band_conv_weight_grad(x, dy, k):
    """Gradient of sum(dy * reference_band_conv(x, w)) w.r.t. w."""
    c, f = x.shape[-1], dy.shape[-1]
    dbands = np.zeros((k, k * c, f), dtype=dy.dtype)
    for i, n, kh, cols in _band_blocks(x, k):
        dbands[kh] += cols.T @ dy[i:i + n].reshape(len(cols), f)
    return np.ascontiguousarray(
        dbands.reshape(k, k, c, f).transpose(3, 2, 0, 1))


# ---------------------------------------------------------------------------
# channels-last reference network: the band-copy convolutions, with the leaky
# ReLU by np.where over stored masks and the max-pool by a transposed argmax

def _reference_pool_forward(x):
    b, h, w, c = x.shape
    xr = x.reshape(b, h // 2, 2, w // 2, 2, c) \
          .transpose(0, 1, 3, 5, 2, 4).reshape(b, h // 2, w // 2, c, 4)
    idx = xr.argmax(axis=-1)
    y = np.take_along_axis(xr, idx[..., None], axis=-1)[..., 0]
    return y, idx


def _reference_pool_backward(dy, idx, in_shape):
    b, h, w, c = in_shape
    dxr = np.zeros((b, h // 2, w // 2, c, 4), dtype=dy.dtype)
    np.put_along_axis(dxr, idx[..., None], dy[..., None], axis=-1)
    return dxr.reshape(b, h // 2, w // 2, c, 2, 2) \
              .transpose(0, 1, 4, 2, 5, 3).reshape(b, h, w, c)


def _reference_forward_batch(x, state, keep_cache):
    arch = state.arch
    caches = []
    a = x
    for i in range(arch.conv_layers):
        w, b = state.params[2 * i], state.params[2 * i + 1]
        y = np.empty(a.shape[:3] + b.shape, dtype=a.dtype)
        y[...] = b
        reference_band_conv(a, w, y)
        mask = y > 0
        if keep_cache:
            caches.append((a, mask))
        a = np.where(mask, y, arch.leaky_slope * y)
    pooled, idx = _reference_pool_forward(a)
    flat = pooled.transpose(0, 3, 1, 2).reshape(len(x), -1)
    wd, bd = state.params[-2], state.params[-1]
    logits = flat @ wd.T + bd
    cache = (caches, idx, a.shape, flat) if keep_cache else None
    return logits, cache


def _reference_backward_batch(dlogits, cache, state):
    arch = state.arch
    caches, idx, act_shape, flat = cache
    wd = state.params[-2]
    grads = [None] * len(state.params)
    grads[-2] = dlogits.T @ flat
    grads[-1] = dlogits.sum(axis=0)
    dflat = dlogits @ wd
    b, h, w, c = act_shape
    dpool = dflat.reshape(b, c, h // 2, w // 2).transpose(0, 2, 3, 1)
    da = _reference_pool_backward(dpool, idx, act_shape)
    for i in reversed(range(arch.conv_layers)):
        x_in, mask = caches[i]
        dy = np.where(mask, da, arch.leaky_slope * da)
        w = state.params[2 * i]
        grads[2 * i] = reference_band_conv_weight_grad(x_in, dy,
                                                       arch.kernel)
        grads[2 * i + 1] = dy.sum(axis=(0, 1, 2))
        if i:
            wflip = w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
            da = reference_band_conv(dy, wflip, np.zeros_like(x_in))
    return grads


def reference_channels_last(images, labels, state):
    """(posteriors, mean cross-entropy, gradients) as forward_posteriors and
    loss_and_gradient compute them, with the reference passes: the training
    passes run per micro-batch of one workspace block of images, with the
    logit gradient scaled by 1/B of the whole batch, and their gradients
    are summed in micro-batch order."""
    probs = np.concatenate([
        neuralnet.softmax(_reference_forward_batch(
            neuralnet._prepare_input(images[i:i + neuralnet._CHUNK], state),
            state, False)[0])
        for i in range(0, len(images), neuralnet._CHUNK)])
    labels = np.asarray(labels)
    n = len(labels)
    nb = neuralnet._images_per_block(images)
    losses, grads = [], None
    for i in range(0, n, nb):
        part = labels[i:i + nb]
        logits, cache = _reference_forward_batch(
            neuralnet._prepare_input(images[i:i + nb], state), state, True)
        batch_probs = neuralnet.softmax(logits)
        losses.append(neuralnet._cross_entropy(batch_probs, part))
        dlogits = batch_probs.astype(logits.dtype)
        dlogits[np.arange(len(part)), part] -= 1.0
        dlogits /= n
        block = _reference_backward_batch(dlogits, cache, state)
        grads = block if grads is None else [
            g + b for g, b in zip(grads, block)]
    return probs, float(np.concatenate(losses).mean()), grads


# ---------------------------------------------------------------------------
# background samplers that draw uniform positions with rng.uniform

def reference_sample_lumpy(params, rng):
    n = int(rng.poisson(params.mean_count))
    w, h = params.field_of_view
    centers = rng.uniform(low=(0.0, 0.0), high=(float(w), float(h)),
                          size=(n, 2))
    return LumpyRealization(centers=centers)


def reference_sample_clb(params, rng):
    w, h = params.field_of_view
    clusters = []
    for _ in range(int(rng.poisson(params.mean_cluster_count))):
        center = rng.uniform(low=(0.0, 0.0), high=(float(w), float(h)))
        n_blobs = int(rng.poisson(params.mean_blobs_per_cluster))
        offsets = rng.normal(0.0, params.cluster_spread, size=(n_blobs, 2))
        angles = rng.uniform(0.0, 2.0 * math.pi, size=n_blobs)
        clusters.append(ClbCluster(center, offsets, angles))
    return ClbRealization(clusters)


# ---------------------------------------------------------------------------
# lumpy-background references: one meshgrid per lump, the CLB chunks over the
# whole image, and the MCMC chain that recomputes every lump and folds the
# log-LR in at every retained iteration

def reference_lump_image(center, params, prf):
    w, h = prf.grid
    var = prf.width ** 2 + params.lump_width ** 2
    coef = params.amplitude * prf.height * params.lump_width ** 2 / var
    X, Y = pixel_grid(w, h)
    d2 = (X - center[0]) ** 2 + (Y - center[1]) ** 2
    return coef * np.exp(-d2 / (2.0 * var))


def reference_render_lumpy_image(real, params, prf):
    w, h = prf.grid
    out = np.zeros((h, w), dtype=np.float64)
    for center in real.centers:
        out += reference_lump_image(center, params, prf)
    return out.astype(np.float32)


def reference_render_clb_image(real, params):
    w, h = params.field_of_view
    X, Y = pixel_grid(w, h)
    out = np.zeros((h, w), dtype=np.float64)
    positions, angles = [], []
    for cl in real.clusters:
        for off, ang in zip(cl.offsets, cl.angles):
            positions.append(cl.center + off)
            angles.append(ang)
    chunk = 64
    for i in range(0, len(positions), chunk):
        pos = np.asarray(positions[i:i + chunk])
        ang = np.asarray(angles[i:i + chunk])
        dx = X[None] - pos[:, 0, None, None]
        dy = Y[None] - pos[:, 1, None, None]
        out += _clb_blob(dx, dy, ang[:, None, None], params).sum(axis=0)
    return out.astype(np.float32)


def reference_mcmc_io_record(g, task, cfg, rng, true_label=0,
                             count_trace=None):
    params, prf = task.lumpy, task.prf
    w, h = task.grid
    sigma2 = task.noise.scale ** 2

    x = np.arange(w, dtype=np.float64) + 0.5
    y = np.arange(h, dtype=np.float64) + 0.5
    xf = np.tile(x, h)
    yf = np.repeat(y, w)
    var = prf.width ** 2 + params.lump_width ** 2
    coef = params.amplitude * prf.height * params.lump_width ** 2 / var

    def lump_flat(center):
        d2 = (xf - center[0]) ** 2 + (yf - center[1]) ** 2
        return coef * np.exp(-d2 / (2.0 * var))

    sigs = task.signal_images.reshape(task.J, -1).astype(np.float64)
    ssq = (sigs * sigs).sum(axis=1)
    gv = np.asarray(g, dtype=np.float64).ravel()

    discrete = cfg.candidate_centers is not None
    candidates = None if not discrete else np.asarray(cfg.candidate_centers,
                                                     dtype=np.float64)
    centers = []
    if not discrete:
        n0 = int(rng.poisson(params.mean_count))
        if cfg.max_count is not None:
            n0 = min(n0, cfg.max_count)
        centers = [rng.uniform((0.0, 0.0), (float(w), float(h)))
                   for _ in range(n0)]

    r = gv.copy()
    sr = sigs @ r
    for c in centers:
        lump = lump_flat(c)
        r -= lump
        sr -= sigs @ lump

    burn_in = cfg.effective_burn_in
    log_sum = np.full(task.J, -np.inf)
    n_kept = 0
    log_nbar = np.log(params.mean_count)

    for it in range(cfg.iterations):
        u = rng.random()
        n = len(centers)
        delta = None
        log_prior = 0.0
        action = None

        if u < MOVE_PROB:
            if n > 0:
                idx = int(rng.integers(n))
                if discrete:
                    new = candidates[int(rng.integers(len(candidates)))]
                else:
                    step = rng.normal(0.0, MOVE_STD, size=2)
                    new = np.array([
                        _reflect(centers[idx][0] + step[0], 0.0, float(w)),
                        _reflect(centers[idx][1] + step[1], 0.0, float(h)),
                    ])
                delta = lump_flat(new) - lump_flat(centers[idx])
                action = ("move", idx, new)
        elif u < MOVE_PROB + BIRTH_PROB:
            if cfg.max_count is None or n < cfg.max_count:
                if discrete:
                    new = candidates[int(rng.integers(len(candidates)))]
                else:
                    new = rng.uniform((0.0, 0.0), (float(w), float(h)))
                delta = lump_flat(new)
                log_prior = log_nbar - np.log(n + 1)
                action = ("birth", None, new)
        else:
            if n > 0:
                idx = int(rng.integers(n))
                delta = -lump_flat(centers[idx])
                log_prior = np.log(n) - log_nbar
                action = ("death", idx, None)

        if delta is not None:
            log_alpha = (2.0 * (r @ delta) - delta @ delta) / (2.0 * sigma2) \
                + log_prior
            if np.log(rng.random()) < log_alpha:
                kind, idx, new = action
                if kind == "move":
                    centers[idx] = new
                elif kind == "birth":
                    centers.append(new)
                else:
                    centers.pop(idx)
                r -= delta
                sr -= sigs @ delta

        if it >= burn_in:
            v = (sr - ssq / 2.0) / sigma2
            log_sum = np.logaddexp(log_sum, v)
            n_kept += 1
            if count_trace is not None:
                count_trace.append(len(centers))

    log_lrs = log_sum - np.log(n_kept)
    return records_from_log_lrs(log_lrs[None], task.priors, [true_label])
