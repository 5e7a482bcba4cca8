"""Test-only dataset writers (among them the per-block split and store
reference), readers of evaluation and observer outputs, the
comparison-matrix LROC/ROC sweep, the per-record-score bootstrap, the
``csv.writer`` records and curve writers and the ``csv.DictWriter`` report
writer, a malformed checkpoint writer, the whole-stack scanning Hotelling
observer (its one product padded to at least a block's rows), the im2col
einsum network that the channels-last convolution is checked against, the
band-copy convolutions, the channels-last network with those
convolutions, ``np.where`` activations, an argmax pool and a head padded
to a micro-batch's rows, the per-image training-batch composer, the
whole-array Adam update, and the
``rng.uniform`` samplers and the per-lump, whole-image (with its own
``hypot`` blob evaluator) and per-iteration lumpy-background references;
the splits, the curves, the Hotelling records, the figures of merit, the
CSV bytes, the network passes, the BKE training batches, the Adam
updates, the sampling and the rendering must equal these bit for bit, and
the MCMC chain must take the reference chain's path with its statistics
within 1e-10.  Also the traced allocation peak of a call, and a Python
snippet's output at one and two OpenBLAS threads."""

import csv
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from textwrap import dedent

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from scanobs import neuralnet, observers
from scanobs.dataset import DatasetWriter
from scanobs.evaluation import FomEstimate, LrocCurve, _split_records
from scanobs.imaging import apply_noise, pixel_grid
from scanobs.mcmc import BIRTH_PROB, MOVE_PROB, MOVE_STD, _reflect
from scanobs.observers import (
    Records,
    records_from_log_lrs,
    records_from_statistics,
)
from scanobs.phantoms import ClbCluster, ClbRealization, LumpyRealization
from scanobs.rng import substream


def write_dataset(path, images: np.ndarray, labels):
    """Write a stack of images (N, H, W) with integer labels."""
    n, h, w = images.shape
    labels = np.asarray(labels)
    with DatasetWriter(path, w, h, int(labels.max(initial=0))) as out:
        for img, lab in zip(images, labels):
            out.append(img, int(lab))


# Images per block of a split or store
BLOCK = 64


def reference_write_blocks(path, task, labels, seed, name, noisy=True):
    """A dataset file of images with these labels, block b of BLOCK images
    drawn from substream(seed, name, b): the block's backgrounds by
    task.sample_background in turn, its signals added in float32, then,
    when noisy, one rng.laplace, rng.normal or rng.poisson + rng.normal
    call of the block's shape."""
    w, h = task.grid
    scale = task.noise.scale
    with DatasetWriter(path, w, h, task.J) as out:
        for b, lo in enumerate(range(0, len(labels), BLOCK)):
            block = labels[lo:lo + BLOCK].tolist()
            rng = substream(seed, name, b)
            images = np.stack([task.sample_background(rng) for _ in block])
            for img, j in zip(images, block):
                if j:
                    img += task.signal_images[j - 1]
            if noisy and task.noise.kind == "poisson_gaussian":
                images = (rng.poisson(np.clip(images, 0.0, None))
                          + rng.normal(0.0, scale, images.shape))
            elif noisy:
                draw = (rng.laplace if task.noise.kind == "laplacian"
                        else rng.normal)
                images = images.astype(np.float64) \
                    + draw(0.0, scale, images.shape)
            for img, j in zip(images.astype(np.float32), block):
                out.append(img, j)


def image_to_csv(path, image: np.ndarray):
    """Export a single image as CSV, one row per image row."""
    np.savetxt(path, np.asarray(image), delimiter=",", fmt="%.8g")


def traced_peak(fn, *args):
    """Peak bytes that fn(*args) allocates above what is live before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def stdout_at_blas_threads(code):
    """The output of a Python snippet run at OPENBLAS_NUM_THREADS=1 and 2.

    Importing scanobs sets every OpenBLAS to one thread whatever the
    variable says, so equal outputs show, end to end, that this setting
    covers what the snippet computes."""
    src = str(Path(neuralnet.__file__).resolve().parents[1])
    found = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        found.append(subprocess.run(
            [sys.executable, "-c", dedent(code)], env=env, check=True,
            capture_output=True, text=True, timeout=300).stdout)
    return found


def reference_scanning_ho_records(images, labels, state, rows=None):
    """The scanning HO with the whole stack in one float64 copy, zero-padded
    to at least rows rows (HO_BLOCK_ROWS by default), and one product."""
    n = len(images)
    flat = np.zeros((max(n, rows or observers.HO_BLOCK_ROWS),
                     math.prod(images.shape[1:])))
    flat[:n] = images.reshape(n, -1)
    flat[:n] -= state.mean_background
    lams = (flat @ state.templates.T)[:n] \
        - 0.5 * (state.templates * state.signals).sum(axis=1)
    return records_from_statistics(lams, labels, lams.max(axis=1))


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


def reference_two_afc(records: Records, binary: bool, n_bootstrap: int,
                      rng: np.random.Generator) -> FomEstimate:
    """The 2AFC estimate and its within-class bootstrap SE, each replicate
    summing every present record's half-credit score as a float times the
    number of times it was drawn."""
    t_abs, t_sig, correct = _split_records(records, binary)
    na, ns = len(t_abs), len(t_sig)
    order = np.sort(t_abs)
    rank = np.searchsorted(order, t_abs, side="left")
    n_lt = np.searchsorted(order, t_sig, side="left")
    n_le = np.searchsorted(order, t_sig, side="right")
    score = (n_lt + 0.5 * (n_le - n_lt)) * correct
    value = float(score.sum() / (ns * na))
    below = np.zeros(na + 1, dtype=np.int64)  # below[k]: draws with rank < k
    vals = np.empty(n_bootstrap)
    for i in range(n_bootstrap):
        ia = rng.integers(na, size=na)
        isg = rng.integers(ns, size=ns)
        np.cumsum(np.bincount(rank[ia], minlength=na), out=below[1:])
        lt = below[n_lt]
        score = (lt + 0.5 * (below[n_le] - lt)) * correct
        vals[i] = (score * np.bincount(isg, minlength=ns)).sum() / (ns * na)
    return FomEstimate(value, float(vals.std(ddof=1)))


def reference_records_to_csv(path, records: Records):
    """observers.records_to_csv through csv.writer."""
    j_count = records.per_location.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["image_id", "true_label", "t", "j_star",
                         "binary_statistic"]
                        + [f"lambda_{j + 1}" for j in range(j_count)])
        writer.writerows(zip(range(len(records)),
                             records.true_label.tolist(),
                             records.statistic.tolist(),
                             records.chosen_location.tolist(),
                             records.binary_statistic.tolist(),
                             *records.per_location.T.tolist()))


def reference_report_to_csv(path, rows: list[dict]):
    """evaluation.report_to_csv through csv.DictWriter."""
    fields = ["observer", "task", "system", "alroc", "alroc_se",
              "auc", "auc_se", "n_records"]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


def reference_curve_to_csv(path, curve: LrocCurve):
    """evaluation.curve_to_csv through csv.writer."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tau", "fpf", "pcl"])
        writer.writerows(zip(curve.thresholds.tolist(), curve.fpf.tolist(),
                             curve.pcl.tolist()))


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

def _images_per_block(x):
    """Images of x (B, H, W, ...) per block: those of one micro-batch."""
    b, h, w = x.shape[:3]
    return min(b, max(1, neuralnet._PIXELS // (h * w)))


def _band_blocks(x, k):
    """Yields (start, count, kh, cols) per block of images and kernel row
    kh; row r of cols (count*H*W, k*C) is the zero-padded window
    x[b, y+kh-p, x-p:x+p+1, :] of output pixel r.  cols is reused."""
    b, h, w, c = x.shape
    p = k // 2
    nb = _images_per_block(x)
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
    prod = np.empty((_images_per_block(x),) + out.shape[1:],
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
    # the head multiplies at least a micro-batch's rows, zero-padded
    n = len(x)
    rows = max(n, neuralnet._PIXELS // (x.shape[1] * x.shape[2]))
    padded = np.zeros((rows, flat.shape[1]), dtype=flat.dtype)
    padded[:n] = flat
    logits = (padded @ wd.T)[:n] + bd
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
    loss_and_gradient compute them, with the reference passes: both run per
    micro-batch of one block of images, the logit gradient is scaled by 1/B
    of the whole batch, and the gradients are summed in micro-batch order."""
    labels = np.asarray(labels)
    n = len(labels)
    nb = _images_per_block(images)
    probs, losses, grads = [], [], None
    for i in range(0, n, nb):
        part = labels[i:i + nb]
        logits, cache = _reference_forward_batch(
            neuralnet._prepare_input(images[i:i + nb], state), state, True)
        batch_probs = neuralnet.softmax(logits)
        probs.append(batch_probs)
        losses.append(neuralnet._cross_entropy(batch_probs, part))
        dlogits = batch_probs.astype(logits.dtype)
        dlogits[np.arange(len(part)), part] -= 1.0
        dlogits /= n
        block = _reference_backward_batch(dlogits, cache, state)
        grads = block if grads is None else [
            g + b for g, b in zip(grads, block)]
    return (np.concatenate(probs), float(np.concatenate(losses).mean()),
            grads)


def reference_compose_batch(task, backgrounds, batch_per_class, rng):
    """A balanced training batch composed image by image, in label order:
    one index draw (none on a BKE task), the class's signal and one noise
    draw per image."""
    h, w = task.grid[1], task.grid[0]
    n_classes = task.J + 1
    images = np.empty((batch_per_class * n_classes, h, w), dtype=np.float32)
    labels = np.empty(batch_per_class * n_classes, dtype=np.int64)
    sig = task.signal_images
    pos = 0
    for cls in range(n_classes):
        for _ in range(batch_per_class):
            if backgrounds is None:
                img = np.zeros((h, w), dtype=np.float32)
            else:
                img = backgrounds[int(rng.integers(len(backgrounds)))]
            if cls > 0:
                img = img + sig[cls - 1]
            images[pos] = apply_noise(img, task.noise, rng)
            labels[pos] = cls
            pos += 1
    return images, labels


def reference_adam_step(state, grads, lr):
    """One Adam update as whole-array expressions, a temporary per
    operation; mutates and returns state."""
    state.step += 1
    bc1 = 1.0 - neuralnet.BETA1 ** state.step
    bc2 = 1.0 - neuralnet.BETA2 ** state.step
    for p, m, v, g in zip(state.params, state.m, state.v, grads):
        g = g.astype(p.dtype, copy=False)
        m *= neuralnet.BETA1
        m += (1.0 - neuralnet.BETA1) * g
        v *= neuralnet.BETA2
        v += (1.0 - neuralnet.BETA2) * g * g
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + neuralnet.EPSILON)
    return state


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


def reference_clb_blob(dx, dy, angle, params):
    """One oriented blob on offset arrays dx, dy (pixels), as
    A exp(-alpha n^beta / ell) with n = hypot of the rotated offset and ell
    the ellipse radius along it."""
    c, s = np.cos(angle), np.sin(angle)
    vx = c * dx - s * dy
    vy = s * dx + c * dy
    n = np.hypot(vx, vy)
    with np.errstate(divide="ignore", invalid="ignore"):
        ux = vx / n
        uy = vy / n
        ell = (params.half_axis_x * params.half_axis_y
               / np.sqrt((params.half_axis_y * ux) ** 2
                         + (params.half_axis_x * uy) ** 2))
        val = params.blob_amplitude * np.exp(
            -params.shape_alpha * n ** params.shape_beta / ell)
    return np.where(n == 0.0, params.blob_amplitude, val)


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
        out += reference_clb_blob(dx, dy, ang[:, None, None],
                                  params).sum(axis=0)
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
