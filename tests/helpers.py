"""Test-only readers of evaluation and observer outputs, a malformed
checkpoint writer, and the im2col einsum network that the channels-last
convolution is checked against."""

import csv

import numpy as np
from numpy.lib.stride_tricks import as_strided

from scanobs import neuralnet
from scanobs.evaluation import LrocCurve
from scanobs.observers import Records


def lroc_trapezoid_area(curve: LrocCurve) -> float:
    return float(np.trapezoid(curve.pcl, curve.fpf))


def records_from_csv(path) -> Records:
    """Read back what observers.records_to_csv wrote."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        n_lam = sum(1 for h in header if h.startswith("lambda_"))
        rows = list(reader)
    lams = np.array([[float(v) for v in row[5:5 + n_lam]] for row in rows])
    binary = (np.array([float(row[4]) for row in rows])
              if rows and rows[0][4] else None)
    return Records(np.array([float(row[2]) for row in rows]),
                   np.array([int(row[3]) for row in rows]),
                   np.array([int(row[1]) for row in rows]),
                   lams.reshape(len(rows), n_lam), binary)


def write_even_kernel_checkpoint(path, input_shape=(4, 4), n_classes=2):
    """A checkpoint that is well formed apart from its 4x4 kernels."""
    filters, kernel = 2, 4
    header = neuralnet._CKPT_HEADER.pack(
        neuralnet._CKPT_MAGIC, 1, 1, filters, kernel, n_classes, *input_shape,
        0.01, 0.0, 1.0, 0)
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
