"""Continuous-to-discrete imaging with Gaussian PRFs and measurement noise.

Pixel geometry: pixel (ix, iy) of a width x height grid has its center at
(ix + 0.5, iy + 0.5) in pixel units, origin at the image corner.  Images are
2D arrays of shape (height, width); the flattened row-major index is
m = iy * width + ix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import workers
from .phantoms import (
    ClbParams,
    ClbRealization,
    LumpyParams,
    LumpyRealization,
    SignalSpec,
    check_fields,
)


@dataclass(frozen=True)
class PrfSpec:
    """Gaussian point response function: sensitivity gain and blur width."""

    height: float               # PRF sensitivity (gain)
    width: float                # PRF Gaussian width, pixels
    grid: tuple[int, int]       # image (width, height), pixels

    def __post_init__(self):
        check_fields(self, ("height", "width"), "grid")


@dataclass(frozen=True)
class NoiseModel:
    """Measurement noise: i.i.d. Laplacian, Gaussian, or mixed Poisson-Gaussian."""

    kind: str          # "laplacian" | "gaussian" | "poisson_gaussian"
    scale: float       # Laplacian decay c, or Gaussian std sigma_n

    def __post_init__(self):
        if self.kind not in ("laplacian", "gaussian", "poisson_gaussian"):
            raise ValueError(f"unknown noise kind: {self.kind!r}")
        check_fields(self, ("scale",))

    @classmethod
    def laplacian(cls, c: float) -> "NoiseModel":
        return cls("laplacian", c)

    @classmethod
    def gaussian(cls, sigma: float) -> "NoiseModel":
        return cls("gaussian", sigma)

    @classmethod
    def poisson_gaussian(cls, sigma: float) -> "NoiseModel":
        return cls("poisson_gaussian", sigma)

    @property
    def std(self) -> float:
        """Standard deviation of the additive component."""
        if self.kind == "laplacian":
            return self.scale * np.sqrt(2.0)
        return self.scale


def pixel_grid(width: int, height: int):
    """Pixel-center coordinate arrays X, Y, each of shape (height, width)."""
    x = np.arange(width, dtype=np.float64) + 0.5
    y = np.arange(height, dtype=np.float64) + 0.5
    return np.meshgrid(x, y)


def lump_kernel(params: LumpyParams, prf: PrfSpec):
    """Closed-form lump images through the PRF, as separable factors of the
    lump centers.

    Convolving the Gaussian lump (amplitude a, width w_b) with the Gaussian
    PRF gives a Gaussian of combined variance v = w_h^2 + w_b^2 and peak
    coef = a * h * w_b^2 / v, which is coef exp(-dy^2 / 2v) exp(-dx^2 / 2v).
    The returned function maps an (N, 2) array of (x, y) centers to the
    float64 factors fy (N, height), which carries coef, and fx (N, width):
    lump i is the outer product fy[i, :, None] * fx[i, None, :].  One center
    given as an (x, y) tuple maps to the 1-D factors fy (height,) and fx
    (width,) of the same steps, without the (N, 2) array handling; the MCMC
    chain makes that call once per proposed lump.
    """
    w, h = prf.grid
    var = prf.width ** 2 + params.lump_width ** 2
    coef = params.amplitude * prf.height * params.lump_width ** 2 / var
    # pixel-center coordinates along x then y, so that both axes are one pass
    axes = np.concatenate([np.arange(w, dtype=np.float64),
                           np.arange(h, dtype=np.float64)]) + 0.5
    along_x = np.arange(w + h) < w

    def factors(centers) -> tuple[np.ndarray, np.ndarray]:
        if type(centers) is tuple:
            d = axes - np.where(along_x, *centers)
        else:
            centers = np.asarray(centers, dtype=np.float64)
            if centers.ndim != 2 or centers.shape[1] != 2:
                raise ValueError(f"lump centers must have shape (N, 2), got "
                                 f"{centers.shape}")
            d = axes - centers.repeat((w, h), axis=1)
        # np.exp(-d**2 / (2.0 * var)) in place
        d *= d
        d /= -2.0 * var
        np.exp(d, out=d)
        fx, fy = d[..., :w], d[..., w:]
        fy *= coef
        return fy, fx

    return factors


def render_lumpy_image(real: LumpyRealization, params: LumpyParams,
                       prf: PrfSpec) -> np.ndarray:
    """Noiseless lumpy background image; empty realization renders as zeros.

    The lumps' outer products are summed in float64 in the order of the
    centers.
    """
    fy, fx = lump_kernel(params, prf)(real.centers)
    return (fy[:, :, None] * fx[:, None, :]).sum(axis=0).astype(np.float32)


# Blobs are summed in chunks of _CLB_CHUNK; each chunk is evaluated over
# tiles of whole image rows, about _CLB_TILE_PIXELS pixels each, so that a
# workspace holds 64 x 512 float64 (256 KB) rather than the whole image.
# The two halves of the rows, cut at a tile edge, run on two threads, each
# with its own workspace.
_CLB_CHUNK = 64
_CLB_TILE_PIXELS = 512


def render_clb_image(real: ClbRealization, params: ClbParams) -> np.ndarray:
    """Noiseless clustered-lumpy background rendered on the pixel grid.

    No PRF is applied; blobs are evaluated directly at pixel centers and
    summed in double precision, chunk by chunk in blob order.  A blob at
    rotated offset (vx, vy) is A exp(-alpha n^beta / ell), with n its length
    and ell the ellipse radius along it, LxLy / sqrt((Ly ux)^2 + (Lx uy)^2)
    for the unit offset (ux, uy).  With r2 = vx^2 + vy^2 and
    q = (Ly vx)^2 + (Lx vy)^2 the exponent is
    -alpha sqrt(q) r2^((beta - 1)/2) / (Lx Ly), and r2 == 0 is the blob
    center, A.
    """
    w, h = params.field_of_view
    if real.blob_count == 0:
        return np.zeros((h, w), dtype=np.float32)
    lx, ly = params.half_axis_x, params.half_axis_y
    scale = -params.shape_alpha / (lx * ly)
    power = (params.shape_beta - 1.0) / 2.0
    positions = np.concatenate([cl.center + cl.offsets
                                for cl in real.clusters])
    angles = np.concatenate([cl.angles for cl in real.clusters])
    x = np.arange(w, dtype=np.float64) + 0.5
    out = np.zeros((h, w), dtype=np.float64)
    rows = max(1, _CLB_TILE_PIXELS // w)

    def tiles(first, last):  # image rows first..last, all blobs
        y = np.arange(first, last, dtype=np.float64)[:, None] + 0.5
        workspace = np.empty((4, _CLB_CHUNK, rows, w))
        for i in range(0, len(angles), _CLB_CHUNK):
            pos = positions[i:i + _CLB_CHUNK]
            ang = angles[i:i + _CLB_CHUNK, None, None]
            c, s = np.cos(ang), np.sin(ang)
            dx = x - pos[:, 0, None, None]               # (B, 1, w)
            dy = y - pos[:, 1, None, None]               # (B, last - first, 1)
            cdx, sdx, sdy, cdy = c * dx, s * dx, s * dy, c * dy
            for r in range(0, last - first, rows):
                vx, vy, r2, e = workspace[:, :len(ang),
                                          :min(rows, last - first - r)]
                vx[...] = cdx
                vx -= sdy[:, r:r + rows]
                vy[...] = sdx
                vy += cdy[:, r:r + rows]
                np.square(vx, out=r2)
                np.square(vy, out=e)
                r2 += e
                vx *= ly
                vy *= lx
                np.square(vx, out=vx)
                np.square(vy, out=vy)
                vx += vy                                  # q
                np.sqrt(vx, out=e)
                with np.errstate(divide="ignore", invalid="ignore"):
                    np.power(r2, power, out=vy)
                    e *= vy
                e *= scale
                e[r2 == 0.0] = 0.0                        # blob center
                np.exp(e, out=e)
                e *= params.blob_amplitude
                out[first + r:first + r + rows] += e.sum(axis=0)

    workers.two_threads(tiles, h, rows)
    return out.astype(np.float32)


def render_signal_image(spec: SignalSpec, grid: tuple[int, int],
                        prf: PrfSpec | None = None) -> np.ndarray:
    """Noiseless signal image at the spec's location.

    With a PRF the closed form of the imaged Gaussian is used: peak
    A = a * h * w1 * w2 / sqrt((w_h^2 + w1^2)(w_h^2 + w2^2)) with widened
    axis variances.  Without a PRF (CLB task) the object-domain Gaussian is
    evaluated directly on the pixel grid with peak equal to the amplitude.
    """
    if prf is not None:
        vx = prf.width ** 2 + spec.width1 ** 2
        vy = prf.width ** 2 + spec.width2 ** 2
        peak = (spec.amplitude * prf.height * spec.width1 * spec.width2
                * np.sqrt(1.0 / (vx * vy)))
    else:
        vx = spec.width1 ** 2
        vy = spec.width2 ** 2
        peak = spec.amplitude
    X, Y = pixel_grid(*grid)
    dx = X - spec.center[0]
    dy = Y - spec.center[1]
    c, s = np.cos(spec.angle), np.sin(spec.angle)
    rx = c * dx - s * dy
    ry = s * dx + c * dy
    img = peak * np.exp(-(rx ** 2 / (2.0 * vx) + ry ** 2 / (2.0 * vy)))
    return img.astype(np.float32)


# Pixels of float64 noise drawn at a time by apply_noise: 16 images at
# 64x64, or 4 at 128x128, a 512 KB block
_NOISE_PIXELS = 65536


def apply_noise(img: np.ndarray, model: NoiseModel,
                rng: np.random.Generator) -> np.ndarray:
    """Apply the measurement-noise model to a noiseless image or a stack of
    images (N, height, width), with the values of one draw of the input's
    shape, drawn a sub-block of _NOISE_PIXELS pixels at a time into one
    float32 output.  The input is never written.

    Laplacian and Gaussian noise is added in float64 and rounded to float32;
    on a stack it is the noise of its images drawn in turn.
    Poisson-Gaussian noise is the Poisson draw of the whole input, then the
    Gaussian draw of the whole input, summed in float64: its int64 counts
    are held whole between the two.  Every draw takes its values in pixel
    order, so the generator ends where one whole draw leaves it.
    """
    img = np.asarray(img)
    flat = img.reshape(-1)
    blocks = [slice(lo, lo + _NOISE_PIXELS)
              for lo in range(0, flat.size, _NOISE_PIXELS)]
    if model.kind == "poisson_gaussian":  # clamp numerical dust below zero
        counts = np.empty(flat.size, dtype=np.int64)
        for s in blocks:
            counts[s] = rng.poisson(np.clip(flat[s], 0.0, None))
        add, draw = counts, rng.normal
    else:
        add = flat
        draw = rng.laplace if model.kind == "laplacian" else rng.normal
    out = np.empty(img.shape, dtype=np.float32)
    noisy = out.reshape(-1)
    for s in blocks:
        part = draw(0.0, model.scale, len(add[s]))
        part += add[s]
        noisy[s] = part
    return out
