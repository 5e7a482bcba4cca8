"""Continuous-to-discrete imaging with Gaussian PRFs and measurement noise.

Pixel geometry: pixel (ix, iy) of a width x height grid has its center at
(ix + 0.5, iy + 0.5) in pixel units, origin at the image corner.  Images are
2D arrays of shape (height, width); the flattened row-major index is
m = iy * width + ix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .phantoms import (
    ClbParams,
    ClbRealization,
    LumpyParams,
    LumpyRealization,
    SignalSpec,
)


@dataclass(frozen=True)
class PrfSpec:
    """Gaussian point response function: sensitivity gain and blur width."""

    height: float               # PRF sensitivity (gain)
    width: float                # PRF Gaussian width, pixels
    grid: tuple[int, int]       # image (width, height), pixels

    def __post_init__(self):
        if self.height <= 0 or self.width <= 0:
            raise ValueError("PRF height and width must be positive")


@dataclass(frozen=True)
class NoiseModel:
    """Measurement noise: i.i.d. Laplacian, Gaussian, or mixed Poisson-Gaussian."""

    kind: str          # "laplacian" | "gaussian" | "poisson_gaussian"
    scale: float       # Laplacian decay c, or Gaussian std sigma_n

    def __post_init__(self):
        if self.kind not in ("laplacian", "gaussian", "poisson_gaussian"):
            raise ValueError(f"unknown noise kind: {self.kind!r}")
        if self.scale <= 0:
            raise ValueError("noise scale must be positive")

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
    """Closed-form lump images through the PRF, as a function of the lump
    centers.

    Convolving the Gaussian lump (amplitude a, width w_b) with the Gaussian
    PRF gives a Gaussian of combined variance w_h^2 + w_b^2 and peak
    a * h * w_b^2 / (w_h^2 + w_b^2).  The returned function maps a sequence
    of N (x, y) centers to the float64 (N, height, width) stack of their
    images.
    """
    w, h = prf.grid
    var = prf.width ** 2 + params.lump_width ** 2
    coef = params.amplitude * prf.height * params.lump_width ** 2 / var
    x = np.arange(w, dtype=np.float64) + 0.5
    y = np.arange(h, dtype=np.float64)[:, None] + 0.5

    def lumps(centers) -> np.ndarray:
        d2 = np.empty((len(centers), h, w))
        for out, (cx, cy) in zip(d2, centers):
            np.add((x - cx) ** 2, (y - cy) ** 2, out=out)
        # coef * np.exp(-d2 / (2.0 * var)) with the same roundings, in place
        d2 /= -2.0 * var
        np.exp(d2, out=d2)
        d2 *= coef
        return d2

    return lumps


def render_lumpy_image(real: LumpyRealization, params: LumpyParams,
                       prf: PrfSpec) -> np.ndarray:
    """Noiseless lumpy background image; empty realization renders as zeros.

    The lump images are summed in float64 in the order of the centers.
    """
    return lump_kernel(params, prf)(real.centers).sum(axis=0).astype(
        np.float32)


def _clb_blob(dx, dy, angle, params: ClbParams):
    """Evaluate one oriented blob on offset arrays dx, dy (pixels)."""
    c, s = np.cos(angle), np.sin(angle)
    vx = c * dx - s * dy
    vy = s * dx + c * dy
    n = np.hypot(vx, vy)
    with np.errstate(divide="ignore", invalid="ignore"):
        ux = vx / n
        uy = vy / n
        # ellipse "radius" along the direction of the rotated offset
        ell = (params.half_axis_x * params.half_axis_y
               / np.sqrt((params.half_axis_y * ux) ** 2
                         + (params.half_axis_x * uy) ** 2))
        val = params.blob_amplitude * np.exp(
            -params.shape_alpha * n ** params.shape_beta / ell)
    return np.where(n == 0.0, params.blob_amplitude, val)


# Blobs are summed in chunks of _CLB_CHUNK; each chunk is evaluated over
# tiles of whole image rows, about _CLB_TILE_PIXELS pixels each, so that a
# temporary holds 64 x 512 float64 (256 KB) rather than the whole image.
_CLB_CHUNK = 64
_CLB_TILE_PIXELS = 512


def render_clb_image(real: ClbRealization, params: ClbParams) -> np.ndarray:
    """Noiseless clustered-lumpy background rendered on the pixel grid.

    No PRF is applied; blobs are evaluated directly at pixel centers and
    summed in double precision, chunk by chunk in blob order.
    """
    w, h = params.field_of_view
    X, Y = pixel_grid(w, h)
    out = np.zeros((h, w), dtype=np.float64)
    positions, angles = [], []
    for cl in real.clusters:
        for off, ang in zip(cl.offsets, cl.angles):
            positions.append(cl.center + off)
            angles.append(ang)
    rows = max(1, _CLB_TILE_PIXELS // w)
    for i in range(0, len(positions), _CLB_CHUNK):
        pos = np.asarray(positions[i:i + _CLB_CHUNK])   # (B, 2)
        ang = np.asarray(angles[i:i + _CLB_CHUNK])[:, None, None]
        for r in range(0, h, rows):
            dx = X[None, r:r + rows] - pos[:, 0, None, None]
            dy = Y[None, r:r + rows] - pos[:, 1, None, None]
            out[r:r + rows] += _clb_blob(dx, dy, ang, params).sum(axis=0)
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


def apply_noise(img: np.ndarray, model: NoiseModel,
                rng: np.random.Generator) -> np.ndarray:
    """Apply the measurement-noise model to a noiseless image."""
    img = np.asarray(img, dtype=np.float64)
    if model.kind == "laplacian":
        out = img + rng.laplace(0.0, model.scale, size=img.shape)
    elif model.kind == "gaussian":
        out = img + rng.normal(0.0, model.scale, size=img.shape)
    else:  # poisson_gaussian; clamp numerical dust below zero before the draw
        rate = np.clip(img, 0.0, None)
        out = rng.poisson(rate).astype(np.float64) \
            + rng.normal(0.0, model.scale, size=img.shape)
    return out.astype(np.float32)
