"""Task configurations: named presets and measurement simulation."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import phantoms
from .imaging import (
    NoiseModel,
    PrfSpec,
    apply_noise,
    render_clb_image,
    render_lumpy_image,
    render_signal_image,
)
from .phantoms import ClbParams, LumpyParams, SignalSpec

PRESETS = ("bke_system1", "bke_system2", "lb", "clb")


@dataclass
class TaskConfig:
    """Full specification of one detection-localization task."""

    kind: str                          # bke_laplacian | lb_gaussian | clb_poisson_gaussian | custom
    grid: tuple[int, int]              # (width, height)
    noise: NoiseModel
    signals: list[SignalSpec]
    prf: PrfSpec | None = None
    lumpy: LumpyParams | None = None
    clb: ClbParams | None = None

    def __post_init__(self):
        phantoms.validate_signal_ensemble(self.signals, self.grid)
        if self.prf is not None and self.prf.grid != self.grid:
            raise ValueError("PRF grid does not match task grid")
        for name, params in (("lumpy", self.lumpy), ("clb", self.clb)):
            if params is not None and params.field_of_view != self.grid:
                raise ValueError(f"{name} field of view {params.field_of_view}"
                                 f" does not match task grid {self.grid}")
        if self.lumpy is not None and self.prf is None:
            raise ValueError("a lumpy-background task needs a prf")
        if self.lumpy is not None and self.clb is not None:
            raise ValueError("a task takes one background, lumpy or clb, "
                             "not both")

    @property
    def J(self) -> int:
        return len(self.signals)

    @cached_property
    def priors(self) -> np.ndarray:
        """Pr(H_0), ..., Pr(H_J): uniform, in float64."""
        return np.full(self.J + 1, 1.0 / (self.J + 1))

    @cached_property
    def signal_images(self) -> np.ndarray:
        """Stack of the J noiseless signal images, shape (J, height, width)."""
        return np.stack([render_signal_image(s, self.grid, self.prf)
                         for s in self.signals])

    def sample_background(self, rng: np.random.Generator) -> np.ndarray:
        """Draw one noiseless background image (zeros for BKE tasks)."""
        w, h = self.grid
        if self.lumpy is not None:
            return render_lumpy_image(phantoms.sample_lumpy(self.lumpy, rng),
                                      self.lumpy, self.prf)
        if self.clb is not None:
            return render_clb_image(phantoms.sample_clb(self.clb, rng), self.clb)
        return np.zeros((h, w), dtype=np.float32)


def simulate_measurement(task: TaskConfig, label, rng: np.random.Generator):
    """Simulate noisy measurements under hypotheses H_label.

    label = 0 is signal-absent; label = j in 1..J adds the signal at
    location j.  An int label gives one (height, width) image; an array of
    int labels gives a stack of their shape, whose backgrounds are drawn in
    turn and then its noise in one apply_noise call.  Returns (image, label).
    """
    labels = np.asarray(label)
    if labels.dtype.kind not in "iu":
        raise ValueError(f"labels must be ints, not {labels.dtype}")
    outside = labels[(labels < 0) | (labels > task.J)]
    if outside.size:
        raise ValueError(f"label {outside[0]} outside 0..{task.J}")
    img = np.empty(labels.shape + task.grid[::-1], dtype=np.float32)
    for im, j in zip(img.reshape((-1,) + img.shape[-2:]), labels.flat):
        im[...] = task.sample_background(rng)
        if j > 0:
            im += task.signal_images[j - 1]
    return apply_noise(img, task.noise, rng), label


def task_preset(preset: str) -> TaskConfig:
    """Build one of the four named tasks with its canonical constants."""
    if preset not in PRESETS:
        raise ValueError(f"preset: unknown preset {preset!r}; expected one "
                         f"of {PRESETS}")
    if preset == "clb":
        grid = (128, 128)
        return TaskConfig(
            kind="clb_poisson_gaussian",
            grid=grid,
            clb=ClbParams(field_of_view=grid),
            noise=NoiseModel.poisson_gaussian(20.0),
            signals=_signals(grid, 80.0, (5.0, 8.0, 10.0),
                             (-np.pi / 4, 0.0, np.pi / 4)),
        )
    grid = (64, 64)
    if preset == "lb":
        return TaskConfig(
            kind="lb_gaussian",
            grid=grid,
            prf=PrfSpec(height=40.0, width=1.5, grid=grid),
            lumpy=LumpyParams(mean_count=8.0, amplitude=1.0, lump_width=7.0,
                              field_of_view=grid),
            noise=NoiseModel.gaussian(20.0),
            signals=_signals(grid, 0.5, (2.0,)),
        )
    height, width = (60.0, 5.0) if preset == "bke_system1" else (144.0, 12.0)
    return TaskConfig(
        kind="bke_laplacian",
        grid=grid,
        prf=PrfSpec(height=height, width=width, grid=grid),
        noise=NoiseModel.laplacian(20.0 / np.sqrt(2.0)),
        signals=_signals(grid, 0.2, (3.0,)),
    )


def _signals(grid, amplitude, widths, angles=(0.0,)) -> list[SignalSpec]:
    """The nine signals at signal_grid_centers(grid), assigned round-robin
    so that every split sees the same ensemble: location i (0-based) has
    widths[i % n] and widths[i // 3 % n] as its two widths and
    angles[i % m] as its angle, for n widths and m angles."""
    return [SignalSpec(i + 1, c, amplitude, widths[i % len(widths)],
                       widths[i // 3 % len(widths)], angles[i % len(angles)])
            for i, c in enumerate(phantoms.signal_grid_centers(grid))]
