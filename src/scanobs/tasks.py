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
    priors: np.ndarray | None = None   # length J+1; uniform when None

    def __post_init__(self):
        phantoms.validate_signal_ensemble(self.signals, self.grid)
        if self.prf is not None and self.prf.grid != self.grid:
            raise ValueError("PRF grid does not match task grid")
        for name, params in (("lumpy", self.lumpy), ("clb", self.clb)):
            if params is not None and params.field_of_view != self.grid:
                raise ValueError(f"{name} field of view {params.field_of_view}"
                                 f" does not match task grid {self.grid}")
        if self.priors is None:
            self.priors = np.full(self.J + 1, 1.0 / (self.J + 1))
        self.priors = np.asarray(self.priors, dtype=np.float64)
        if len(self.priors) != self.J + 1:
            raise ValueError("priors must have length J+1")
        if np.any(self.priors <= 0) or not np.isclose(self.priors.sum(), 1.0):
            raise ValueError("priors must be positive and sum to 1")

    @property
    def J(self) -> int:
        return len(self.signals)

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


def simulate_measurement(task: TaskConfig, label: int,
                         rng: np.random.Generator):
    """Simulate one noisy measurement under hypothesis H_label.

    label = 0 is signal-absent; label = j in 1..J adds the signal at
    location j.  Returns (image, label).
    """
    if not 0 <= label <= task.J:
        raise ValueError(f"label {label} outside 0..{task.J}")
    img = task.sample_background(rng)
    if label > 0:
        img = img + task.signal_images[label - 1]
    return apply_noise(img, task.noise, rng), label


def task_preset(name: str) -> TaskConfig:
    """Build one of the four named tasks with its canonical constants."""
    if name == "bke_system1":
        return _bke_task(prf_height=60.0, prf_width=5.0)
    if name == "bke_system2":
        return _bke_task(prf_height=144.0, prf_width=12.0)
    if name == "lb":
        grid = (64, 64)
        return TaskConfig(
            kind="lb_gaussian",
            grid=grid,
            prf=PrfSpec(height=40.0, width=1.5, grid=grid),
            lumpy=LumpyParams(mean_count=8.0, amplitude=1.0, lump_width=7.0,
                              field_of_view=grid),
            noise=NoiseModel.gaussian(20.0),
            signals=phantoms.make_signal_ensemble("lb_gaussian", grid),
        )
    if name == "clb":
        grid = (128, 128)
        return TaskConfig(
            kind="clb_poisson_gaussian",
            grid=grid,
            clb=ClbParams(field_of_view=grid),
            noise=NoiseModel.poisson_gaussian(20.0),
            signals=phantoms.make_signal_ensemble("clb_poisson_gaussian", grid),
        )
    raise ValueError(f"unknown preset {name!r}; expected one of {PRESETS}")


def _bke_task(prf_height: float, prf_width: float) -> TaskConfig:
    grid = (64, 64)
    return TaskConfig(
        kind="bke_laplacian",
        grid=grid,
        prf=PrfSpec(height=prf_height, width=prf_width, grid=grid),
        noise=NoiseModel.laplacian(20.0 / np.sqrt(2.0)),
        signals=phantoms.make_signal_ensemble("bke_laplacian", grid),
    )
