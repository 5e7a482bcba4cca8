"""Stochastic object models (lumpy, clustered-lumpy) and signal ensembles."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class LumpyParams:
    """Poisson-count ensemble of 2D Gaussian lumps at uniform locations."""

    mean_count: float = 8.0
    amplitude: float = 1.0
    lump_width: float = 7.0
    field_of_view: tuple[int, int] = (64, 64)  # (width, height), pixels

    def __post_init__(self):
        if self.mean_count <= 0:
            raise ValueError("mean_count must be positive")
        if self.lump_width <= 0:
            raise ValueError("lump_width must be positive")


@dataclass(frozen=True)
class LumpyRealization:
    centers: np.ndarray  # (N, 2) float, (x, y) in pixels


@dataclass(frozen=True)
class ClbParams:
    """Clustered-lumpy ensemble: Poisson clusters of oriented anisotropic blobs.

    Defaults are the mammographic-texture parameter set
    (K=50, N=20, Lx=5, Ly=2, alpha=2.1, beta=0.5, sigma=12, A=40).
    """

    mean_cluster_count: float = 50.0
    mean_blobs_per_cluster: float = 20.0
    half_axis_x: float = 5.0
    half_axis_y: float = 2.0
    shape_alpha: float = 2.1
    shape_beta: float = 0.5
    cluster_spread: float = 12.0
    blob_amplitude: float = 40.0
    field_of_view: tuple[int, int] = (128, 128)

    def __post_init__(self):
        for name in ("mean_cluster_count", "mean_blobs_per_cluster",
                     "half_axis_x", "half_axis_y", "shape_alpha",
                     "shape_beta", "cluster_spread"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class ClbCluster:
    center: np.ndarray   # (2,)
    offsets: np.ndarray  # (N_k, 2) blob offsets about the cluster center
    angles: np.ndarray   # (N_k,) blob rotation angles in [0, 2pi)


@dataclass(frozen=True)
class ClbRealization:
    clusters: list[ClbCluster]

    @property
    def blob_count(self) -> int:
        return sum(len(c.angles) for c in self.clusters)


@dataclass(frozen=True)
class SignalSpec:
    """One candidate signal: an elliptical 2D Gaussian at a fixed location."""

    location_index: int       # 1-based index j in 1..J
    center: tuple[float, float]
    amplitude: float
    width1: float
    width2: float
    angle: float = 0.0

    def __post_init__(self):
        if self.width1 <= 0 or self.width2 <= 0:
            raise ValueError("signal widths must be positive")


def sample_lumpy(params: LumpyParams, rng: np.random.Generator) -> LumpyRealization:
    """Draw one lumpy realization: Poisson count, uniform centers over the FOV."""
    n = int(rng.poisson(params.mean_count))
    w, h = params.field_of_view
    # the same values and stream position as rng.uniform((0, 0), (w, h)),
    # without its per-call argument broadcasting
    centers = (float(w), float(h)) * rng.random((n, 2))
    return LumpyRealization(centers=centers)


def sample_clb(params: ClbParams, rng: np.random.Generator) -> ClbRealization:
    """Draw one clustered-lumpy realization.

    Cluster count ~ Poisson(Kbar), centers uniform over the FOV; each cluster
    holds Poisson(Nbar) blobs with isotropic Gaussian offsets (std = spread)
    and uniform rotation angles.
    """
    w, h = params.field_of_view
    n_clusters = int(rng.poisson(params.mean_cluster_count))
    clusters = []
    for _ in range(n_clusters):
        center = (float(w), float(h)) * rng.random(2)
        n_blobs = int(rng.poisson(params.mean_blobs_per_cluster))
        offsets = rng.normal(0.0, params.cluster_spread, size=(n_blobs, 2))
        angles = rng.uniform(0.0, 2.0 * math.pi, size=n_blobs)
        clusters.append(ClbCluster(center=center, offsets=offsets, angles=angles))
    return ClbRealization(clusters=clusters)


def signal_grid_centers(field_of_view: tuple[int, int]) -> list[tuple[float, float]]:
    """Centered 3x3 grid of candidate locations at quarter points of the FOV.

    For a 64x64 grid this puts centers at x, y in {16, 32, 48}.
    """
    w, h = field_of_view
    xs = [w / 4.0, w / 2.0, 3.0 * w / 4.0]
    ys = [h / 4.0, h / 2.0, 3.0 * h / 4.0]
    return [(xs[i % 3], ys[i // 3]) for i in range(9)]


# Per-location width / rotation choices for the CLB task.  The assignment is a
# deterministic round-robin over the 9 locations so that train/validation/test
# always see identical signal images.
_CLB_WIDTHS = (5.0, 8.0, 10.0)
_CLB_ANGLES = (-math.pi / 4.0, 0.0, math.pi / 4.0)


def make_signal_ensemble(kind: str, field_of_view: tuple[int, int]) -> list[SignalSpec]:
    """Build the 9-location signal ensemble for a named task kind.

    kind is one of "bke_laplacian" (amplitude 0.2, width 3), "lb_gaussian"
    (amplitude 0.5, width 2) or "clb_poisson_gaussian" (amplitude 80, widths
    round-robin over {5, 8, 10} and angles over {-pi/4, 0, pi/4}).
    """
    centers = signal_grid_centers(field_of_view)
    specs = []
    for i, c in enumerate(centers):
        if kind == "bke_laplacian":
            spec = SignalSpec(i + 1, c, amplitude=0.2, width1=3.0, width2=3.0)
        elif kind == "lb_gaussian":
            spec = SignalSpec(i + 1, c, amplitude=0.5, width1=2.0, width2=2.0)
        elif kind == "clb_poisson_gaussian":
            spec = SignalSpec(
                i + 1, c,
                amplitude=80.0,
                width1=_CLB_WIDTHS[i % 3],
                width2=_CLB_WIDTHS[(i // 3) % 3],
                angle=_CLB_ANGLES[i % 3],
            )
        else:
            raise ValueError(f"unknown task kind: {kind!r}")
        specs.append(spec)
    return specs


def validate_signal_ensemble(specs: list[SignalSpec], field_of_view: tuple[int, int]):
    """Reject ensembles with out-of-view or duplicate locations/indices."""
    w, h = field_of_view
    seen_idx, seen_pos = set(), set()
    for s in specs:
        x, y = s.center
        if not (0.0 <= x <= w and 0.0 <= y <= h):
            raise ValueError(f"signal location {s.center} outside field of view")
        if s.location_index in seen_idx:
            raise ValueError(f"duplicate location index {s.location_index}")
        if (x, y) in seen_pos:
            raise ValueError(f"duplicate signal center {s.center}")
        seen_idx.add(s.location_index)
        seen_pos.add((x, y))
