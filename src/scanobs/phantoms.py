"""Stochastic object models (lumpy, clustered-lumpy) and signal specs."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def check_fields(obj, positive, grid=None, finite=()):
    """Reject a NaN or non-positive value in any of the fields named in
    ``positive``, a NaN or infinite value in any named in ``finite``, and,
    if ``grid`` names a field, a value of it that is not two positive
    ints."""
    if grid is not None:
        size = getattr(obj, grid)
        if not (isinstance(size, tuple) and len(size) == 2 and all(
                isinstance(n, (int, np.integer)) and n > 0 for n in size)):
            raise ValueError(f"{grid} must be two positive ints, "
                             f"got {size!r}")
    for name in positive:
        if not getattr(obj, name) > 0:
            raise ValueError(f"{name} must be positive, "
                             f"got {getattr(obj, name)!r}")
    for name in finite:
        if not math.isfinite(getattr(obj, name)):
            raise ValueError(f"{name} must be finite, "
                             f"got {getattr(obj, name)!r}")


@dataclass(frozen=True)
class LumpyParams:
    """Poisson-count ensemble of 2D Gaussian lumps at uniform locations."""

    mean_count: float = 8.0
    amplitude: float = 1.0
    lump_width: float = 7.0
    field_of_view: tuple[int, int] = (64, 64)  # (width, height), pixels

    def __post_init__(self):
        check_fields(self, ("mean_count", "lump_width"), "field_of_view",
                     finite=("amplitude",))


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
        check_fields(self, ("mean_cluster_count", "mean_blobs_per_cluster",
                            "half_axis_x", "half_axis_y", "shape_alpha",
                            "shape_beta", "cluster_spread"), "field_of_view",
                     finite=("blob_amplitude",))


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
        check_fields(self, ("width1", "width2"), finite=("amplitude",))


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
