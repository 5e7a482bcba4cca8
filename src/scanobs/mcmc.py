"""MCMC ideal observer for lumpy backgrounds with Gaussian noise.

A Metropolis-Hastings chain over lumpy-background realizations targets
p(b | g, H0).  Per retained state the conditional (background-known) log
likelihood ratio (g - b - s_j/2)^T s_j / sigma^2 is stored, and the log-mean
of the stored rows is the Monte Carlo estimate of log Lambda_j(g).

Proposal scheme per iteration: move one lump (prob 0.5, isotropic Gaussian
step of 3 px standard deviation, reflected at the field-of-view boundary),
birth a uniform new lump (0.25), or delete a uniformly chosen lump (0.25).
Birth/death acceptance includes the Poisson prior ratio, which for uniform
positions reduces to Nbar/(N+1) for birth and N/Nbar for death.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .imaging import lump_kernel
from .observers import Records, records_from_log_lrs
# perfbench/layers.py wraps these two names on this module.
from .observers import posteriors_from_lrs, scanning_decision  # noqa: F401
from .tasks import TaskConfig

# Proposal probabilities (death takes the remaining 0.25) and the move step.
MOVE_PROB = 0.5
BIRTH_PROB = 0.25
MOVE_STD = 3.0    # pixels


@dataclass(frozen=True)
class McmcConfig:
    iterations: int = 200_000
    burn_in: int | None = None            # default: 5% of iterations
    # Optional discrete support (used by enumeration-oracle tests): lump
    # centers restricted to these candidates, and lump count capped.
    candidate_centers: np.ndarray | None = None
    max_count: int | None = None

    def __post_init__(self):
        if self.burn_in is not None and self.burn_in < 0:
            raise ValueError(f"burn_in must be >= 0, got {self.burn_in}")
        if self.iterations <= self.effective_burn_in:
            raise ValueError("iterations must exceed burn-in")

    @property
    def effective_burn_in(self) -> int:
        if self.burn_in is not None:
            return self.burn_in
        return self.iterations // 20


def _reflect(x, lo: float, hi: float):
    """Reflect x (a float or an array) into [lo, hi]."""
    span = hi - lo
    t = (x - lo) % (2.0 * span)
    return lo + span - abs(t - span)


def mcmc_io_record(g, task: TaskConfig, cfg: McmcConfig,
                   rng: np.random.Generator, true_label: int = 0,
                   count_trace: list | None = None) -> Records:
    """Estimate the scanning-IO statistics for one image by MCMC, as a
    one-row record set.

    When count_trace is a list, the post-burn-in lump count is appended at
    every retained iteration (used by stationarity checks).
    """
    if task.lumpy is None:
        raise ValueError("MCMC observer requires a lumpy-background task")
    if task.noise.kind != "gaussian":
        raise ValueError("MCMC observer requires Gaussian measurement noise")
    w, h = task.grid
    g = np.asarray(g)
    if g.shape != (h, w):
        raise ValueError(f"image shape {g.shape} does not match the task "
                         f"grid (height, width) = {(h, w)}")
    sigma2 = task.noise.scale ** 2
    fw, fh = float(w), float(h)
    lumps = lump_kernel(task.lumpy, task.prf)

    sigs = task.signal_images.reshape(task.J, -1).astype(np.float64)
    ssq = (sigs * sigs).sum(axis=1)

    discrete = cfg.candidate_centers is not None
    if discrete:
        candidates = np.asarray(cfg.candidate_centers, dtype=np.float64)
        candidate_lumps = lumps(candidates).reshape(len(candidates), -1)

    # initial state: a prior draw (empty when the support is discrete).
    # Centers are pairs of Python floats, which round as float64 does; each
    # lump's image is kept beside its center.
    centers: list = []
    if not discrete:
        n0 = int(rng.poisson(task.lumpy.mean_count))
        if cfg.max_count is not None:
            n0 = min(n0, cfg.max_count)
        centers = ((fw, fh) * rng.random((n0, 2))).tolist()
    images = list(lumps(centers).reshape(len(centers), w * h))

    r = g.astype(np.float64).ravel()    # residual g - b, updated incrementally
    sr = sigs @ r                       # running S @ (g - b)
    for lump in images:
        r -= lump
        sr -= sigs @ lump

    burn_in = cfg.effective_burn_in
    # Row 0 is -inf; each retained iteration stores its state's conditional
    # log-LR in the next row, and one sequential logaddexp reduction folds
    # them in iteration order.
    rows = np.empty((cfg.iterations - burn_in + 1, task.J))
    rows[0] = -np.inf
    filled = 1
    log_nbar = np.log(task.lumpy.mean_count)
    log_count = cache(np.log)    # np.log of a lump count, once per count

    def keep(run):
        nonlocal filled
        # conditional BKE log-LR: (g - b - s_j/2)^T s_j / sigma^2
        rows[filled:filled + run] = (sr - ssq / 2.0) / sigma2
        filled += run
        if count_trace is not None:
            count_trace.extend([len(centers)] * run)

    since = burn_in     # first retained iteration of the current state
    for it in range(cfg.iterations):
        u = rng.random()
        n = len(centers)
        if u < MOVE_PROB:
            if n == 0:
                continue
            idx = int(rng.integers(n))
            if discrete:
                k = int(rng.integers(len(candidates)))
                new, lump = candidates[k], candidate_lumps[k]
            else:
                sx, sy = rng.normal(0.0, MOVE_STD, size=2).tolist()
                cx, cy = centers[idx]
                new = (_reflect(cx + sx, 0.0, fw), _reflect(cy + sy, 0.0, fh))
                lump = lumps([new]).ravel()
            delta = lump - images[idx]
            log_prior = 0.0
        elif u < MOVE_PROB + BIRTH_PROB:
            if cfg.max_count is not None and n >= cfg.max_count:
                continue
            idx = n
            if discrete:
                k = int(rng.integers(len(candidates)))
                new, lump = candidates[k], candidate_lumps[k]
            else:
                ux, uy = rng.random(2).tolist()
                new = (fw * ux, fh * uy)
                lump = lumps([new]).ravel()
            delta = lump
            log_prior = log_nbar - log_count(n + 1)
        else:
            if n == 0:
                continue
            idx = int(rng.integers(n))
            new = None
            delta = -images[idx]
            log_prior = log_count(n) - log_nbar

        # ndarray.dot is the same BLAS dot as @, with less call overhead
        log_alpha = (2.0 * r.dot(delta) - delta.dot(delta)) / (2.0 * sigma2) \
            + log_prior
        if np.log(rng.random()) < log_alpha:
            if it > since:
                keep(it - since)
            since = max(it, burn_in)
            if new is None:
                centers.pop(idx)
                images.pop(idx)
            elif idx == n:
                centers.append(new)
                images.append(lump)
            else:
                centers[idx] = new
                images[idx] = lump
            r -= delta
            sr -= sigs @ delta

    keep(cfg.iterations - since)
    log_lrs = np.logaddexp.reduce(rows, axis=0) \
        - np.log(cfg.iterations - burn_in)
    return records_from_log_lrs(log_lrs[None], task.priors, [true_label])
