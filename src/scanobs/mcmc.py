"""MCMC ideal observer for lumpy backgrounds with Gaussian noise.

A Metropolis-Hastings chain over lumpy-background realizations targets
p(b | g, H0).  Per retained state the conditional (background-known) log
likelihood ratio (g - b - s_j/2)^T s_j / sigma^2 is accumulated as a running
log-mean, giving the Monte Carlo estimate of log Lambda_j(g).

Proposal scheme per iteration: move one lump (prob 0.5, isotropic Gaussian
step reflected at the field-of-view boundary), birth a uniform new lump
(0.25), or delete a uniformly chosen lump (0.25).  Birth/death acceptance
includes the Poisson prior ratio, which for uniform positions reduces to
Nbar/(N+1) for birth and N/Nbar for death.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .observers import Records, records_from_log_lrs
# perfbench/layers.py wraps these two names on this module.
from .observers import posteriors_from_lrs, scanning_decision  # noqa: F401
from .tasks import TaskConfig


@dataclass(frozen=True)
class McmcConfig:
    iterations: int = 200_000
    burn_in: int | None = None            # default: 5% of iterations
    move_prob: float = 0.5
    birth_prob: float = 0.25
    death_prob: float = 0.25
    move_std: float = 3.0                 # pixels
    # Optional discrete support (used by enumeration-oracle tests): lump
    # centers restricted to these candidates, and lump count capped.
    candidate_centers: np.ndarray | None = None
    max_count: int | None = None

    def __post_init__(self):
        probs = (self.move_prob, self.birth_prob, self.death_prob)
        if any(p < 0 for p in probs) or abs(sum(probs) - 1.0) > 1e-12:
            raise ValueError("move/birth/death probabilities must sum to 1")
        if self.iterations <= self.effective_burn_in:
            raise ValueError("iterations must exceed burn-in")

    @property
    def effective_burn_in(self) -> int:
        if self.burn_in is not None:
            return self.burn_in
        return self.iterations // 20


def _reflect(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    span = hi - lo
    t = np.mod(x - lo, 2.0 * span)
    return lo + span - np.abs(t - span)


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

    # initial state: a prior draw (empty when the support is discrete)
    centers: list[np.ndarray] = []
    if not discrete:
        n0 = int(rng.poisson(params.mean_count))
        if cfg.max_count is not None:
            n0 = min(n0, cfg.max_count)
        centers = [rng.uniform((0.0, 0.0), (float(w), float(h)))
                   for _ in range(n0)]

    r = gv.copy()       # residual g - b, updated incrementally
    sr = sigs @ r       # running S @ (g - b)
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

        if u < cfg.move_prob:
            if n > 0:
                idx = int(rng.integers(n))
                if discrete:
                    new = candidates[int(rng.integers(len(candidates)))]
                else:
                    step = rng.normal(0.0, cfg.move_std, size=2)
                    new = np.array([
                        _reflect(centers[idx][0] + step[0], 0.0, float(w)),
                        _reflect(centers[idx][1] + step[1], 0.0, float(h)),
                    ])
                delta = lump_flat(new) - lump_flat(centers[idx])
                action = ("move", idx, new)
        elif u < cfg.move_prob + cfg.birth_prob:
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
            # conditional BKE log-LR: (g - b - s_j/2)^T s_j / sigma^2
            v = (sr - ssq / 2.0) / sigma2
            log_sum = np.logaddexp(log_sum, v)
            n_kept += 1
            if count_trace is not None:
                count_trace.append(len(centers))

    log_lrs = log_sum - np.log(n_kept)
    return records_from_log_lrs(log_lrs[None], task.priors, [true_label])
