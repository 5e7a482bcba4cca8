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

Each lump is kept as the separable factors of imaging.lump_kernel, its image
being the outer product fy fx^T, with its squared norm |fy|^2 |fx|^2.  A
proposal's log acceptance ratio then needs only products of these vectors
with the (height, width) residual r = g - b and with each other, and only an
accepted proposal updates r and the running S @ r by whole lump images.
Since r changes only there, each held lump's r . L is kept, in a list beside
its factors, from the first proposal that drops it (a move or a death) until
the next accepted proposal, which clears every entry.  A proposed new lump's
factors come from imaging.lump_kernel's one-center call.
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
    # centers restricted to these candidates, which must lie in the task's
    # field (checked by mcmc_io_record), and lump count capped.
    candidate_centers: np.ndarray | None = None
    max_count: int | None = None

    def __post_init__(self):
        if self.burn_in is not None and self.burn_in < 0:
            raise ValueError(f"burn_in must be >= 0, got {self.burn_in}")
        if self.iterations <= self.effective_burn_in:
            raise ValueError("iterations must exceed burn-in")
        if self.max_count is not None and self.max_count < 0:
            raise ValueError(f"max_count must be >= 0, got {self.max_count}")
        if self.candidate_centers is not None:
            c = np.asarray(self.candidate_centers, dtype=np.float64)
            if c.ndim != 2 or c.shape[1] != 2 or len(c) == 0:
                raise ValueError(f"candidate_centers must be a non-empty "
                                 f"(K, 2) array, got shape {c.shape}")
            if not np.isfinite(c).all():
                raise ValueError("candidate_centers must be finite")

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
    if not np.isfinite(g).all():
        raise ValueError("image g has non-finite pixels")
    sigma2 = task.noise.scale ** 2
    fw, fh = float(w), float(h)
    lumps = lump_kernel(task.lumpy, task.prf)

    def lump(center):
        """The factors fy, fx and squared norm |L|^2 of one (x, y) center's
        lump."""
        fy, fx = lumps(center)
        return fy, fx, float(fy.dot(fy) * fx.dot(fx))

    sigs = task.signal_images.reshape(task.J, -1).astype(np.float64)
    ssq = (sigs * sigs).sum(axis=1)
    sig_rows = sigs.reshape(task.J * h, w)

    def signal_dots(fy, fx):
        """S @ L for the lump fy[:, None] * fx[None, :]."""
        return sig_rows.dot(fx).reshape(task.J, h).dot(fy)

    discrete = cfg.candidate_centers is not None
    if discrete:
        candidates = np.asarray(cfg.candidate_centers, dtype=np.float64)
        if not ((candidates >= 0.0) & (candidates <= (fw, fh))).all():
            raise ValueError(f"candidate_centers must lie in the field "
                             f"[0, {w}] x [0, {h}]")
        candidate_lumps = [lump(tuple(c)) for c in candidates.tolist()]

    # initial state: a prior draw (empty when the support is discrete).
    # Centers are pairs of Python floats, which round as float64 does; each
    # lump's factors and squared norm are kept beside its center, and its
    # r . L once a proposal to drop it has computed that (None until then).
    centers: list = []
    if not discrete:
        n0 = int(rng.poisson(task.lumpy.mean_count))
        if cfg.max_count is not None:
            n0 = min(n0, cfg.max_count)
        centers = ((fw, fh) * rng.random((n0, 2))).tolist()
    factors = [lump(tuple(c)) for c in centers]
    held_rl = [None] * len(factors)

    r = g.astype(np.float64)    # residual g - b, updated incrementally
    sr = sigs @ r.ravel()       # running S @ (g - b)
    for fy, fx, _ in factors:
        r -= fy[:, None] * fx
        sr -= signal_dots(fy, fx)

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
                new, add = candidates[k], candidate_lumps[k]
            else:
                sx, sy = rng.normal(0.0, MOVE_STD, size=2).tolist()
                cx, cy = centers[idx]
                new = (_reflect(cx + sx, 0.0, fw), _reflect(cy + sy, 0.0, fh))
                add = lump(new)
            drop = factors[idx]
            log_prior = 0.0
        elif u < MOVE_PROB + BIRTH_PROB:
            if cfg.max_count is not None and n >= cfg.max_count:
                continue
            idx = n
            if discrete:
                k = int(rng.integers(len(candidates)))
                new, add = candidates[k], candidate_lumps[k]
            else:
                ux, uy = rng.random(2).tolist()
                new = (fw * ux, fh * uy)
                add = lump(new)
            drop = None
            log_prior = log_nbar - log_count(n + 1)
        else:
            if n == 0:
                continue
            idx = int(rng.integers(n))
            new = add = None
            drop = factors[idx]
            log_prior = log_count(n) - log_nbar

        # The background changes by L_add - L_drop.  With L = fy fx^T,
        # r . L is fy . (r @ fx) and L_a . L_b is (fy_a . fy_b)(fx_a . fx_b).
        # The scalars are Python floats: the same float64 arithmetic as
        # numpy scalars, at a fraction of the call cost.
        r_delta = delta2 = 0.0
        if add is not None:
            r_delta += float(add[0].dot(r.dot(add[1])))
            delta2 += add[2]
        if drop is not None:
            if held_rl[idx] is None:
                held_rl[idx] = float(drop[0].dot(r.dot(drop[1])))
            r_delta -= held_rl[idx]
            delta2 += drop[2]
            if add is not None:
                delta2 -= float(2.0 * add[0].dot(drop[0])
                                * add[1].dot(drop[1]))
        log_alpha = (2.0 * r_delta - delta2) / (2.0 * sigma2) + log_prior
        if np.log(rng.random()) < log_alpha:
            if it > since:
                keep(it - since)
            since = max(it, burn_in)
            if new is None:
                centers.pop(idx)
                factors.pop(idx)
            elif idx == n:
                centers.append(new)
                factors.append(add)
            else:
                centers[idx] = new
                factors[idx] = add
            if add is not None:
                r -= add[0][:, None] * add[1]
                sr -= signal_dots(add[0], add[1])
            if drop is not None:
                r += drop[0][:, None] * drop[1]
                sr += signal_dots(drop[0], drop[1])
            held_rl = [None] * len(factors)

    keep(cfg.iterations - since)
    log_lrs = np.logaddexp.reduce(rows, axis=0) \
        - np.log(cfg.iterations - burn_in)
    return records_from_log_lrs(log_lrs[None], task.priors, [true_label])
