"""Scanning observers: max-statistic rule, analytic Laplacian ideal observer,
scanning Hotelling observer, and posterior-ratio utilities.

All likelihood ratios are carried in the log domain throughout.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields

import numpy as np
from scipy.sparse.linalg import LinearOperator, cg
from scipy.special import logsumexp

_BLOCK_ROWS = 16  # images per block in laplacian_io_log_lrs_batch
_CG_RTOL = 1e-6   # relative residual of each Hotelling template solve


@dataclass
class Records:
    """Observer output for N images, one row per image: the input of the
    LROC analysis."""

    statistic: np.ndarray        # (N,) t = max_j lambda_j
    chosen_location: np.ndarray  # (N,) j* in 1..J (lowest index on ties)
    true_label: np.ndarray       # (N,) y in 0..J
    per_location: np.ndarray     # (N, J) per-location statistics lambda_j
    binary_statistic: np.ndarray  # (N,) detection-only statistic

    def __len__(self) -> int:
        return len(self.statistic)

    @classmethod
    def concatenate(cls, parts: list[Records]) -> Records:
        """Stack the rows of several record sets, in order."""
        return cls(*(np.concatenate([getattr(p, f.name) for p in parts])
                     for f in fields(cls)))


def scanning_decision(lams):
    """Max-statistic rule along the last axis: t = max_j lambda_j and
    j* = first argmax (1-based), one pair per row."""
    lams = np.asarray(lams, dtype=np.float64)
    if lams.ndim not in (1, 2) or lams.shape[-1] < 1:
        raise ValueError("need rows of at least one statistic")
    if not np.all(np.isfinite(lams)):
        raise ValueError("non-finite per-location statistic")
    # np.argmax returns the first maximizer
    return lams.max(axis=-1), np.argmax(lams, axis=-1) + 1


def records_from_statistics(lams, labels, binary) -> Records:
    """Records from (N, J) per-location statistics by the max-statistic rule."""
    t, j_star = scanning_decision(lams)
    return Records(t, j_star, np.asarray(labels, dtype=np.int64),
                   np.asarray(lams), np.asarray(binary, dtype=np.float64))


def posteriors_from_lrs(log_lrs, priors) -> np.ndarray:
    """Posterior probabilities from per-location log likelihood ratios.

    priors has length J+1 (signal-absent first); each row of log_lrs gives
    one row of J+1 posteriors that sums to 1, computed stably in the log
    domain.
    """
    log_lrs = np.asarray(log_lrs, dtype=np.float64)
    priors = np.asarray(priors, dtype=np.float64)
    if len(priors) != log_lrs.shape[-1] + 1:
        raise ValueError("priors must have length J+1")
    if np.any(priors <= 0):
        raise ValueError("priors must be strictly positive")
    log_num = np.concatenate(
        (np.broadcast_to(np.log(priors[0]), log_lrs.shape[:-1] + (1,)),
         np.log(priors[1:]) + log_lrs), axis=-1)
    return np.exp(log_num - logsumexp(log_num, axis=-1, keepdims=True))


def records_from_log_lrs(log_lrs, priors, labels) -> Records:
    """Ideal-observer records from (N, J) log likelihood ratios.

    Per-location statistics are the prior-weighted log likelihood ratios
    log Pr(H_j) + log Lambda_j(g); the binary statistic is 1 - Pr(H0|g).
    """
    log_lrs = np.asarray(log_lrs, dtype=np.float64)
    priors = np.asarray(priors, dtype=np.float64)
    post = posteriors_from_lrs(log_lrs, priors)
    return records_from_statistics(np.log(priors[1:]) + log_lrs, labels,
                                   1.0 - post[:, 0])


def laplacian_io_log_lrs_batch(images: np.ndarray,
                               signal_images: np.ndarray,
                               background: np.ndarray, c: float) -> np.ndarray:
    """Per-location log-LRs of the Laplacian known-background task for a
    stack of images, shape (N, J):

    log Lambda_j = (1/c) * sum_m (|g_m - b_m| - |g_m - b_m - s_jm|).

    The stack is walked a block of images at a time through three float64
    workspaces; each image's sum is the one a whole-stack sum would give.
    """
    if c <= 0:
        raise ValueError("Laplacian scale c must be positive")
    n = len(images)
    flat = images.reshape(n, -1)
    b = np.asarray(background, dtype=np.float64).ravel()
    sigs = signal_images.reshape(len(signal_images), -1).astype(np.float64)
    out = np.empty((n, len(sigs)))
    r, mag, work = np.empty((3, min(n, _BLOCK_ROWS), flat.shape[1]))
    for lo in range(0, n, _BLOCK_ROWS):
        rows = min(n - lo, _BLOCK_ROWS)
        rk, ak, wk = r[:rows], mag[:rows], work[:rows]
        np.subtract(flat[lo:lo + rows], b, out=rk)
        np.abs(rk, out=ak)
        for j, s in enumerate(sigs):
            np.subtract(rk, s, out=wk)
            np.abs(wk, out=wk)
            np.subtract(ak, wk, out=wk)
            out[lo:lo + rows, j] = wk.sum(axis=1)
    out /= c
    return out


@dataclass
class HotellingObserverState:
    """Immutable scanning-HO state: per-location templates and references."""

    templates: np.ndarray        # (J, M)
    mean_background: np.ndarray  # (M,)
    signals: np.ndarray          # (J, M)


def build_hotelling(backgrounds, signals,
                    noise_var: float) -> HotellingObserverState:
    """Build scanning-HO templates by conjugate gradients.

    The covariance K = K_b + noise_var * I is applied matrix-free through the
    centered background samples; each template solves K w_j = s_j to the
    relative residual _CG_RTOL.  With no background samples (BKE)
    K = noise_var * I and w_j = s_j / noise_var directly.
    """
    signals = np.stack([np.asarray(s, dtype=np.float64).ravel()
                        for s in signals])
    j_count, m = signals.shape

    if backgrounds is None or len(backgrounds) == 0:
        if noise_var <= 0:
            raise ValueError("noise variance must be positive in the BKE case")
        mean_bg = np.zeros(m)
        templates = signals / noise_var
        return HotellingObserverState(templates, mean_bg, signals)

    samples = np.stack([np.asarray(b, dtype=np.float64).ravel()
                        for b in backgrounds])
    n = len(samples)
    if n < 2:
        raise ValueError("need at least 2 background samples")
    if noise_var <= 0 and n <= m:
        raise ValueError("singular covariance: noise_var=0 with fewer "
                         "samples than pixels")
    mean_bg = samples.mean(axis=0)
    centered = samples - mean_bg

    def apply_k(v):
        return centered.T @ (centered @ v) / (n - 1) + noise_var * v

    op = LinearOperator((m, m), matvec=apply_k, dtype=np.float64)
    templates = np.empty_like(signals)
    for j in range(j_count):
        w, info = cg(op, signals[j], rtol=_CG_RTOL, atol=0.0, maxiter=10 * m)
        if info != 0:
            raise RuntimeError(f"CG failed to converge for template {j + 1}")
        templates[j] = w
    return HotellingObserverState(templates, mean_bg, signals)


def scanning_ho_records(images, labels,
                        state: HotellingObserverState) -> Records:
    """Scanning HO: lambda_j = w_j^T (g - mean_b - s_j / 2); the binary
    statistic is max_j lambda_j."""
    n = len(images)
    flat = images.reshape(n, -1).astype(np.float64) - state.mean_background
    lams = flat @ state.templates.T \
        - 0.5 * (state.templates * state.signals).sum(axis=1)
    return records_from_statistics(lams, labels, lams.max(axis=1))


def records_to_csv(path, records: Records):
    """Write records as CSV: image_id, true_label, t, j_star,
    binary_statistic, lambda_1..J."""
    j_count = records.per_location.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["image_id", "true_label", "t", "j_star",
                         "binary_statistic"]
                        + [f"lambda_{j + 1}" for j in range(j_count)])
        rows = zip(records.true_label.tolist(), records.statistic.tolist(),
                   records.chosen_location.tolist(),
                   records.binary_statistic.tolist(),
                   records.per_location.tolist())
        for i, (label, t, j_star, b, lams) in enumerate(rows):
            writer.writerow([i, label, repr(t), j_star, repr(b)]
                            + [repr(v) for v in lams])
