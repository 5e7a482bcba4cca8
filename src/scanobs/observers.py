"""Scanning observers: max-statistic rule, analytic Laplacian ideal observer,
scanning Hotelling observer, and posterior-ratio utilities.

All likelihood ratios are carried in the log domain throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import workers

_BLOCK_ROWS = 16  # images per block in laplacian_io_log_lrs_batch
_GRAM_COLUMNS = 256  # pixel columns per block in build_hotelling
# Rows of every block product in scanning_ho_records: a 2 MB float64
# workspace per thread at 64x64, 8.4 MB at 128x128.  With numpy 2.4.6's
# OpenBLAS, a product of at least 28 rows (7 at 128x128) has the bits of
# one of 256 rows, so any block size from there up gives the same records
HO_BLOCK_ROWS = 64


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
    domain.  The log normaliser of a row of numerators a is
    log1p(r / k) + log(k) + max(a), where k is the number of entries tied
    at the maximum and r the sum of exp(a - max(a)) over the others, so a
    row has the same bits alone as in a stack.
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
    top = log_num.max(axis=-1, keepdims=True)
    tied = log_num == top
    count = tied.sum(axis=-1, keepdims=True, dtype=np.float64)
    rest = np.exp(np.where(tied, -np.inf, log_num - top)).sum(axis=-1,
                                                                keepdims=True)
    return np.exp(log_num - (np.log1p(rest / count) + np.log(count) + top))


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
    The two halves of the stack, cut at a block edge, run on two threads
    (workers.two_threads), each with its own workspaces.
    """
    if c <= 0:
        raise ValueError("Laplacian scale c must be positive")
    n = len(images)
    flat = images.reshape(n, -1)
    b = np.asarray(background, dtype=np.float64).ravel()
    sigs = signal_images.reshape(len(signal_images), -1).astype(np.float64)
    out = np.empty((n, len(sigs)))

    def blocks(first, last):
        r, mag, work = np.empty((3, min(last - first, _BLOCK_ROWS),
                                 flat.shape[1]))
        for lo in range(first, last, _BLOCK_ROWS):
            rows = min(last - lo, _BLOCK_ROWS)
            rk, ak, wk = r[:rows], mag[:rows], work[:rows]
            np.subtract(flat[lo:lo + rows], b, out=rk)
            np.abs(rk, out=ak)
            for j, s in enumerate(sigs):
                np.subtract(rk, s, out=wk)
                np.abs(wk, out=wk)
                np.subtract(ak, wk, out=wk)
                out[lo:lo + rows, j] = wk.sum(axis=1)

    workers.two_threads(blocks, n, _BLOCK_ROWS)
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
    """Build scanning-HO templates w_j = K^-1 s_j, with
    K = C^T C / (n - 1) + noise_var * I over the n centred background
    samples C (BKE: no samples, so w_j = s_j / noise_var).

    By the matrix-inversion (Woodbury) identity,
    K^-1 s = (s - C^T A^-1 C s) / noise_var with the n x n system
    A = C C^T + (n - 1) noise_var I, solved by one LU factorisation
    (numpy.linalg.solve).  C is centred in float64 a block of
    _GRAM_COLUMNS pixels at a time, so no float64 copy of the stack is
    held; A sums the blocks' products, each of which numpy forms by one
    symmetric rank-k update into the one n x n array they share.  That
    array and the workspace are released before the solve, and A as it
    returns, so the solve holds one n x n float64 array of scanobs (and
    LAPACK its own copy); the template pass takes a fresh workspace.  Like
    every product in scanobs, the algebra runs at the one BLAS thread that
    ``scanobs.workers`` sets at import, so the templates do not depend on
    the OPENBLAS_NUM_THREADS a process starts with.
    """
    signals = np.asarray(signals, dtype=np.float64).reshape(len(signals), -1)
    j_count, m = signals.shape
    if not noise_var > 0:
        raise ValueError(f"noise variance must be positive, got {noise_var!r}")

    if backgrounds is None or len(backgrounds) == 0:
        mean_bg = np.zeros(m)
        templates = signals / noise_var
        return HotellingObserverState(templates, mean_bg, signals)

    n = len(backgrounds)
    if n < 2:
        raise ValueError("need at least 2 background samples")
    x = np.asarray(backgrounds).reshape(n, -1)
    if x.shape[1] != m:
        raise ValueError(f"background samples have {x.shape[1]} pixels, "
                         f"signals {m}")
    mean_bg = x.mean(axis=0, dtype=np.float64)

    def centred_blocks():  # each pass takes its own workspace
        work = np.empty((n, min(m, _GRAM_COLUMNS)))
        for lo in range(0, m, _GRAM_COLUMNS):
            cols = slice(lo, min(lo + _GRAM_COLUMNS, m))
            block = work[:, :cols.stop - lo]
            np.subtract(x[:, cols], mean_bg[cols], out=block)
            yield cols, block

    def system():  # A and C S^T; prod and the workspace end with the call
        gram = np.zeros((n, n))
        prod = np.empty((n, n))  # each block's product, formed in place
        c_s = np.zeros((n, j_count))  # C S^T
        for cols, block in centred_blocks():
            gram += np.matmul(block, block.T, out=prod)
            c_s += block @ signals[:, cols].T
        gram.flat[::n + 1] += (n - 1) * noise_var
        return gram, c_s

    coef = np.linalg.solve(*system())
    templates = signals.copy()
    for cols, block in centred_blocks():
        templates[:, cols] -= coef.T @ block
    templates /= noise_var
    return HotellingObserverState(templates, mean_bg, signals)


def scanning_ho_records(images, labels,
                        state: HotellingObserverState) -> Records:
    """Scanning HO: lambda_j = w_j^T (g - mean_b - s_j / 2); the binary
    statistic is max_j lambda_j.

    The stack is walked in blocks of HO_BLOCK_ROWS images, and every
    product has HO_BLOCK_ROWS rows, a short block's padding rows dropped:
    OpenBLAS rounds a product of a few rows on another path, so an image's
    record has the same bits in any stack.  The two halves of the blocks
    run on two threads (workers.two_threads), each through its own
    HO_BLOCK_ROWS-row float64 workspace, zeroed once per call.
    """
    n = len(images)
    flat = images.reshape(n, -1)
    lams = np.empty((n, len(state.templates)))

    def blocks(first, last):
        # zeroed once: a padding row holds zeros or an earlier block's row,
        # never uninitialised memory, whose denormals slow the product
        work = np.zeros((HO_BLOCK_ROWS, flat.shape[1]))
        for lo in range(first, last, HO_BLOCK_ROWS):
            rows = min(last - lo, HO_BLOCK_ROWS)
            np.subtract(flat[lo:lo + rows], state.mean_background,
                        out=work[:rows])
            lams[lo:lo + rows] = (work @ state.templates.T)[:rows]

    workers.two_threads(blocks, n, HO_BLOCK_ROWS)
    lams -= 0.5 * (state.templates * state.signals).sum(axis=1)
    return records_from_statistics(lams, labels, lams.max(axis=1))


def columns_to_csv(path, header, columns):
    """Write equal-length columns of Python numbers (as from tolist) and
    fixed identifiers under a header, in the bytes csv.writer gives: each
    value as its str (a float's shortest round trip), comma separated and
    unquoted, each line ended by "\\r\\n"."""
    lines = [",".join(header)]
    lines += map(",".join, zip(*[list(map(str, c)) for c in columns]))
    lines.append("")
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines))


def records_to_csv(path, records: Records):
    """Write records as CSV: image_id, true_label, t, j_star,
    binary_statistic, lambda_1..J."""
    j_count = records.per_location.shape[1]
    columns_to_csv(path, ["image_id", "true_label", "t", "j_star",
                          "binary_statistic"]
                   + [f"lambda_{j + 1}" for j in range(j_count)],
                   [range(len(records)), records.true_label.tolist(),
                    records.statistic.tolist(),
                    records.chosen_location.tolist(),
                    records.binary_statistic.tolist(),
                    *records.per_location.T.tolist()])
