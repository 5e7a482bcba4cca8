"""Nonparametric LROC/ROC analysis with bootstrap standard errors."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .observers import Records


@dataclass
class LrocCurve:
    """Empirical LROC: (false-positive fraction, P(correct localization))."""

    thresholds: np.ndarray  # descending sweep, +inf first
    fpf: np.ndarray         # nondecreasing, 0 .. 1
    pcl: np.ndarray         # nondecreasing along the sweep


@dataclass
class FomEstimate:
    value: float
    std_error: float


def _split_records(records: Records, binary: bool = False):
    """Absent scores, present scores, and per present record whether it was
    localized correctly (always, for the binary statistic)."""
    t = records.binary_statistic if binary else records.statistic
    absent = records.true_label == 0
    present = ~absent
    if not absent.any() or not present.any():
        raise ValueError("need both signal-absent and signal-present records")
    t = np.asarray(t, dtype=np.float64)
    correct = binary | (records.chosen_location[present]
                        == records.true_label[present])
    return t[absent], t[present], correct


def _curve(records: Records, binary: bool) -> LrocCurve:
    t_abs, t_sig, correct = _split_records(records, binary)
    taus = np.concatenate(([np.inf],
                           np.unique(np.concatenate((t_abs, t_sig)))[::-1],
                           [-np.inf]))
    fpf = (t_abs[None, :] > taus[:, None]).mean(axis=1)
    hit = t_sig[None, :] > taus[:, None]
    hit &= correct
    return LrocCurve(taus, fpf, hit.mean(axis=1))


def empirical_lroc(records: Records) -> LrocCurve:
    """LROC curve swept over all observed test-statistic values.

    At threshold tau: FPF = fraction of absent cases with t > tau, PCL =
    fraction of present cases with t > tau and correct localization.
    """
    return _curve(records, binary=False)


def empirical_roc(records: Records) -> LrocCurve:
    """Empirical ROC over the binary detection statistics (TPF in .pcl)."""
    return _curve(records, binary=True)


def _two_afc(records: Records, binary: bool, n_bootstrap: int,
             rng: np.random.Generator | None) -> FomEstimate:
    """2AFC estimator with a within-class bootstrap SE.

    The estimate is the mean over (present, absent) pairs of
    1{t_i > t_k, correct localization} with half credit on ties.  Each
    bootstrap replicate resamples the absent and the present scores (in that
    order) and counts the resampled absent scores below and tied with each
    present score from their ranks in one sort of the originals.  Every
    term is a multiple of 0.5 below 2**53, so each replicate equals the
    estimator on the resampled scores exactly.
    """
    t_abs, t_sig, correct = _split_records(records, binary)
    na, ns = len(t_abs), len(t_sig)
    order = np.sort(t_abs)
    rank = np.searchsorted(order, t_abs, side="left")
    n_lt = np.searchsorted(order, t_sig, side="left")
    n_le = np.searchsorted(order, t_sig, side="right")
    score = (n_lt + 0.5 * (n_le - n_lt)) * correct
    value = float(score.sum() / (ns * na))
    rng = rng if rng is not None else np.random.default_rng(0)
    below = np.zeros(na + 1, dtype=np.int64)  # below[k]: draws with rank < k
    vals = np.empty(n_bootstrap)
    for i in range(n_bootstrap):
        ia = rng.integers(na, size=na)
        isg = rng.integers(ns, size=ns)
        np.cumsum(np.bincount(rank[ia], minlength=na), out=below[1:])
        lt = below[n_lt]
        score = (lt + 0.5 * (below[n_le] - lt)) * correct
        vals[i] = (score * np.bincount(isg, minlength=ns)).sum() / (ns * na)
    return FomEstimate(value, float(vals.std(ddof=1)))


def alroc(records: Records, n_bootstrap: int = 1000,
          rng: np.random.Generator | None = None) -> FomEstimate:
    """Area under the LROC curve with a within-class bootstrap SE."""
    return _two_afc(records, False, n_bootstrap, rng)


def auc(records: Records, n_bootstrap: int = 1000,
        rng: np.random.Generator | None = None) -> FomEstimate:
    """Area under the empirical ROC of the binary detection statistics."""
    return _two_afc(records, True, n_bootstrap, rng)


def compare_systems(
        reports: list[tuple[str, str, FomEstimate, FomEstimate]]) -> dict:
    """Rank systems by ALROC and by AUC, separately for each observer; flag
    the observers whose two orderings disagree.

    Each report entry is (observer, system_id, alroc_estimate, auc_estimate).
    The rankings map each observer to its system ids in rank order.
    """
    if not reports:
        raise ValueError("need at least one system")
    by_observer: dict[str, dict[str, tuple[FomEstimate, FomEstimate]]] = {}
    for observer, system, alroc_est, auc_est in reports:
        systems = by_observer.setdefault(observer, {})
        if system in systems:
            raise ValueError(f"system {system!r} is reported twice for "
                             f"observer {observer!r}")
        systems[system] = (alroc_est, auc_est)

    def ranking(fom):  # fom indexes (alroc, auc)
        return {obs: sorted(systems, key=lambda s: systems[s][fom].value,
                            reverse=True)
                for obs, systems in by_observer.items()}

    alroc_rank, auc_rank = ranking(0), ranking(1)
    return {
        "alroc_ranking": alroc_rank,
        "auc_ranking": auc_rank,
        "rankings_disagree": [obs for obs in by_observer
                              if alroc_rank[obs] != auc_rank[obs]],
    }


def curve_to_csv(path, curve: LrocCurve):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tau", "fpf", "pcl"])
        for tau, f, p in zip(curve.thresholds, curve.fpf, curve.pcl):
            writer.writerow([repr(float(tau)), repr(float(f)), repr(float(p))])


def report_to_csv(path, rows: list[dict]):
    """Write the figure-of-merit report: one row per (observer, task, system)."""
    fields = ["observer", "task", "system", "alroc", "alroc_se",
              "auc", "auc_se", "n_records"]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
