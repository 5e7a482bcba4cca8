"""Acceptance suite.

Criteria 1 and 6 run in the default test session.  Criteria 2 through 5
train networks at their stated scale, which needs on the order of 1e16 to
1e17 floating-point operations; on this machine's single core (measured
around 50-100 GFLOP/s) each would take days to weeks, so they only run when
SCANOBS_FULL_ACCEPTANCE=1 is set (pytest marker: full_scale).  Every
criterion prints one [PASS]/[FAIL] line; run with -s to see them live.
"""

import math
import os

import numpy as np
import pytest

import scanobs.neuralnet as nn
from helpers import lroc_trapezoid_area
from quadrature import gaussian_signal, prf_pixel_value
from scanobs import evaluation, observers
from scanobs.evaluation import alroc, auc, empirical_lroc
from scanobs.imaging import PrfSpec, render_signal_image
from scanobs.mcmc import McmcConfig, mcmc_io_record
from scanobs.observers import Records
from scanobs.phantoms import SignalSpec
from scanobs.rng import stream
from scanobs.runner import (
    ExperimentPlan,
    generate_dataset,
    run_observers,
    run_training,
)
from scanobs.tasks import simulate_measurement, task_preset

FULL = os.environ.get("SCANOBS_FULL_ACCEPTANCE") == "1"
full_scale = pytest.mark.skipif(
    not FULL,
    reason="needs ~1e16-1e17 FLOPs; this host measured ~50-100 GFLOP/s on "
           "one core (days to weeks). Set SCANOBS_FULL_ACCEPTANCE=1 to run.")


def _check(label, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def _analytic_records(task, n_per_class, seed_name):
    rng = stream(0, seed_name)
    zero = np.zeros(task.grid[::-1])
    log_lrs, labels = [], []
    chunk = 250
    for label in range(task.J + 1):
        done = 0
        while done < n_per_class:
            m = min(chunk, n_per_class - done)
            imgs = np.stack([simulate_measurement(task, label, rng)[0]
                             for _ in range(m)])
            log_lrs.append(observers.laplacian_io_log_lrs_batch(
                imgs, task.signal_images, zero, task.noise.scale))
            labels += [label] * m
            done += m
    return observers.records_from_log_lrs(np.concatenate(log_lrs),
                                          task.priors, labels)


def test_criterion_1_ranking_reversal():
    """Analytic IO on both BKE systems, 5000 test images per class: the
    ALROC and AUC orderings of the two systems reverse, each gap more than
    3 combined bootstrap standard errors."""
    foms = {}
    for name in ("bke_system1", "bke_system2"):
        records = _analytic_records(task_preset(name), 5000,
                                    f"acceptance-{name}")
        foms[name] = (
            alroc(records, 1000, stream(0, f"boot-a-{name}")),
            auc(records, 1000, stream(0, f"boot-b-{name}")),
        )
    a1, u1 = foms["bke_system1"]
    a2, u2 = foms["bke_system2"]
    alroc_gap = a1.value - a2.value
    alroc_se = math.hypot(a1.std_error, a2.std_error)
    auc_gap = u2.value - u1.value
    auc_se = math.hypot(u1.std_error, u2.std_error)
    print(f"  system1: ALROC={a1.value:.4f}+-{a1.std_error:.4f} "
          f"AUC={u1.value:.4f}+-{u1.std_error:.4f}")
    print(f"  system2: ALROC={a2.value:.4f}+-{a2.std_error:.4f} "
          f"AUC={u2.value:.4f}+-{u2.std_error:.4f}")
    _check("criterion 1: ALROC ranks system1 first and AUC ranks system2 "
           f"first, gaps {alroc_gap:.4f} (> {3 * alroc_se:.4f}) and "
           f"{auc_gap:.4f} (> {3 * auc_se:.4f})",
           alroc_gap > 3 * alroc_se and auc_gap > 3 * auc_se)


@full_scale
@pytest.mark.full_scale
def test_criterion_2_cnn_matches_analytic_io(tmp_path):
    """5-conv network, 50,000 mini-batches at 80 per class, both BKE
    systems: |ALROC(CNN) - ALROC(analytic IO)| <= 0.03 on 200/class."""
    for name in ("bke_system1", "bke_system2"):
        plan = ExperimentPlan(name, tmp_path / name,
                              observers=["analytic_io", "cnn_io"],
                              n_val_per_class=200, n_test_per_class=200,
                              conv_layers=5, batch_per_class=80,
                              total_minibatches=50_000, seed=0)
        generate_dataset(plan)
        run_training(plan)
        rows = {r["observer"]: r for r in run_observers(plan)}
        gap = abs(rows["cnn_io"]["alroc"] - rows["analytic_io"]["alroc"])
        _check(f"criterion 2 ({name}): |ALROC gap| = {gap:.4f} <= 0.03",
               gap <= 0.03)


@full_scale
@pytest.mark.full_scale
def test_criterion_3_lb_cnn_beats_hotelling(tmp_path):
    """Lumpy-background task, 20,000 training backgrounds, 100,000
    mini-batches: ALROC(CNN) - ALROC(scanning HO) >= 0.05."""
    plan = ExperimentPlan("lb", tmp_path / "lb",
                          observers=["hotelling", "cnn_io"],
                          n_train_backgrounds=20_000, n_val_per_class=200,
                          n_test_per_class=200, conv_layers=5,
                          batch_per_class=80, total_minibatches=100_000,
                          seed=0)
    generate_dataset(plan)
    run_training(plan)
    rows = {r["observer"]: r for r in run_observers(plan)}
    gap = rows["cnn_io"]["alroc"] - rows["hotelling"]["alroc"]
    _check(f"criterion 3: ALROC(CNN) - ALROC(HO) = {gap:.4f} >= 0.05",
           gap >= 0.05)


@full_scale
@pytest.mark.full_scale
def test_criterion_4_mcmc_agrees_with_cnn(tmp_path):
    """Lumpy-background task, 100 test images per class, 20,000 MCMC
    iterations per image: |ALROC(MCMC) - ALROC(CNN)| <= 0.05."""
    plan = ExperimentPlan("lb", tmp_path / "lb4",
                          observers=["mcmc_io", "cnn_io"],
                          n_train_backgrounds=20_000, n_val_per_class=200,
                          n_test_per_class=100, conv_layers=5,
                          batch_per_class=80, total_minibatches=100_000,
                          mcmc_iterations=20_000, seed=0)
    generate_dataset(plan)
    run_training(plan)
    rows = {r["observer"]: r for r in run_observers(plan)}
    gap = abs(rows["mcmc_io"]["alroc"] - rows["cnn_io"]["alroc"])
    _check(f"criterion 4: |ALROC(MCMC) - ALROC(CNN)| = {gap:.4f} <= 0.05",
           gap <= 0.05)


@full_scale
@pytest.mark.full_scale
def test_criterion_5_clb_cnn_beats_hotelling(tmp_path):
    """Clustered-lumpy task: ALROC(CNN) - ALROC(scanning HO) >= 0.05 on
    200/class test images."""
    plan = ExperimentPlan("clb", tmp_path / "clb",
                          observers=["hotelling", "cnn_io"],
                          n_train_backgrounds=20_000, n_val_per_class=200,
                          n_test_per_class=200, conv_layers=5,
                          batch_per_class=80, total_minibatches=100_000,
                          seed=0)
    generate_dataset(plan)
    run_training(plan)
    rows = {r["observer"]: r for r in run_observers(plan)}
    gap = rows["cnn_io"]["alroc"] - rows["hotelling"]["alroc"]
    _check(f"criterion 5: ALROC(CNN) - ALROC(HO) = {gap:.4f} >= 0.05",
           gap >= 0.05)


# ---------------------------------------------------------------------------
# criterion 6: property suite

def test_criterion_6a_gradient_checks():
    from test_neuralnet import _toy_task

    arch = nn.Architecture(2, (4, 4), n_classes=3, filters=3, kernel=3)
    state = nn.init_state(arch, seed=5, dtype=np.float64)
    rng = np.random.default_rng(6)
    images = rng.normal(size=(2, 4, 4))
    labels = np.array([0, 2])
    _, grads = nn.loss_and_gradient(images, labels, state)

    # head identity: dense-bias gradient equals mean(softmax - onehot)
    probs = nn.forward_posteriors(images, state)
    expected = probs.copy()
    expected[np.arange(2), labels] -= 1.0
    head_err = np.abs(grads[-1] - expected.sum(axis=0) / 2.0).max()

    worst = 0.0
    eps = 1e-6
    for p, g in zip(state.params, grads):
        fp, fg = p.ravel(), g.ravel()
        for i in range(fp.size):
            orig = fp[i]
            fp[i] = orig + eps
            lp, _ = nn.loss_and_gradient(images, labels, state)
            fp[i] = orig - eps
            lm, _ = nn.loss_and_gradient(images, labels, state)
            fp[i] = orig
            fd = (lp - lm) / (2.0 * eps)
            worst = max(worst, abs(fd - fg[i])
                        / max(abs(fd), abs(fg[i]), 1e-8))
    _check(f"criterion 6a: head-gradient identity ({head_err:.2e}) and "
           f"finite-difference backprop ({worst:.2e} <= 1e-4)",
           head_err < 1e-12 and worst <= 1e-4)


def test_criterion_6b_mcmc_oracles():
    from test_mcmc import _enumerate_log_lrs, _render_config, _tiny_task

    task = _tiny_task(sig_amp=0.15)
    candidates = np.array([[2.5, 2.5], [5.5, 5.5], [3.5, 4.5]])
    rng = np.random.default_rng(3)
    g = _render_config(task, candidates[0]) + task.signal_images[0] \
        + rng.normal(0.0, 2.0, size=(8, 8))
    exact = _enumerate_log_lrs(task, g, candidates, max_count=2)
    cfg = McmcConfig(iterations=300_000, candidate_centers=candidates,
                     max_count=2)
    rec = mcmc_io_record(g, task, cfg, np.random.default_rng(4))
    est = rec.per_location[0] - np.log(task.priors[1:])
    enum_err = np.abs(np.expm1(est - exact)).max()

    toy = _tiny_task(mean_count=1.0)
    candidate = np.array([[4.5, 4.5]])
    b1 = _render_config(toy, candidate[0]).ravel()
    rng = np.random.default_rng(5)
    gv = 0.55 * b1 + rng.normal(0.0, 0.3, size=64)
    log_odds = math.log(1.0) + (-((gv - b1) @ (gv - b1)) + gv @ gv) / 8.0
    p1 = 1.0 / (1.0 + math.exp(-log_odds))
    trace = []
    mcmc_io_record(gv.reshape(8, 8), toy,
                   McmcConfig(iterations=400_000, candidate_centers=candidate,
                              max_count=1),
                   np.random.default_rng(6), count_trace=trace)
    db_err = abs(float(np.mean(trace)) - p1)
    _check(f"criterion 6b: enumeration oracle ({enum_err:.4f} <= 0.02), "
           f"detailed balance ({db_err:.4f} <= 0.01)",
           enum_err <= 0.02 and db_err <= 0.01)


def test_criterion_6c_rendering_oracles():
    prf = PrfSpec(height=60.0, width=5.0, grid=(64, 64))
    spec = SignalSpec(1, (30.7, 28.2), amplitude=0.2, width1=3.0, width2=2.0,
                      angle=0.5)
    img = render_signal_image(spec, prf=prf)
    obj = gaussian_signal(spec.center, 0.2, 3.0, 2.0, 0.5)
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(8):
        ix, iy = rng.integers(15, 48, size=2)
        ref = prf_pixel_value(obj, 60.0, 5.0, (ix + 0.5, iy + 0.5),
                              spec.center)
        worst = max(worst, abs(img[iy, ix] - ref) / abs(ref))

    # closed-form peak amplitude a h w1 w2 / sqrt((wh^2+w1^2)(wh^2+w2^2))
    centered = SignalSpec(1, (32.5, 32.5), 0.2, 3.0, 3.0)
    peak = render_signal_image(centered, prf=prf)[32, 32]
    amp_err = abs(peak - 0.2 * 60.0 * 9.0 / 34.0)
    _check(f"criterion 6c: rendering vs quadrature ({worst:.2e} <= 1e-6), "
           f"closed-form amplitude ({amp_err:.2e})",
           worst <= 1e-6 and amp_err < 1e-6)


def test_criterion_6d_laplacian_pdf_oracle():
    from scipy import stats

    rng = np.random.default_rng(2)
    b = rng.normal(size=64)
    s = rng.normal(size=64)
    g = rng.normal(size=64) * 3
    c = 20.0 / math.sqrt(2.0)
    ours = observers.laplacian_io_log_lrs_batch(g[None], s[None], b, c)[0, 0]
    ref = (stats.laplace.logpdf(g, loc=b + s, scale=c)
           - stats.laplace.logpdf(g, loc=b, scale=c)).sum()
    _check(f"criterion 6d: log-LR vs per-pixel pdf oracle "
           f"({abs(ours - ref):.2e} <= 1e-10)", abs(ours - ref) <= 1e-10)


def test_criterion_6e_lroc_invariants():
    rng = np.random.default_rng(3)

    def synth(n):
        t = [rng.normal() for _ in range(n)]
        j_star = [1] * n
        for _ in range(n):
            correct = rng.random() < 0.8
            t.append(rng.normal(1.0))
            j_star.append(1 if correct else 2)
        t = np.array(t)
        return Records(t, np.array(j_star), np.array([0] * n + [1] * n),
                       np.zeros((2 * n, 9)), t)

    records = synth(150)
    a = alroc(records, 10).value
    u = auc(records, 10).value
    trap = lroc_trapezoid_area(empirical_lroc(records))
    mapped = Records(np.arctan(records.statistic), records.chosen_location,
                     records.true_label, records.per_location,
                     np.arctan(records.binary_statistic))
    inv_err = abs(alroc(mapped, 10).value - a)
    _check(f"criterion 6e: ALROC ({a:.4f}) <= AUC ({u:.4f}), monotone "
           f"invariance ({inv_err:.1e}), pairwise vs trapezoid "
           f"({abs(a - trap):.4f})",
           a <= u + 1e-12 and inv_err < 1e-12 and abs(a - trap) < 1.0 / 150)


def test_criterion_6f_decision_equivalence():
    task = task_preset("bke_system1")
    rng = np.random.default_rng(4)
    zero = np.zeros((64, 64))
    ok = True
    for i in range(25):
        g, _ = simulate_measurement(task, i % 10, rng)
        log_lrs = observers.laplacian_io_log_lrs_batch(
            g[None], task.signal_images, zero, task.noise.scale)[0]
        lam_lr = np.log(task.priors[1:]) + log_lrs
        post = observers.posteriors_from_lrs(log_lrs, task.priors)
        lam_pr = post[1:] / post[0]
        t_lr, j_lr = observers.scanning_decision(lam_lr)
        t_pr, j_pr = observers.scanning_decision(lam_pr)
        ok &= j_lr == j_pr
        for log_tau in (-3.0, 0.0, 3.0):
            ok &= (t_lr > log_tau) == (t_pr > math.exp(log_tau)
                                       / task.priors[0])
    _check("criterion 6f: likelihood-ratio and posterior-ratio rules give "
           "identical decisions", ok)


def test_criterion_6g_bayes_posterior_toy():
    from test_neuralnet import _toy_task

    task = _toy_task(amplitude=1.5, sigma=1.0)
    s = task.signal_images[0].astype(np.float64)
    ssq = float((s * s).sum())
    arch = nn.Architecture(1, (2, 2), n_classes=2, filters=8, kernel=3)
    rng = np.random.default_rng(14)
    val_images = np.zeros((200, 2, 2))
    val_labels = np.tile([0, 1], 100)
    val_images[val_labels == 1] += s
    val_images += rng.normal(0.0, 1.0, val_images.shape)
    schedule = nn.TrainSchedule(total_minibatches=3000, batch_per_class=32,
                                learning_rate=3e-3, val_period=500, seed=15)
    result = nn.train(arch, task, None, schedule, val_images, val_labels)
    test_images = np.zeros((400, 2, 2))
    test_labels = np.tile([0, 1], 200)
    test_images[test_labels == 1] += s
    test_images += rng.normal(0.0, 1.0, test_images.shape)
    probs = nn.forward_posteriors(test_images, result.best_state)
    mf = test_images.reshape(400, -1) @ s.ravel()
    bayes_p1 = 1.0 / (1.0 + np.exp(-(mf - ssq / 2.0)))
    tv = float(np.abs(probs[:, 1] - bayes_p1).mean())
    _check(f"criterion 6g: trained posterior vs Bayes rule on the 4-pixel "
           f"toy (TV {tv:.4f} <= 0.02)", tv <= 0.02)
